"""JSON input contract, the classification pipeline, and DOT export.

The input document is a single JSON object:

    {
      "picard":       {"basis": [str, ...], "gram": [[int, ...], ...]},
      "polarization": [int, ...],
      "mukai_vector": {"r": rational, "c1": [rational, ...], "s": rational},
      "strata":       [{"u": mukai-vector-object, "mult": positive-int}, ...],
      "alpha":        {"c1": [rational, ...]}
    }

``strata`` and ``alpha`` are optional; a rational is a JSON integer or a
string "p/q"; the rank and point components of ``alpha`` are derived from the
twist-parameter constraints.  Serialization is canonical (fixed key order,
integers emitted as integers, non-integers as "p/q"), so
``serialize(parse(x))`` is idempotent and reports are byte-reproducible.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from . import lattice as lat
from . import mukai as mk
from . import strata as st
from . import walls as wl
from .errors import SchemaError
from .linalg import normalize_number

TOP_LEVEL_KEYS = ("picard", "polarization", "mukai_vector", "strata", "alpha")

CAVEAT = ("lattice-level computation only; existence of a K3 surface realizing "
          "this Picard lattice (a primitive embedding into (-E8)^2 + U^3) is "
          "assumed, not verified")


def rational_to_json(q):
    if type(q) is not int:
        q = normalize_number(Fraction(q))
    return q if isinstance(q, int) else f"{q.numerator}/{q.denominator}"


def rational_from_json(value, path):
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return normalize_number(Fraction(value.strip()))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"malformed rational string {value!r}") from None
    raise SchemaError(path, f"expected an integer or 'p/q' string, got {type(value).__name__}")


def _expect_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _expect_list(value, path, length=None):
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise SchemaError(path, f"expected length {length}, got {len(value)}")
    return value


def _expect_object(value, path, allowed):
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unexpected key")
    return value


def _parse_rational_vector(value, path, length):
    items = _expect_list(value, path, length)
    return tuple(rational_from_json(x, f"{path}[{k}]") for k, x in enumerate(items))


def parse_mukai_vector(doc, lattice, path):
    _expect_object(doc, path, ("r", "c1", "s"))
    for key in ("r", "c1", "s"):
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing")
    r = rational_from_json(doc["r"], f"{path}.r")
    c1 = _parse_rational_vector(doc["c1"], f"{path}.c1", lattice.rank)
    s = rational_from_json(doc["s"], f"{path}.s")
    return mk.MukaiVector(r, c1, s, lattice)


def mukai_to_json(u):
    return {"r": rational_to_json(u.r),
            "c1": [rational_to_json(c) for c in u.c1],
            "s": rational_to_json(u.s)}


@dataclass(frozen=True)
class ParsedInstance:
    lattice: lat.PicardLattice
    polarization: tuple
    v: mk.MukaiVector
    strata: tuple  # ((MukaiVector, int), ...) or None
    alpha_c1: tuple  # rational divisor coordinates or None

    def stratum_data(self):
        if self.strata is None:
            return None
        return st.StratumData(self.lattice, self.polarization, self.v, self.strata)

    def twist(self):
        """Build the twist parameter; raises InvalidTwist on bad alpha."""
        if self.alpha_c1 is None:
            return None
        s = Fraction(lat.pairing(self.lattice, self.alpha_c1, self.v.c1)) / Fraction(self.v.r)
        alpha = mk.MukaiVector(0, self.alpha_c1, s, self.lattice)
        return mk.TwistParameter(alpha, self.v, self.polarization)


def parse_instance(doc):
    """Validate an input document against the contract; SchemaError on failure."""
    _expect_object(doc, "$", TOP_LEVEL_KEYS)
    for key in ("picard", "polarization", "mukai_vector"):
        if key not in doc:
            raise SchemaError(f"$.{key}", "missing")
    picard = _expect_object(doc["picard"], "$.picard", ("basis", "gram"))
    for key in ("basis", "gram"):
        if key not in picard:
            raise SchemaError(f"$.picard.{key}", "missing")
    basis = _expect_list(picard["basis"], "$.picard.basis")
    for k, label in enumerate(basis):
        if not isinstance(label, str):
            raise SchemaError(f"$.picard.basis[{k}]", "expected a string")
    rank = len(basis)
    gram_rows = _expect_list(picard["gram"], "$.picard.gram", rank)
    gram = []
    for i, row in enumerate(gram_rows):
        row = _expect_list(row, f"$.picard.gram[{i}]", rank)
        gram.append([_expect_int(e, f"$.picard.gram[{i}][{j}]") for j, e in enumerate(row)])
    try:
        lattice = lat.PicardLattice(gram, basis)
    except ValueError as exc:
        raise SchemaError("$.picard.gram", str(exc)) from None

    pol = _expect_list(doc["polarization"], "$.polarization", rank)
    h = tuple(_expect_int(e, f"$.polarization[{k}]") for k, e in enumerate(pol))

    v = parse_mukai_vector(doc["mukai_vector"], lattice, "$.mukai_vector")

    strata = None
    if "strata" in doc:
        raw = _expect_list(doc["strata"], "$.strata")
        if not raw:
            raise SchemaError("$.strata", "must be non-empty when present")
        pairs = []
        for k, entry in enumerate(raw):
            _expect_object(entry, f"$.strata[{k}]", ("u", "mult"))
            for key in ("u", "mult"):
                if key not in entry:
                    raise SchemaError(f"$.strata[{k}].{key}", "missing")
            u = parse_mukai_vector(entry["u"], lattice, f"$.strata[{k}].u")
            m = _expect_int(entry["mult"], f"$.strata[{k}].mult", minimum=1)
            pairs.append((u, m))
        strata = tuple(pairs)

    alpha_c1 = None
    if "alpha" in doc:
        alpha = _expect_object(doc["alpha"], "$.alpha", ("c1",))
        if "c1" not in alpha:
            raise SchemaError("$.alpha.c1", "missing")
        alpha_c1 = _parse_rational_vector(alpha["c1"], "$.alpha.c1", rank)

    return ParsedInstance(lattice, h, v, strata, alpha_c1)


def serialize_instance(parsed):
    """Canonical input document for a parsed instance."""
    doc = {
        "picard": {
            "basis": list(parsed.lattice.basis_labels),
            "gram": [list(row) for row in parsed.lattice.gram],
        },
        "polarization": [int(c) for c in parsed.polarization],
        "mukai_vector": mukai_to_json(parsed.v),
    }
    if parsed.strata is not None:
        doc["strata"] = [{"u": mukai_to_json(u), "mult": int(m)} for u, m in parsed.strata]
    if parsed.alpha_c1 is not None:
        doc["alpha"] = {"c1": [rational_to_json(c) for c in parsed.alpha_c1]}
    return doc


def instance_document(example, alpha_scale=None):
    """Input document for a generated model instance."""
    from . import families
    parsed = ParsedInstance(example.lattice, example.polarization, example.v,
                            tuple(zip(example.v_list, example.marks)),
                            families.fundamental_alpha(example, alpha_scale).alpha.c1
                            if alpha_scale is not None else None)
    return serialize_instance(parsed)


def _affine_json(diagram):
    return {
        "family": diagram.family,
        "rank": diagram.rank,
        "type": diagram.type_name(),
        "node_perm": list(diagram.node_perm),
        "affine_node": diagram.affine_node,
        "marks_standard": list(diagram.marks_standard()),
    }


def _finite_json(diagram):
    return {
        "family": diagram.family,
        "rank": diagram.rank,
        "type": diagram.type_name(),
        "node_perm": list(diagram.node_perm),
    }


def _wall_json(wall):
    return {"u": mukai_to_json(wall.u), "pairing_with_v": wall.pairing_with_v}


def pipeline_classify(doc, deleted_node=0):
    """Full deterministic report for an input document.

    Wall data is always computed; stratum classification and chamber location
    appear when the document supplies ``strata`` and ``alpha``.  Identical
    input bytes give identical report bytes.
    """
    parsed = doc if isinstance(doc, ParsedInstance) else parse_instance(doc)
    report = {"tool": "k3walls", "report_version": 1}

    wall_list = wl.enumerate_walls(parsed.lattice, parsed.polarization, parsed.v)
    origin = wl.u_prime(wall_list, parsed.v)

    validation = None
    affine_json = marks_json = finite_json = graph_json = None
    psi_count = None
    deleted_json = None
    stratum = parsed.stratum_data()
    result = None
    if stratum is not None:
        violations = st.validate_stratum(stratum)
        validation = {"ok": not violations, "violations": violations}
        if not violations:
            result = st.classify_singularity(stratum, deleted_node)
            affine_json = _affine_json(result.affine)
            marks_json = list(result.marks)
            finite_json = _finite_json(result.finite)
            deleted_json = result.deleted_node
            graph_json = {
                "nodes": list(result.dual_graph.nodes),
                "labels": list(result.dual_graph.node_labels()),
                "edges": [list(e) for e in result.dual_graph.edges],
                "self_intersection": result.dual_graph.self_intersection,
            }
            psi_plus, _ = result.psi_sets()
            psi_count = len(psi_plus)

    chamber_json = None
    twist = parsed.twist()
    if twist is not None:
        position = wl.locate(twist, wall_list, parsed.v, singularity=result)
        chamber_json = {
            "signs": list(position.signs),
            "on_walls": list(position.on_walls),
            "generic": position.is_generic,
        }
        if result is not None:
            chamber_json["weyl_word"] = list(position.weyl_word)
            chamber_json["reduced_values"] = [rational_to_json(t)
                                              for t in position.reduced_values]
            chamber_json["on_chamber_wall"] = position.on_chamber_wall
            chamber_json["slope_condition"] = wl.slope_condition(
                twist, parsed.v, stratum.strata, deleted_node)

    report["validation"] = validation
    report["affine"] = affine_json
    report["marks"] = marks_json
    report["deleted_node"] = deleted_json
    report["finite"] = finite_json
    report["dual_graph"] = graph_json
    report["psi_plus_count"] = psi_count
    report["walls"] = {
        "count": len(wall_list),
        "origin_count": len(origin),
        "vectors": [_wall_json(w) for w in wall_list],
    }
    report["chamber"] = chamber_json
    report["caveat"] = CAVEAT
    return report


def dumps_report(report):
    """Canonical report bytes: fixed key order, two-space indent, newline."""
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def dot_graph(graph):
    """DOT rendering of a dual graph: nodes "C_i", edge labels = multiplicity."""
    lines = ["graph dual_graph {"]
    for label in graph.node_labels():
        lines.append(f'  "{label}";')
    for i, j, mult in graph.edges:
        lines.append(f'  "C{i}" -- "C{j}" [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
