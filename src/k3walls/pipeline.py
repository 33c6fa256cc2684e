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
import re
from fractions import Fraction
from itertools import chain, starmap

from . import lattice as lat
from . import mukai as mk
from . import strata as st
from . import walls as wl
from .errors import CapExceeded, SchemaError, _Record
from .linalg import normalize_number

CAVEAT = ("lattice-level computation only; existence of a K3 surface realizing "
          "this Picard lattice (a primitive embedding into (-E8)^2 + U^3) is "
          "assumed, not verified")

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

#: Why a report cannot be written: int to str raises ValueError past CPython's digit limit.
_TOO_LONG = "a number of the output has more digits than the interpreter writes"


def rational_to_json(q):
    if type(q) is not int:
        q = normalize_number(Fraction(q))
    try:
        return q if isinstance(q, int) else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise CapExceeded(_TOO_LONG) from None


def rational_from_json(value, path):
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        # Fraction() alone would also take "1.5", "1_000" and "1e100000000",
        # the last an integer of 332 million bits.
        text = value.strip()
        if _RATIONAL.fullmatch(text):
            try:
                return normalize_number(Fraction(text))
            except (ValueError, ZeroDivisionError):  # past the digit limit, or "p/0"
                pass
        raise SchemaError(path, f"malformed rational string {value!r}")
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


def _expect_object(value, path, required, optional=()):
    """``value`` as an object holding every ``required`` key and no key outside ``required``
    and ``optional``; an unexpected key is reported before a missing one."""
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}.{key}", "unexpected key")
    for key in required:
        if key not in value:
            raise SchemaError(f"{path}.{key}", "missing")
    return value


def _parse_rational_vector(value, path, length):
    items = _expect_list(value, path, length)
    if set(map(type, items)) == {int}:  # a bool is not an int here
        return tuple(items)
    return tuple(rational_from_json(x, f"{path}[{k}]") for k, x in enumerate(items))


def parse_mukai_vector(doc, lattice, path):
    _expect_object(doc, path, ("r", "c1", "s"))
    r = rational_from_json(doc["r"], f"{path}.r")
    c1 = _parse_rational_vector(doc["c1"], f"{path}.c1", lattice.rank)
    s = rational_from_json(doc["s"], f"{path}.s")
    return mk.MukaiVector(r, c1, s, lattice)


def mukai_to_json(u):
    c1 = u.c1 if set(map(type, u.c1)) == {int} else map(rational_to_json, u.c1)
    return {"r": rational_to_json(u.r), "c1": list(c1), "s": rational_to_json(u.s)}


class ParsedInstance(_Record):
    # strata: ((MukaiVector, int), ...) or None; alpha_c1: rational divisor coordinates or None
    __slots__ = ("lattice", "polarization", "v", "strata", "alpha_c1")

    def stratum_data(self):
        if self.strata is None:
            return None
        return st.StratumData(self.lattice, self.polarization, self.v, self.strata)

    def twist(self):
        """Build the twist parameter; raises InvalidTwist on bad alpha."""
        if self.alpha_c1 is None:
            return None
        return mk.TwistParameter(mk.delta_map(self.v, self.alpha_c1), self.v, self.polarization)


def parse_instance(doc):
    """Validate an input document against the contract; SchemaError on failure."""
    _expect_object(doc, "$", ("picard", "polarization", "mukai_vector"), ("strata", "alpha"))
    picard = _expect_object(doc["picard"], "$.picard", ("basis", "gram"))
    basis = _expect_list(picard["basis"], "$.picard.basis")
    for k, label in enumerate(basis):
        if not isinstance(label, str):
            raise SchemaError(f"$.picard.basis[{k}]", "expected a string")
    rank = len(basis)
    gram_rows = _expect_list(picard["gram"], "$.picard.gram", rank)
    gram = []
    for i, row in enumerate(gram_rows):
        row = _expect_list(row, f"$.picard.gram[{i}]", rank)
        if set(map(type, row)) != {int}:  # walk the row only to name the entry at fault
            row = [_expect_int(e, f"$.picard.gram[{i}][{j}]") for j, e in enumerate(row)]
        gram.append(row)
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
            u = parse_mukai_vector(entry["u"], lattice, f"$.strata[{k}].u")
            m = _expect_int(entry["mult"], f"$.strata[{k}].mult", minimum=1)
            pairs.append((u, m))
        strata = tuple(pairs)

    alpha_c1 = None
    if "alpha" in doc:
        alpha = _expect_object(doc["alpha"], "$.alpha", ("c1",))
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


def _finite_json(diagram):
    return {
        "family": diagram.family,
        "rank": diagram.rank,
        "type": diagram.type_name(),
        "node_perm": list(diagram.node_perm),
    }


def _affine_json(diagram):
    return {**_finite_json(diagram), "affine_node": diagram.affine_node,
            "marks_standard": list(diagram.marks_standard())}


def _wall_json(wall):
    u = wall.u  # integral as enumerate_walls builds it: mukai_to_json(u), with no type probe
    return {"u": {"r": u.r, "c1": list(u.c1), "s": u.s}, "pairing_with_v": wall.pairing_with_v}


def pipeline_classify(parsed, deleted_node=0):
    """Full deterministic report for a :class:`ParsedInstance`.

    Wall data is always computed; stratum classification and chamber location
    appear when the instance supplies ``strata`` and ``alpha``.  Identical
    input bytes give identical report bytes.
    """
    report = {"tool": "k3walls", "report_version": 1,
              **dict.fromkeys(("validation", "affine", "marks", "deleted_node", "finite",
                               "dual_graph", "psi_plus_count", "walls", "chamber")),
              "caveat": CAVEAT}

    wall_list = wl.enumerate_walls(parsed.lattice, parsed.polarization, parsed.v)
    report["walls"] = {
        "count": len(wall_list),
        "origin_count": len(wl.u_prime(wall_list)),
        "vectors": [_wall_json(w) for w in wall_list],
    }

    stratum = parsed.stratum_data()
    result = None
    if stratum is not None:
        violations = st.validate_stratum(stratum)
        report["validation"] = {"ok": not violations, "violations": violations}
        if not violations:
            result = st.classify_singularity(stratum, deleted_node)
            graph = result.dual_graph
            report.update(
                affine=_affine_json(result.affine),
                marks=list(result.marks),
                deleted_node=result.deleted_node,
                finite=_finite_json(result.finite),
                dual_graph={
                    "nodes": list(graph.nodes),
                    "labels": list(graph.node_labels()),
                    "edges": [list(e) for e in graph.edges],
                    "self_intersection": graph.self_intersection,
                },
                # |Psi_+| = |Phi_+| = n h / 2, h = sum of the affine marks the Coxeter
                # number; the passed stratum checks imply the Psi-set checks.
                psi_plus_count=result.finite.rank * sum(result.marks) // 2)

    twist = parsed.twist()
    if twist is not None:
        position = wl.locate(twist, wall_list, parsed.v, singularity=result)
        chamber = report["chamber"] = {
            "signs": list(position.signs),
            "on_walls": list(position.on_walls),
            "generic": position.is_generic,
        }
        if result is not None:
            chamber["weyl_word"] = list(position.weyl_word)
            chamber["reduced_values"] = [rational_to_json(t) for t in position.reduced_values]
            chamber["on_chamber_wall"] = position.on_chamber_wall
            chamber["slope_condition"] = wl.slope_condition(
                twist, parsed.v, stratum.strata, deleted_node)
    return report


def dumps_report(report):
    """Canonical report bytes: fixed key order, two-space indent, newline.

    The text is exactly ``json.dumps(report, indent=2, ensure_ascii=False)``
    plus a newline, written by :func:`_write_json`.  Report values are dicts
    with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and ``None``;
    anything else (a float, a Fraction, a set, a non-``str`` key, a subclass
    of a value type) raises ``TypeError``, and an ``int`` past the interpreter's
    digit limit ``CapExceeded``.
    """
    try:
        return _write_json(report, "") + "\n"
    except ValueError:  # only int to str raises it: a non-report value is a TypeError
        raise CapExceeded(_TOO_LONG) from None


_encode_str = json.encoder.encode_basestring  # the C escaper of ensure_ascii=False


def _write_json(x, indent):
    """JSON text of ``x`` with its closing bracket at ``indent``."""
    kind = type(x)
    if kind is str:
        return _encode_str(x)
    if kind is int:
        return int.__repr__(x)
    if x is None or kind is bool:
        return "null" if x is None else "true" if x else "false"
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"{kind.__name__} is not a report value")
    if not x:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is dict:  # the escaper raises TypeError on a non-str key
        items = [f"{_encode_str(k)}: {_write_json(v, inner)}" for k, v in x.items()]
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    template, columns = _write_column(x, inner)
    items = map(str, *columns) if template == "{}" else starmap(template.format, zip(*columns))
    return f"[\n{inner}{sep.join(items)}\n{indent}]"


def _write_column(values, indent):
    """``(template, columns)``: ``template.format(*row)`` for the i-th row of ``zip(*columns)``
    is the JSON text of ``values[i]``, closing at ``indent``.

    A column of ints is ``"{}"`` over itself, int lists of one length get one field per entry,
    and dicts sharing one tuple of ``str`` keys nest their columns' templates key by key.  A
    ``bool`` is no ``int`` here; any other column (a dict or str subclass in it, say) is
    ``"{}"`` over texts written value by value by :func:`_write_json`.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return "{}", [values]
    inner = indent + "  "
    sep = ",\n" + inner
    # Lists of one length holding ints only: that length is not 0, or no int would be found.
    if (kinds == {list} and len(lengths := set(map(len, values))) == 1
            and set(map(type, chain.from_iterable(values))) == {int}):
        (n,) = lengths
        return f"[\n{inner}{sep.join(['{}'] * n)}\n{indent}]", list(zip(*values))
    if kinds == {dict} and len(keys := set(map(tuple, values))) == 1:
        (keys,) = keys
        if set(map(type, keys)) == {str}:  # so at least one key
            fields, columns = [], []
            for key, column in zip(keys, zip(*map(dict.values, values))):
                template, leaves = _write_column(column, inner)
                # The key's braces are doubled: its text goes into the format template.
                fields.append(f"{_encode_str(key)}: ".replace("{", "{{").replace("}", "}}")
                              + template)
                columns += leaves
            return f"{{{{\n{inner}{sep.join(fields)}\n{indent}}}}}", columns
    return "{}", [[_write_json(v, indent) for v in values]]


def dot_graph(graph):
    """DOT rendering of a dual graph: nodes "C_i", edge labels = multiplicity."""
    lines = ["graph dual_graph {"]
    for label in graph.node_labels():
        lines.append(f'  "{label}";')
    for i, j, mult in graph.edges:
        lines.append(f'  "C{i}" -- "C{j}" [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
