"""Output checks that use the benchmark's own integer arithmetic.

A check returns ``None`` when the output is right and a one-line reason when
it is wrong.  Nothing here calls ``k3walls``: reports are read as JSON and the
Mukai pairing is recomputed from the input document's Gram matrix.
"""

import hashlib
import json
from fractions import Fraction

from perfbench.population import gram_matrix, rational_json

VERIFICATION_FLAGS = 11


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expect_digest(digests, table, key, text):
    want = digests[table].get(key)
    if want is None:
        return f"no recorded {table} digest for {key}"
    if digest(text) != want:
        return f"{table} output differs from the recorded digest"
    return None


def _q(x):
    return Fraction(x) if isinstance(x, str) else x


def mukai_triple(obj):
    return _q(obj["r"]), [_q(c) for c in obj["c1"]], _q(obj["s"])


def pairing(gram, x, y):
    """``<x, y> = (c1 x, G c1 y) - r(x) s(y) - s(x) r(y)`` on triples."""
    rx, cx, sx = x
    ry, cy, sy = y
    form = sum(cx[i] * sum(row[j] * cy[j] for j in range(len(cy)) if cy[j])
               for i, row in enumerate(gram) if cx[i])
    return form - rx * sy - sx * ry


def wall_problem(doc, report_text):
    """Each wall ``u``: ``<u,u> = -2``, ``0 < rk u < rk v``, ``<v,u> <= 0``."""
    gram = doc["picard"]["gram"]
    v = mukai_triple(doc["mukai_vector"])
    walls = json.loads(report_text)["walls"]
    if walls["count"] != len(walls["vectors"]):
        return "wall count differs from the wall list"
    for k, entry in enumerate(walls["vectors"]):
        u = mukai_triple(entry["u"])
        if pairing(gram, u, u) != -2:
            return f"wall {k}: <u,u> != -2"
        if not 0 < u[0] < v[0]:
            return f"wall {k}: rank outside (0, rk v)"
        vu = pairing(gram, v, u)
        if vu > 0 or _q(entry["pairing_with_v"]) != vu:
            return f"wall {k}: <v,u> wrong or positive"
    return None


def instance_problem(instance, entries, r, a):
    """All identity flags true, ``Gram = -A + 2ra`` and ``<v,v> = 0``."""
    flags = instance.verification
    if len(flags) != VERIFICATION_FLAGS or not all(flags.values()):
        return "verification flags missing or false"
    gram = [list(row) for row in instance.lattice.gram]
    if gram != gram_matrix(entries, r, a):
        return "Gram differs from -A + 2ra"
    v = (instance.v.r, list(instance.v.c1), instance.v.s)
    if pairing(gram, v, v) != 0:
        return "<v,v> != 0"
    return None


def psi_text(plus, minus):
    """Canonical JSON of the two Psi lists, as recorded in the digest table."""
    def enc(u):
        return [rational_json(u.r), [rational_json(c) for c in u.c1], rational_json(u.s)]
    return json.dumps({"psi_plus": [enc(u) for u in plus],
                       "complement": [enc(u) for u in minus]})


def psi_problem(doc, psi_json):
    """Every Psi element is a (-2)-class with ``0 < rk u < rk v``."""
    gram = doc["picard"]["gram"]
    v = mukai_triple(doc["mukai_vector"])
    data = json.loads(psi_json)
    for u in data["psi_plus"] + data["complement"]:
        u = (_q(u[0]), [_q(c) for c in u[1]], _q(u[2]))
        if pairing(gram, u, u) != -2 or not 0 < u[0] < v[0]:
            return "Psi element is not a (-2)-class of rank in (0, rk v)"
    return None
