"""The 324-instance population and its input documents.

Every document the benchmark feeds to ``k3walls`` is the diagonal model
instance of an affine type ``X~n`` with parameters ``r, a in {1, 2, 3}``.  The
documents are built here with the benchmark's own exact arithmetic, so that
set-up does not depend on ``k3walls.families``; ``make_digests.py`` checks that
they equal ``pipeline.instance_document`` byte for byte.
"""

from fractions import Fraction

SWEEP_TYPES = ([("A", n) for n in range(1, 19)]
               + [("D", n) for n in range(4, 19)]
               + [("E", n) for n in (6, 7, 8)])
R_A = (1, 2, 3)
POPULATION = tuple((family, n, r, a) for family, n in SWEEP_TYPES for r in R_A for a in R_A)


def spec_key(spec):
    family, n, r, a = spec
    return f"{family}{n}-r{r}-a{a}"


def picard_rank(spec):
    return spec[1] + 1


def type_data(lib, family, n):
    """``(cartan_entries, marks)`` of the standard affine matrix of ``X~n``."""
    matrix = lib.roots.standard_affine_matrix(family, n)
    return matrix.entries, tuple(lib.roots.marks(matrix))


def rational_json(q):
    q = Fraction(q)
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"


def solve(matrix, rhs):
    """Exact solution of a nonsingular square system (Gauss-Jordan)."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[n] for row in rows]


def gram_matrix(entries, r, a):
    shift = 2 * r * a
    return [[-e + shift for e in row] for row in entries]


def make_document(entries, marks, r, a, alpha=True):
    """Canonical input document of one model instance.

    Key order and number encoding follow ``pipeline.serialize_instance``; the
    alpha is the fundamental-chamber twist of scale 1: ``(xi_j, D) = 1`` for
    ``j >= 1`` and ``(H, D) = 0``.
    """
    n_nodes = len(marks)
    gram = gram_matrix(entries, r, a)
    mark_sum = sum(marks)
    strata = []
    for i, m in enumerate(marks):
        c1 = [0] * n_nodes
        c1[i] = 1
        strata.append({"u": {"r": r, "c1": c1, "s": a}, "mult": m})
    doc = {
        "picard": {"basis": [f"xi{i}" for i in range(n_nodes)], "gram": gram},
        "polarization": list(marks),
        "mukai_vector": {"r": r * mark_sum, "c1": list(marks), "s": a * mark_sum},
        "strata": strata,
    }
    if alpha:
        target = [-sum(marks[1:])] + [1] * (n_nodes - 1)
        doc["alpha"] = {"c1": [rational_json(x) for x in solve(gram, target)]}
    return doc
