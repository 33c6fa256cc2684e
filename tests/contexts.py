"""Wall contexts ``(Pic, H, v)`` built with the signature (1, rho - 1) in.

With ``H = e_0`` and ``H^2 > 0``, Pic has signature (1, rho - 1) exactly when
``H^perp`` is negative definite.  If ``G'`` is the Gram on ``e_1 .. e_{rho-1}``
and ``b`` their pairings with H, ``H^perp`` is negative definite exactly when the
Schur complement ``H^2 G' - b b^T`` is; Sylvester's criterion decides that in
``Fraction``, with no library code.  So a drawn lattice is never thrown away for
its signature, as one drawn whole and tested by its characteristic polynomial is.

Every even lattice of signature (1, rho - 1) with rho <= 10 is the Picard lattice
of some K3 surface, so a claim checked on these contexts is one about K3 surfaces.
"""

from fractions import Fraction
from math import gcd

from k3walls import lattice as lat
from k3walls import mukai as mk


def _square(gram, x):
    return sum(x[i] * gram[i][j] * x[j] for i in range(len(x)) for j in range(len(x)))


def _positive_definite(matrix):
    """Sylvester's criterion: every leading principal minor is positive, by exact
    elimination without pivoting (a zero pivot is a zero leading minor)."""
    rows = [[Fraction(e) for e in row] for row in matrix]
    for k in range(len(rows)):
        pivot = rows[k][k]
        if pivot <= 0:  # the k-th leading minor over the (k-1)-th
            return False
        for row in rows[k + 1:]:
            factor = row[k] / pivot
            row[k:] = [a - factor * b for a, b in zip(row[k:], rows[k][k:])]
    return True


def _isotropic_v(lattice, r, xi):
    """``(r, xi, xi^2 / 2r)`` when it is an integral, primitive Mukai vector, else None."""
    sq = _square(lattice.gram, xi)
    if sq % (2 * r) or gcd(r, sq // (2 * r), *xi) != 1:
        return None
    return mk.MukaiVector(r, xi, sq // (2 * r), lattice)


def constructed_context(rng, rho):
    """A random ``(Pic, H, v)``: ``H = e_0`` with ``H^2`` in {2, 4, 6}, the other Gram
    entries in the box of ``test_walls.random_wall_context``, ``H^perp`` negative
    definite, and a primitive isotropic ``v`` of rank 2..6 with ``c1(v)`` in
    ``[-3, 3]^rho``.  A lattice on which 200 draws of ``v`` find none is redrawn."""
    while True:
        gram = [[0] * rho for _ in range(rho)]
        for i in range(rho):
            gram[i][i] = 2 * rng.randint(-2, 2)
            for j in range(i + 1, rho):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        gram[0][0] = rng.choice((2, 4, 6))  # H^2
        hh, b = gram[0][0], gram[0][1:]
        schur = [[b[i] * b[j] - hh * gram[i + 1][j + 1] for j in range(rho - 1)]
                 for i in range(rho - 1)]  # -(H^2 G' - b b^T)
        if not _positive_definite(schur):
            continue
        p = lat.PicardLattice(gram)
        for _ in range(200):
            xi = tuple(rng.randint(-3, 3) for _ in range(rho))
            v = _isotropic_v(p, rng.randint(2, 6), xi)
            if v is not None:
                return p, p.basis_vector(0), v


def census_rho2():
    """Every rank-2 context ``(Pic, e_0, v)``: ``Pic = [[2a, b], [b, 2c]]`` with
    ``1 <= a <= 3``, ``0 <= b <= 4`` (``b -> -b`` is a change of basis), ``-3 <= c <= 3``
    and ``b^2 - 4ac > 0``, then every primitive isotropic ``v`` of rank 2..6 with
    ``c1(v)`` in ``[-4, 4]^2``.  Returns ``(forms, contexts)``, forms as Grams."""
    forms = [((2 * a, b), (b, 2 * c)) for a in range(1, 4) for b in range(5)
             for c in range(-3, 4) if b * b - 4 * a * c > 0]
    contexts = []
    for gram in forms:
        p = lat.PicardLattice(gram)
        for r in range(2, 7):
            for xi in ((x, y) for x in range(-4, 5) for y in range(-4, 5)):
                v = _isotropic_v(p, r, xi)
                if v is not None:
                    contexts.append((p, p.basis_vector(0), v))
    return forms, contexts
