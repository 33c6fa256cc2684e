"""Exact linear algebra over the integers and rationals.

Plain lists/tuples of ``int`` and ``fractions.Fraction``, no floating point;
matrices are lists of row lists.  :class:`IntegerSystem` reduces a system
once to an integer echelon, which gives saturated kernels, integer solutions
and rational ones (of a right-hand side scaled by the pivots).
:class:`QuadraticForm` factors a positive definite integer form once by
fraction-free LDL^T for the definiteness test and the short/coset vector
descent, one walk per pair ``+-x``.  :func:`signature` runs on integers as well.
"""

from fractions import Fraction
from itertools import repeat
from math import floor, gcd, isqrt, lcm, prod
from operator import add, index, mul, neg

from .errors import InvariantError, _Record


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def normalize_number(q):
    """Return an ``int`` when ``q`` is an integer-valued rational, else ``q``."""
    if type(q) is int:
        return q
    if isinstance(q, Fraction) and q.denominator == 1:
        return int(q)
    return q


def normalize_vector(x):
    return tuple(a if type(a) is int else normalize_number(Fraction(a)) for a in x)


def integer_rows(rows, name):
    """``rows`` as a tuple of ``int`` tuples; ``ValueError`` on an entry that is not an integer."""
    rows = tuple(map(tuple, rows))
    try:
        if rows == (out := tuple(tuple(map(int, row)) for row in rows)):
            return out
    except (OverflowError, ValueError):  # int() of an infinity or a NaN
        pass
    raise ValueError(f"{name} entries must be integers")


def content(x):
    """gcd of the entries of an integer vector (0 for the zero vector)."""
    return gcd(*map(int, x))


def mat_mul_vec(m, x):
    return tuple(sum(map(mul, row, x)) for row in m)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _euclid_sweep(rows, aux, col, start):
    """Zero out column ``col`` below ``start`` by integer row operations.

    Mirrors every operation on ``aux``.  Returns True when a nonzero pivot
    ended up at ``rows[start][col]``.
    """
    while True:
        pivot = None
        for r in range(start, len(rows)):
            if rows[r][col] != 0 and (pivot is None or abs(rows[r][col]) < abs(rows[pivot][col])):
                pivot = r
        if pivot is None:
            return False
        if pivot != start:
            rows[start], rows[pivot] = rows[pivot], rows[start]
            aux[start], aux[pivot] = aux[pivot], aux[start]
        done = True
        p = rows[start][col]
        for r in range(start + 1, len(rows)):
            if rows[r][col] != 0:
                q = rows[r][col] // p
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[start])]
                aux[r] = [a - q * b for a, b in zip(aux[r], aux[start])]
                if rows[r][col] != 0:
                    done = False
        if done:
            return True


class IntegerSystem(_Record):
    """The integer system ``A x = b`` in ``n_cols`` unknowns for a fixed ``A``, reduced once.

    Unimodular row operations on ``A^T``, mirrored on an identity matrix,
    bring it to echelon form (``echelon``, ``transform``: tuples of rows).  The
    zero rows give a basis of the integer kernel, which generates a saturated
    (primitive) sublattice of Z^n; the pivot rows give one integer solution per
    right-hand side by forward substitution with divisibility checks.
    """

    __slots__ = ("echelon", "transform", "pivot_cols")

    def __init__(self, a_rows, n_cols):
        m = len(a_rows)
        t = [[int(a_rows[i][j]) for i in range(m)] for j in range(n_cols)]
        u = identity_matrix(n_cols)
        pivot_cols = []
        for col in range(m):
            if len(pivot_cols) >= n_cols:
                break
            if _euclid_sweep(t, u, col, len(pivot_cols)):
                pivot_cols.append(col)
        super().__init__(tuple(map(tuple, t)), tuple(map(tuple, u)), tuple(pivot_cols))

    def kernel(self):
        """Basis of ``{x in Z^n : A x = 0}`` in canonical sign and order; empty when trivial."""
        t, u = self.echelon, self.transform
        basis = [sign_normalize(u[r]) for r in range(len(self.pivot_cols), len(u))
                 if not any(t[r])]
        basis.sort()
        return basis

    def pivot_rows(self):
        """``((col, row), ...)``: the nonzero echelon rows with their pivot columns.

        Over Z they are a basis of the lattice spanned by the rows of ``A^T``,
        in the shape :func:`echelon_coefficients` reads.
        """
        return tuple(zip(self.pivot_cols, self.echelon))

    def solve(self, b):
        """One integer solution of ``A x = b``, or None when none exists."""
        z = echelon_coefficients(self.pivot_rows(), b)
        if z is None:
            return None
        u = self.transform
        return tuple(sum(u[j][i] * q for j, q in enumerate(z)) for i in range(len(u)))


def echelon_coefficients(pivot_rows, b):
    """Integers ``z`` with ``b = sum_r z_r row_r``, or None when there are none.

    ``pivot_rows`` holds ``(col, row)`` pairs of an integer row echelon form
    (each row zero left of its pivot column ``col``).  Forward substitution
    with a divisibility check at each pivot; no back-transform, no Fraction.
    """
    residual = [int(v) for v in b]
    z = []
    for col, row in pivot_rows:
        q, rem = divmod(residual[col], row[col])
        if rem:
            return None
        z.append(q)
        if q:
            residual = [a - q * e for a, e in zip(residual, row)]
    if any(residual):
        return None
    return z


def integer_kernel(a_rows, n_cols):
    """Basis of ``{x in Z^n : A x = 0}`` for an integer matrix ``A``.

    Rows of the result are the kernel vectors, generating a saturated
    sublattice; the list is empty for a trivial kernel (see :class:`IntegerSystem`).
    """
    return IntegerSystem(a_rows, n_cols).kernel()


def sign_normalize(x):
    for a in x:
        if a != 0:
            return tuple(-v for v in x) if a < 0 else tuple(x)
    return tuple(x)


def solve_integer(a_rows, b):
    """One integer solution of ``A x = b``, or None when none exists."""
    return IntegerSystem(a_rows, len(a_rows[0]) if a_rows else 0).solve(b)


def clear_denominators(x):
    """``(q, y)``: the lcm ``q`` of the denominators of ``x`` and the integer vector ``q x``."""
    if all(type(a) is int for a in x):
        return 1, list(x)
    x = [Fraction(a) for a in x]
    q = lcm(*(a.denominator for a in x))
    return q, [a.numerator * (q // a.denominator) for a in x]


def clear_pivot_denominators(pivot_rows, b):
    """``(scale, scale * b)``, ``scale`` the lcm of b's denominators times the product of the pivots.

    Forward substitution on the echelon rows divides by each pivot once, so
    ``b`` is in the rows' rational span iff :func:`echelon_coefficients`
    finds integer coefficients for ``scale * b``.
    """
    q, y = clear_denominators(b)
    p = prod(row[col] for col, row in pivot_rows)
    return q * p, [p * a for a in y]


def solve_rational(a_rows, b):
    """One rational solution of ``A x = b`` as a tuple, or None if there is none.

    ``A`` is an integer matrix (TypeError otherwise) and need not be square.
    Runs on the integer echelon of :class:`IntegerSystem`: the right-hand side
    is scaled by :func:`clear_pivot_denominators`, solved over Z and divided back.
    """
    a_rows = [[index(e) for e in row] for row in a_rows]
    system = IntegerSystem(a_rows, len(a_rows[0]) if a_rows else 0)
    scale, y = clear_pivot_denominators(system.pivot_rows(), b)
    x = system.solve(y)
    return None if x is None else tuple(normalize_number(Fraction(c, scale)) for c in x)


def signature(gram):
    """Inertia ``(pos, neg, null)`` of a symmetric rational matrix, in integers.

    Splits off one ``x`` of nonzero square ``s`` at a time (``e_i``, or
    ``e_i + e_j`` when the diagonal vanishes).  With ``w = G x``, the vectors
    ``s e_l - w_l x`` (l != i) span x-perp with Gram ``s (s G_lm - w_l w_m)``;
    the loop keeps ``sign(s) (s G_lm - w_l w_m)`` over its content, whose
    entries stay as small as fraction-free minors.  A zero Gram is all null.
    """
    n = len(gram)
    _, flat = clear_denominators([e for row in gram for e in row])
    g = [flat[i * n:(i + 1) * n] for i in range(n)]
    signs = []
    while g:
        k = len(g)
        i = next((i for i in range(k) if g[i][i]), None)
        if i is not None:
            s, w = g[i][i], g[i]
        else:
            pair = next(((i, j) for i in range(k) for j in range(i + 1, k) if g[i][j]), None)
            if pair is None:
                break
            i, j = pair
            s, w = 2 * g[i][j], [a + b for a, b in zip(g[i], g[j])]
        signs.append(1 if s > 0 else -1)
        rest = [l for l in range(k) if l != i]
        g = [[signs[-1] * (s * g[l][m] - w[l] * w[m]) for m in rest] for l in rest]
        c = content(e for row in g for e in row) or 1
        g = [[e // c for e in row] for row in g]
    return (signs.count(1), signs.count(-1), n - len(signs))


def ldlt(gram):
    """Fraction-free LDL^T of a positive definite symmetric integer matrix.

    Symmetric Bareiss elimination (*Math. Comp.* 22, 1968) without pivoting,
    every division exact.  Returns ``(minors, upper)``: ``minors[i]`` is the
    leading principal minor of size i + 1, and ``upper[i]`` is the i-th
    eliminated row, integer, zero left of the diagonal, with
    ``upper[i][i] == minors[i]``.  With ``minors[-1] := 1`` they give

        Q(x) = x^T G x = sum_i (upper[i] . x)^2 / (minors[i-1] * minors[i]),

    i.e. the LDL^T factors ``d_i = minors[i] / minors[i-1]`` and
    ``L[j][i] = upper[i][j] / minors[i]``: integer numerators over one
    denominator per level.  Raises ValueError when a leading minor is not
    positive, which happens exactly when G is not positive definite, and
    TypeError for a non-integer entry.
    """
    n = len(gram)
    a = [[index(e) for e in row] for row in gram]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        row_k = a[k]
        # Only the upper triangle is updated: the trailing block stays
        # symmetric, so row_k[i] stands for the eliminated column entry.
        for i in range(k + 1, n):
            row_i, f = a[i], row_k[i]
            for j in range(i, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
        prev = pivot
    upper = tuple(tuple(a[i][j] if j >= i else 0 for j in range(n)) for i in range(n))
    return tuple(a[i][i] for i in range(n)), upper


class QuadraticForm(_Record):
    """A positive definite integer quadratic form ``Q(x) = x^T G x``, factored once.

    Holds the fraction-free factors of :func:`ldlt`; the short/coset vector
    descent reads them, so nothing refactors ``G``.
    Raises ValueError unless ``G`` is positive definite.
    """

    __slots__ = ("minors", "upper")

    def __init__(self, gram):
        super().__init__(*ldlt(gram))

    @property
    def rank(self):
        return len(self.minors)


def _descent(form, bound, images=None):
    """Fincke-Pohst descent over ``{x : Q(x) <= bound}`` on integers, one recursive walk.

    Level i contributes ``w_i^2 / (minors[i-1] minors[i])`` with
    ``w_i = upper[i] . x``; every level is rescaled to one common
    denominator ``scale``, so the budget, the terms and the coordinate ranges
    are integers.  Coordinates are fixed from the last to the first, each in
    increasing order; as ``Q(x) = Q(-x)``, only the nonzero x with last nonzero coordinate
    positive are walked.  Returns that half as a list of ``(y, Q(x))``, ``Q(x)`` an ``int``:
    ``y = tuple(x)``, or ``x . images`` for ``images`` (one row per coordinate), carried down
    the levels by one row add per node as the partial ``w`` are.  ``bound`` is floored.
    """
    n = form.rank
    bound = floor(bound)
    walked = []
    if bound < 0 or n == 0:
        return walked
    minors, upper = form.minors, form.upper
    dens = [a * b for a, b in zip((1,) + minors, minors)]
    scale = lcm(*dens)
    weight = [scale // d for d in dens]
    cols = [[upper[k][i] for k in range(i)] for i in range(n)]
    total = bound * scale
    x = [0] * n

    def descend(i, remaining, half, shift, image):
        # shift[k] (k <= i): w_k without minors[k] * x_k, and image: x . images, both over
        # the coordinates above i; x_i adds x_i cols[i] and x_i images[i] to them.  half:
        # every coordinate above i is 0 (so is shift[i]), and x_i > 0 here.
        t, st, wt, col = shift[i], minors[i], weight[i], cols[i]
        row = None if images is None else images[i]
        w_max = isqrt(remaining // wt)
        # Exactly the x_i with |st * x_i + t| <= w_max, i.e. wt * w^2 <= remaining.
        for xi in range(1 if half else -((w_max + t) // st), (w_max - t) // st + 1):
            w = st * xi + t
            rest = remaining - wt * w * w
            x[i] = xi
            y = image if row is None or not xi else tuple(map(add, image, map(mul, row, repeat(xi))))
            if i:
                descend(i - 1, rest, False,
                        tuple(map(add, shift, map(mul, col, repeat(xi)))) if xi else shift, y)
                continue
            value, rem = divmod(total - rest, scale)
            if rem:
                raise InvariantError(f"Q{tuple(x)} = {total - rest}/{scale} is not an integer")
            walked.append((tuple(x) if row is None else y, value))
        x[i] = 0
        if half and i:
            descend(i - 1, remaining, True, shift, image)

    descend(n - 1, total, True, (0,) * n, None if images is None else (0,) * len(images[0]))
    return walked


def short_vectors(form, bound):
    """All integer x with ``0 < Q(x) <= bound`` for a :class:`QuadraticForm`.

    Yields ``(x, Q(x))`` pairs, ``Q(x)`` an ``int``, each x followed by -x (see
    :func:`_descent`); the zero vector does not appear.  No basis reduction,
    which is unnecessary at the ranks this library targets.
    """
    for x, value in _descent(form, bound):
        yield x, value
        yield tuple(map(neg, x)), value


def coset_vectors(form, bound, images=None):
    """All integer x with ``Q(x) <= bound`` for a :class:`QuadraticForm`, the origin included.

    ``bound`` may be rational.  Yields ``(y, Q(x))`` pairs, ``Q(x)`` an ``int``:
    the origin first, then each walked y followed by -y (see :func:`_descent`).
    ``y`` is x (the default: the coset search itself), or ``x . images`` for n rows of one width,
    carried by the descent with no dot product per vector (as :func:`enumerate_walls` uses it).
    """
    if floor(bound) >= 0:
        yield (0,) * (len(images[0]) if images else form.rank), 0
    for y, value in _descent(form, bound, images):
        yield y, value
        yield tuple(map(neg, y)), value
