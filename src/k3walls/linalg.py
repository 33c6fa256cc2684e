"""Exact linear algebra over the integers and rationals.

Everything in this module works on plain lists/tuples of ``int`` and
``fractions.Fraction``; there is no floating point anywhere.  Matrices are
lists of row lists.  These are the primitives the lattice layer is built on:
integer systems reduced once for their saturated kernel and integer
solutions, rational Gaussian elimination, the inertia (signature) of a
symmetric matrix, and :class:`QuadraticForm`, a positive definite integer
form factored once by fraction-free LDL^T and shared by the definiteness
test, centre solving and the short/coset vector descent, which runs on
integers.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def vec_is_integral(x):
    return all(a == int(a) for a in x)


def normalize_number(q):
    """Return an ``int`` when ``q`` is an integer-valued rational, else ``q``."""
    if type(q) is int:
        return q
    if isinstance(q, Fraction) and q.denominator == 1:
        return int(q)
    return q


def normalize_vector(x):
    return tuple(a if type(a) is int else normalize_number(Fraction(a)) for a in x)


def content(x):
    """gcd of the entries of an integer vector (0 for the zero vector)."""
    g = 0
    for a in x:
        g = gcd(g, int(a))
    return g


def mat_mul_vec(m, x):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in m)


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


class IntegerSystem:
    """The integer system ``A x = b`` in ``n_cols`` unknowns for a fixed ``A``, reduced once.

    Unimodular row operations on ``A^T``, mirrored on an identity matrix,
    bring it to echelon form.  The zero rows give a basis of the integer
    kernel, which generates a saturated (primitive) sublattice of Z^n; the
    pivot rows give one integer solution per right-hand side by forward
    substitution with divisibility checks.
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
        self.echelon = t
        self.transform = u
        self.pivot_cols = tuple(pivot_cols)

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
        return tuple((col, tuple(self.echelon[r])) for r, col in enumerate(self.pivot_cols))

    def solve(self, b):
        """One integer solution of ``A x = b``, or None when none exists."""
        z = echelon_coefficients(zip(self.pivot_cols, self.echelon), b)
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


def solve_rational(a_rows, b):
    """Solve ``A x = b`` exactly over Q; returns a tuple or None if unsolvable.

    ``A`` need not be square; when underdetermined one solution is returned
    (free variables set to 0).
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    mat = [[Fraction(a_rows[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    piv_cols = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        p = mat[row][col]
        mat[row] = [v / p for v in mat[row]]
        for r in range(m):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[row])]
        piv_cols.append(col)
        row += 1
    for r in range(row, m):
        if mat[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(piv_cols):
        x[col] = mat[r][n]
    return normalize_vector(x)


def signature(gram):
    """Inertia ``(pos, neg, null)`` of a symmetric rational matrix.

    Rational symmetric Gaussian reduction; a zero diagonal with a nonzero
    off-diagonal entry is repaired by the standard row+column addition trick,
    which is valid in characteristic 0.
    """
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = null = 0
    for k in range(n):
        sel = None
        for i in range(k, n):
            if a[i][i] != 0:
                sel = i
                break
        if sel is None:
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                null += n - k
                break
            i, j = off
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            sel = i
        if sel != k:
            a[k], a[sel] = a[sel], a[k]
            for r in range(n):
                a[r][k], a[r][sel] = a[r][sel], a[r][k]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / p
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
        # The matching column operations only clear the k-th row tail.
        for i in range(k + 1, n):
            a[k][i] = Fraction(0)
            a[i][k] = Fraction(0)
    return (pos, neg, null)


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


class QuadraticForm:
    """A positive definite integer quadratic form ``Q(x) = x^T G x``, factored once.

    Holds the fraction-free factors of :func:`ldlt`; centre solving and the
    short/coset vector descent all read them, so nothing refactors ``G``.
    Raises ValueError unless ``G`` is positive definite.
    """

    __slots__ = ("minors", "upper")

    def __init__(self, gram):
        self.minors, self.upper = ldlt(gram)

    @property
    def rank(self):
        return len(self.minors)

    def solve(self, b):
        """Exact ``G^{-1} b`` for a rational ``b``, by forward and back substitution.

        The forward pass is Bareiss elimination of the extra column ``b``;
        the back pass solves for ``det(G) * x``, an integer vector (Cramer),
        so every division is exact and one Fraction is built per entry.
        """
        n = self.rank
        minors, upper = self.minors, self.upper
        q = lcm(*(Fraction(c).denominator for c in b))
        y = [int(Fraction(c) * q) for c in b]
        prev = 1
        for k in range(n):
            pivot, row, yk = minors[k], upper[k], y[k]
            for i in range(k + 1, n):
                y[i] = (pivot * y[i] - row[i] * yk) // prev
            prev = pivot
        det = prev
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = upper[i]
            x[i] = (det * y[i] - sum(row[j] * x[j] for j in range(i + 1, n))) // minors[i]
        return tuple(normalize_number(Fraction(v, q * det)) for v in x)


def _coset_descent(form, center, bound):
    """Fincke-Pohst descent over ``{x : Q(x + center) <= bound}`` on integers.

    With ``center = p / q`` and ``w_i = q * upper[i] . (x + center)``, level i
    contributes ``w_i^2 / (q^2 minors[i-1] minors[i])``; every level is
    rescaled to one common denominator ``scale``, so the budget, the terms
    and the coordinate ranges are integers.  Coordinates are fixed from the
    last to the first, each in increasing order; one Fraction is built per
    yielded vector, for its value.
    """
    n = form.rank
    bound = Fraction(bound)
    if bound < 0:
        return
    if n == 0:
        yield (), Fraction(0)
        return
    minors, upper = form.minors, form.upper
    center = [Fraction(c) for c in center]
    q = lcm(*(c.denominator for c in center))
    p = [c.numerator * (q // c.denominator) for c in center]
    dens = [q * q * a * b for a, b in zip((1,) + minors, minors)]
    scale = bound.denominator * lcm(*dens)
    weight = [scale // d for d in dens]
    step = [q * m for m in minors]
    # shift[k] is w_k without its own term q * minors[k] * x_k; fixing x_i
    # (i > k) adds q * upper[k][i] * x_i to it.
    shift = [sum(upper[k][j] * p[j] for j in range(k, n)) for k in range(n)]
    cols = [[q * upper[k][i] for k in range(i)] for i in range(n)]
    total = bound.numerator * (scale // bound.denominator)
    x = [0] * n

    def descend(i, remaining):
        t, st, wt, col = shift[i], step[i], weight[i], cols[i]
        w_max = isqrt(remaining // wt)
        # Exactly the x_i with |st * x_i + t| <= w_max, i.e. wt * w^2 <= remaining.
        for xi in range(-((w_max + t) // st), (w_max - t) // st + 1):
            w = st * xi + t
            rest = remaining - wt * w * w
            x[i] = xi
            if i == 0:
                yield tuple(x), Fraction(total - rest, scale)
            else:
                for k in range(i):
                    shift[k] += col[k] * xi
                yield from descend(i - 1, rest)
                for k in range(i):
                    shift[k] -= col[k] * xi
        x[i] = 0

    yield from descend(n - 1, total)


def short_vectors(form, bound):
    """All integer x with ``0 < Q(x) <= bound`` for a :class:`QuadraticForm`.

    Yields ``(x, Q(x))`` pairs; both x and -x appear, the zero vector does
    not.  This is the centre-0 coset of :func:`coset_vectors` without the
    origin; no basis reduction, which is unnecessary at the ranks this
    library targets.
    """
    for x, value in _coset_descent(form, (0,) * form.rank, bound):
        if value:
            yield x, value


def coset_vectors(form, center, bound):
    """All integer x with ``Q(x + center) <= bound`` for a :class:`QuadraticForm`.

    ``center`` and ``bound`` may be rational.  Yields ``(x, value)`` pairs,
    ``value = Q(x + center)`` as a Fraction, including, when the centre is
    integral, the point ``x = -center``.  The descent runs on integers over
    the form's stored factors.
    """
    yield from _coset_descent(form, center, bound)
