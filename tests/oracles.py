"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own algorithms: signatures
come from characteristic-polynomial sign counts, enumeration from plain box
searches with ellipsoid coordinate bounds, saturation indices from a small
Smith-form routine.  Keep it dumb; that's the point.  The exceptions are
:func:`per_rank_walls`, the wall search the library replaced, kept as the
reference its single descent must reproduce, :func:`coset_descent`, the
rational-centre descent that search ran, :func:`dumps_report_stdlib`,
the standard-library encoder its report writer replaced,
:func:`dataclass_twin`, the frozen dataclass its record classes replaced,
:func:`h_perp_identities`, the general H-perp check the model
instances replaced, :func:`stratum_identities`, the Mukai Gram they
read their stratum identities from before, :func:`phi_image_facts`,
the sublattice their type facts came from before, and
:func:`dot_product_walls`, :func:`dot_product_images` and
:func:`scaled_pairing_position`, the wall search and chamber signs as they
ran before the descent carried each wall's normal and ``locate`` read it, and
:func:`dot_product_psi_sets`, the Psi-set builder as it checked each root by
Picard-length dot products before the checks moved to root coordinates, and
:func:`support_gram`, the Mukai Gram as it summed every class over its
nonzero coordinates before each class was paired at its density, and
:func:`gram_validate_stratum`, the stratum validation as it read one Gram of
``(u_0, ..., u_n, v, H^)`` before the classes' Gram was shared with the
classification.
"""

import dataclasses
import functools
import itertools
import json
from fractions import Fraction
from math import isqrt, lcm

from k3walls import lattice as lat
from k3walls import linalg
from k3walls import mukai as mk
from k3walls import roots
from k3walls.errors import InvariantError
from k3walls.walls import ChamberPosition, WallVector


def det_fraction(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def charpoly(gram):
    """Coefficients of det(xI - G), low degree first, by interpolation."""
    n = len(gram)
    points = list(range(n + 1))
    values = []
    for k in points:
        shifted = [[Fraction(k) * (i == j) - Fraction(gram[i][j]) for j in range(n)]
                   for i in range(n)]
        values.append(det_fraction(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for k, yk in zip(points, values):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for other in points:
            if other == k:
                continue
            basis = [Fraction(0)] + basis[:]
            for d in range(len(basis) - 1):
                basis[d] -= other * basis[d + 1]
            denom *= k - other
        for d in range(len(basis)):
            coeffs[d] += yk * basis[d] / denom
    return coeffs


def signature_by_charpoly(gram):
    """(pos, neg, null) eigenvalue counts via Descartes' rule of signs.

    Valid because the characteristic polynomial of a symmetric matrix has
    only real roots, where Descartes' bound is attained exactly.
    """
    coeffs = charpoly(gram)
    null = 0
    while null < len(coeffs) and coeffs[null] == 0:
        null += 1
    reduced = [c for c in coeffs[null:] if True]

    def sign_changes(seq):
        signs = [1 if c > 0 else -1 for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = sign_changes(reduced)
    neg = sign_changes([c if (k % 2 == 0) else -c for k, c in enumerate(reduced)])
    return pos, neg, null


def invert_rational(a_rows):
    """Exact inverse of a nonsingular rational matrix by Gauss-Jordan, or None if singular."""
    n = len(a_rows)
    mat = [[Fraction(a_rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        sel = None
        for r in range(col, n):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            return None
        mat[col], mat[sel] = mat[sel], mat[col]
        p = mat[col][col]
        mat[col] = [v / p for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    return [row[n:] for row in mat]


def solve_rational(a_rows, b):
    """One solution of ``A x = b`` over Q by Gauss-Jordan (free variables 0), or None."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    mat = [[Fraction(a_rows[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    piv_cols = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if mat[r][col] != 0), None)
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
    if any(mat[r][n] != 0 for r in range(row, m)):
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(piv_cols):
        x[col] = mat[r][n]
    return tuple(x)


def ellipsoid_bounds(gram_pd, radius):
    """Per-coordinate bounds |x_i| <= sqrt(radius * (G^-1)_ii) for x^T G x <= radius."""
    inv = invert_rational(gram_pd)
    bounds = []
    for i in range(len(gram_pd)):
        q = Fraction(radius) * inv[i][i]
        bounds.append(isqrt(q.numerator * q.denominator) // q.denominator)
    return bounds


def span_membership(basis, x):
    """``(in_z, in_q)``: whether ``x`` is an integer / rational combination of ``basis``.

    Cramer's rule on the first nonsingular k x k minor (rows taken in
    lexicographic order of their coordinate indices) gives the only possible
    coefficients; ``x`` is in the rational span iff they reproduce every
    coordinate, and in the lattice iff they are moreover integers.
    """
    x = [Fraction(a) for a in x]
    k = len(basis)
    if k == 0:
        zero = all(a == 0 for a in x)
        return zero, zero
    for rows in itertools.combinations(range(len(x)), k):
        minor = [[basis[c][i] for c in range(k)] for i in rows]
        det = det_fraction(minor)
        if det != 0:
            break
    else:
        raise ValueError("basis is linearly dependent")
    coeffs = []
    for c in range(k):
        replaced = [[x[i] if cc == c else basis[cc][i] for cc in range(k)] for i in rows]
        coeffs.append(det_fraction(replaced) / det)
    in_q = all(sum(coeffs[c] * basis[c][i] for c in range(k)) == x[i] for i in range(len(x)))
    return in_q and all(c.denominator == 1 for c in coeffs), in_q


def box_norm_vectors(sub, norm_min, norm_max):
    """Brute-force counterpart of enumerate_norm_vectors on a definite sublattice."""
    k = sub.rank
    if k == 0:
        return [sub.ambient.zero()] if norm_min <= 0 <= norm_max else []
    gram = sub.restricted_gram()
    flip = 1
    if gram[0][0] < 0 or (k > 1 and any(gram[i][i] < 0 for i in range(k))):
        flip = -1
    pd = [[flip * e for e in row] for row in gram]
    lo, hi = sorted((flip * norm_min, flip * norm_max))
    found = set()
    if norm_min <= 0 <= norm_max:
        found.add(sub.ambient.zero())
    if hi > 0:
        bounds = ellipsoid_bounds(pd, hi)
        for coeffs in itertools.product(*[range(-b, b + 1) for b in bounds]):
            if all(c == 0 for c in coeffs):
                continue
            value = sum(coeffs[i] * pd[i][j] * coeffs[j]
                        for i in range(k) for j in range(k))
            if lo <= value <= hi:
                amb = sub.from_coefficients(coeffs)
                for a in amb:
                    if a != 0:
                        if a < 0:
                            amb = tuple(-x for x in amb)
                        break
                found.add(amb)
    return sorted(found)


def dumps_report_stdlib(report):
    """Report bytes from the standard library: ``pipeline.dumps_report``'s contract."""
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


@functools.cache
def dataclass_twin(cls):
    """A frozen dataclass with the fields of the record class ``cls``, in order, and the
    defaults of its ``_defaults``."""
    defaults = cls._defaults
    return dataclasses.make_dataclass(
        cls.__name__, [(name, object, dataclasses.field(default=defaults[name]))
                       if name in defaults else name for name in cls.__slots__], frozen=True)


def mukai_pairing(gram, x, y):
    """Mukai pairing of ``(r, c1, s)`` triples, spelled out on the Gram matrix."""
    (rx, cx, sx), (ry, cy, sy) = x, y
    n = len(gram)
    return (sum(cx[i] * gram[i][j] * cy[j] for i in range(n) for j in range(n))
            - rx * sy - sx * ry)


def root_norm(entries, x):
    """``x^T C x`` for the Cartan matrix with rows ``entries``, in root coordinates."""
    n = len(x)
    return sum(x[i] * entries[i][j] * x[j] for i in range(n) for j in range(n))


@functools.lru_cache(maxsize=None)
def box_positive_roots(entries):
    """All b >= 0 with b^T C b == 2 by exhaustive box search.

    ``entries`` is a tuple of row tuples.  The answer is cached per matrix:
    the E8 box alone takes seconds, and several tests ask for it.
    """
    bounds = ellipsoid_bounds([list(r) for r in entries], 2)
    roots = set()
    for b in itertools.product(*[range(0, bd + 1) for bd in bounds]):
        if all(c == 0 for c in b):
            continue
        if root_norm(entries, b) == 2:
            roots.add(b)
    return frozenset(roots)


def weyl_group_order_bfs(entries):
    """Order of the group generated by the simple reflections, by enumeration.

    The group acts on pairing-value vectors by ``t_j -> t_j - C[j][i] t_i``;
    the vector of all ones is regular, so its orbit is as large as the group.
    """
    n = len(entries)
    start = (1,) * n
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for i in range(n):
                image = tuple(t[j] - entries[j][i] * t[i] for j in range(n))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return len(seen)


def brute_force_walls(p, h, v):
    """Independent wall search over an eta coordinate box.

    D = rk(v) eta - s c1(v) must lie in the negative definite H-perp with
    (D, D) >= -2 rk(v)^2, which bounds D's coordinates through the ellipsoid
    bound on H-perp and hence bounds eta's coordinates.
    """
    r = int(v.r)
    xi = tuple(int(c) for c in v.c1)
    h_perp = lat.orthogonal_complement(p, [h])
    pd = [[-e for e in row] for row in h_perp.restricted_gram()]
    coeff_bounds = ellipsoid_bounds(pd, 2 * r * r) if h_perp.rank else []
    d_bound = [0] * p.rank
    for bnd, w in zip(coeff_bounds, h_perp.basis):
        for i in range(p.rank):
            d_bound[i] += bnd * abs(w[i])
    found = set()
    h_xi = lat.pairing(p, h, xi)
    for s in range(1, r):
        ranges = []
        for i in range(p.rank):
            lo = (-d_bound[i] + s * xi[i] - (r - 1)) // r
            hi = (d_bound[i] + s * xi[i] + (r - 1)) // r
            ranges.append(range(lo, hi + 1))
        for eta in itertools.product(*ranges):
            if r * lat.pairing(p, h, eta) != s * h_xi:
                continue
            eta_sq = lat.pairing(p, eta, eta)
            if (eta_sq + 2) % (2 * s):
                continue
            b = (eta_sq + 2) // (2 * s)
            u = mk.MukaiVector(s, eta, b, p)
            if mk.mukai_square(u) != -2:
                raise AssertionError(f"wall candidate {u!r} has square {mk.mukai_square(u)}")
            if mk.mukai_pairing(v, u) <= 0:
                found.add(u)
    return found


def coset_descent(form, center, bound):
    """Fincke-Pohst descent over ``{x : Q(x + center) <= bound}`` on integers.

    The rational-centre descent the library's ``coset_vectors`` once ran, for
    a :class:`k3walls.linalg.QuadraticForm`; :func:`per_rank_walls` and the
    rational-centre tests use it.

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
    q, p = linalg.clear_denominators(center)
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


def per_rank_walls(p, h, v):
    """The wall search one rank at a time, as :func:`k3walls.walls.enumerate_walls` once ran.

    For each ``s`` in ``1..rk v - 1`` it solves the congruence
    ``D = -s c1(v) (mod rk v)`` on H-perp, takes the exact centre of that coset
    with :func:`solve_rational` and runs one :func:`coset_descent` of
    ``-(D, D) <= 2 rk(v)^2``.  Returns the walls as
    :class:`k3walls.walls.WallVector` in the library's order, so a list
    comparison checks the single-descent search, order and pairings included.
    """
    r = int(v.r)
    xi = tuple(int(c) for c in v.c1)
    a_v = int(v.s)
    xi_sq = lat.pairing(p, xi, xi)
    h_perp = lat.orthogonal_complement(p, [h])
    k = h_perp.rank
    rho = p.rank
    # D = W c over the H-perp basis; "W c = -s xi (mod r)" is one integer
    # system whose kernel is the sublattice {c : W c = 0 (mod r)}.
    w_cols = h_perp.basis
    a_rows = [[w_cols[j][i] for j in range(k)] + [r if t == i else 0 for t in range(rho)]
              for i in range(rho)]
    system = linalg.IntegerSystem(a_rows, k + rho)
    lam_basis = [vec[:k] for vec in system.kernel()]
    if len(lam_basis) != k:
        raise AssertionError(f"congruence sublattice has rank {len(lam_basis)}, expected {k}")
    gw = [[-e for e in row] for row in h_perp.restricted_gram()]
    lam_gw = [[sum(bi[a] * gw[a][b] for a in range(k)) for b in range(k)] for bi in lam_basis]
    gram = [[sum(row[b] * bj[b] for b in range(k)) for bj in lam_basis] for row in lam_gw]
    form = linalg.QuadraticForm(gram)
    results = []
    for s in range(1, r):
        sol = system.solve([-s * x for x in xi])
        if sol is None:
            continue
        c0 = sol[:k]
        lin = [sum(row[b] * c0[b] for b in range(k)) for row in lam_gw]
        const = sum(c0[a] * gw[a][b] * c0[b] for a in range(k) for b in range(k))
        # The centre G^-1 lin solves z lam_basis = c0 (the coset point x = -z
        # is D = 0): a system in the small basis entries, not in the Gram's.
        center = solve_rational([[bj[i] for bj in lam_basis] for i in range(k)], c0)
        floor_const = const - sum(t * l for t, l in zip(center, lin))
        for z, value in coset_descent(form, center, 2 * r * r - floor_const):
            q = value + floor_const
            if q != int(q):
                raise AssertionError(f"-(D, D) = {q} is not an integer")
            c = [a + sum(zj * bj[i] for zj, bj in zip(z, lam_basis)) for i, a in enumerate(c0)]
            d = h_perp.from_coefficients(c)
            if any((e + s * x) % r for e, x in zip(d, xi)):
                raise AssertionError(f"divisor {d} is not congruent to -s c1(v) mod rk v")
            eta = tuple((e + s * x) // r for e, x in zip(d, xi))
            eta_sq = lat.pairing(p, eta, eta)
            if (eta_sq + 2) % (2 * s):
                continue
            b = (eta_sq + 2) // (2 * s)
            pv = lat.pairing(p, xi, eta) - r * b - a_v * s
            if pv <= 0:
                results.append((s, d, b, pv, eta))
    results.sort()
    # Each normal from its definition, D_u = rk v c1(u) - rk u c1(v).
    return [WallVector(mk.MukaiVector(s, eta, b, p), pv,
                       tuple(r * e - s * x for e, x in zip(eta, xi)))
            for s, d, b, pv, eta in results]


def dot_product_images(form, bound, images):
    """``linalg.coset_vectors(form, bound)`` with each x mapped to ``x . images``.

    One dot product per coordinate of the image for every vector, as the wall
    search computed its divisors before the descent carried the images.
    """
    cols = list(zip(*images))
    for x, value in linalg.coset_vectors(form, bound):
        yield tuple(sum(a * b for a, b in zip(x, col)) for col in cols), value


def dot_product_walls(p, h, v):
    """The single-descent wall search as :func:`k3walls.walls.enumerate_walls` once ran it.

    Same lattice of pairs ``(D, s)`` and the same descent, but each vector's
    divisor, ``(D, c1 v)`` and class come from dot products with the reduced
    rows, and each wall is built by the normalising constructors, its normal
    given as the divisor ``D``.
    """
    r = int(v.r)
    xi = tuple(int(c) for c in v.c1)
    rho = p.rank
    g_xi = [sum(g * c for g, c in zip(row, xi)) for row in p.gram]
    xi_sq = sum(a * b for a, b in zip(xi, g_xi))
    g_h = [sum(g * c for g, c in zip(row, h)) for row in p.gram]
    lam = linalg.integer_kernel(
        [[r * e for e in g_h] + [-sum(a * b for a, b in zip(xi, g_h))]], rho + 1)
    cols = [[r * x[i] - x[rho] * xi[i] for x in lam] for i in range(rho)]
    cols.append([x[rho] for x in lam])
    *rows, last = [row for _, row in linalg.IntegerSystem(cols, len(lam)).pivot_rows()]
    t = abs(last[rho])
    gram = [[-lat.pairing(p, a[:rho], b[:rho]) for b in rows] for a in rows]
    form = linalg.QuadraticForm(gram)
    if r == 1:
        return []
    d_cols = [[row[i] for row in rows] for i in range(rho)]
    xi_col = [lat.pairing(p, row[:rho], xi) for row in rows]
    s_col = [row[rho] for row in rows]
    results = []
    for z, value in linalg.coset_vectors(form, 2 * r * r):
        d = tuple(sum(a * b for a, b in zip(z, col)) for col in d_cols)
        d_xi, c = (sum(a * b for a, b in zip(z, col)) for col in (xi_col, s_col))
        for s in range(c % t or t, r, t):
            num = -value + 2 * s * d_xi + s * s * xi_sq
            if num % (r * r) or (d_xi + s * xi_sq) % r:
                raise AssertionError(f"divisor {d} is not congruent to -s c1(v) mod rk v")
            eta_sq = num // (r * r)
            if (eta_sq + 2) % (2 * s):
                continue
            b = (eta_sq + 2) // (2 * s)
            pv = (d_xi + s * xi_sq) // r - r * b - int(v.s) * s
            if pv <= 0:
                results.append((s, d, b, pv))
    return [WallVector(mk.MukaiVector(s, tuple((e + s * x) // r for e, x in zip(d, xi)), b, p),
                       pv, d) for s, d, b, pv in sorted(results)]


def scaled_pairing_position(alpha, walls, v, singularity=None):
    """:func:`k3walls.walls.locate` as it ran before it read the wall normals.

    Every wall's sign from :func:`k3walls.mukai.scaled_pairings` of the walls
    with ``v + alpha``; the Weyl word from the scaled pairings of ``alpha``
    with the report's retained classes.
    """
    a = alpha.alpha if isinstance(alpha, mk.TwistParameter) else alpha
    _, values = mk.scaled_pairings([w.u for w in walls], v + a)
    signs = tuple((val > 0) - (val < 0) for val in values)
    position = (tuple(walls), signs, tuple(k for k, sign in enumerate(signs) if not sign))
    if singularity is None:
        return ChamberPosition(*position)
    q, values = mk.scaled_pairings(singularity.retained, a)
    return ChamberPosition(*position, *roots.reduce_to_fundamental(
        singularity.finite, [Fraction(n, q) for n in values]))


def dot_product_psi_sets(report):
    """:meth:`k3walls.strata.SingularityReport.psi_sets` as it ran before its
    checks moved to root coordinates.

    Each ``u`` of the root tree is its parent plus one retained class and
    carries ``G c1(u)`` built by the same additions; ``<u, u>`` of every
    element and of every ``v - u`` is one dot product of Picard length, and
    each must be -2 with ``0 < rk u < rk v``.  Returns the two lists.
    """
    v, retained = report.data.v, report.retained
    for u in retained:
        v._check_ambient(u)
    rows, lattice = v.lattice.gram, v.lattice

    def image(c1):
        return [sum(c * e for c, e in zip(c1, col)) for col in zip(*rows)]

    integral = all(type(x) is int for u in (v, *retained) for x in (u.r, u.s, *u.c1))
    new = mk.MukaiVector._from_fields if integral else mk.MukaiVector
    simple = [(u.r, u.c1, u.s, image(u.c1)) for u in retained]
    vr, vc1, vs, vg = v.r, v.c1, v.s, image(v.c1)
    built, checked = [], []
    for _, parent, i in roots.root_tree(report.finite):
        r, c1, s, g = simple[i]
        if parent is not None:
            pr, pc1, ps, pg = built[parent]
            r, c1, s = pr + r, tuple(a + b for a, b in zip(pc1, c1)), ps + s
            g = [a + b for a, b in zip(pg, g)]
        built.append((r, c1, s, g))
        wc1 = tuple(a - b for a, b in zip(vc1, c1))
        checked.append((r, c1, s, sum(a * b for a, b in zip(c1, g))))
        checked.append((vr - r, wc1, vs - s,
                        sum(a * (b - c) for a, b, c in zip(wc1, vg, g))))
    for r, c1, s, cgc in checked:
        square = cgc - 2 * r * s
        if square != -2 or not 0 < r < vr:
            raise InvariantError(f"Psi element (r={r}, c1={list(c1)}, s={s}) has <u, u> = "
                                 f"{square}; expected -2 and 0 < rk u < {vr}")
    out = [new(r, c1, s, lattice) for r, c1, s, _ in checked]
    return out[::2], out[1::2]


def support_gram(xs):
    """:func:`k3walls.mukai.gram` as it ran before each class was paired at its density.

    One ``G c1(y)`` per ``y`` from the Gram rows at its nonzero coordinates, each
    pairing summed over the nonzero coordinates of ``c1(x)`` and normalized, one
    triangle computed and mirrored.
    """
    for z in xs:
        xs[0]._check_ambient(z)
    rows = xs[0].lattice.gram if xs else ()
    support = [[(k, c) for k, c in enumerate(x.c1) if c] for x in xs]
    images = []
    for sup in support:
        image = [0] * len(rows)
        for k, c in sup:
            image = [a + c * e for a, e in zip(image, rows[k])]
        images.append(image)
    out = [[0] * len(xs) for _ in xs]
    for i, (x, sup) in enumerate(zip(xs, support)):
        for j in range(i, len(xs)):
            y, gy = xs[j], images[j]
            out[i][j] = out[j][i] = linalg.normalize_number(
                sum([c * gy[k] for k, c in sup]) - x.r * y.s - x.s * y.r)
    return out


def gram_validate_stratum(data):
    """:func:`k3walls.strata.validate_stratum` as it ran on one Gram of ``(*u, v, H^)``.

    ``H^ = delta(H) = (0, H, (H, c1 v) / rk v)`` is built by hand, and every pairing
    of the ``(r, c1, s)`` triples is spelled out as ``c1(x) . G c1(y) - r s' - s r'``
    with one ``G c1(y)`` per class, then normalized.  Returns the violations in the
    library's order and wording.
    """
    v, vecs, mults = data.v, data.vectors, data.multiplicities
    if not vecs:
        return ["stratum list is empty"]
    if not v.r > 0:
        return [f"v has rank {v.r}, expected > 0"]
    violations = []
    if len(set(vecs)) != len(vecs):
        violations.append("stratum vectors are not pairwise distinct")
    violations += [f"multiplicity {k} is not positive" for k, m in enumerate(mults) if m <= 0]
    columns = list(zip(*data.lattice.gram))

    def image(c1):
        return [sum(c * e for c, e in zip(c1, col)) for col in columns]

    h = [x if type(x) is int else Fraction(x) for x in data.polarization]
    h_hat = (0, h, sum(a * b for a, b in zip(h, image(v.c1))) / Fraction(v.r))
    triples = [(x.r, x.c1, x.s) for x in (*vecs, v)] + [h_hat]
    images = [image(c1) for _, c1, _ in triples]
    g = [[linalg.normalize_number(sum(a * b for a, b in zip(cx, gy)) - rx * sy - sx * ry)
          for (ry, _, sy), gy in zip(triples, images)] for rx, cx, sx in triples]
    for k, u in enumerate(vecs):
        if not all(Fraction(c).denominator == 1 for c in (u.r, u.s, *u.c1)):
            violations.append(f"stratum vector {k} is not integral")
        if not u.r > 0:
            violations.append(f"stratum vector {k} has rank {u.r}, expected > 0")
        if g[k][k] != -2:
            violations.append(f"<u_{k}, u_{k}> = {g[k][k]}, expected -2")
        if g[-2][k] != 0:
            violations.append(f"<v, u_{k}> = {g[-2][k]}, expected 0")
    violations += [f"<H^, u_{k}> = {g[-1][k]}, expected 0"
                   for k in range(len(vecs)) if g[-1][k] != 0]
    violations += [f"<u_{i}, u_{j}> = {g[i][j]}, expected >= 0"
                   for i, j in itertools.combinations(range(len(vecs)), 2) if g[i][j] < 0]
    total = (sum(m * u.r for u, m in data.strata),
             tuple(sum(m * u.c1[i] for u, m in data.strata) for i in range(len(v.c1))),
             sum(m * u.s for u, m in data.strata))
    if total != (v.r, v.c1, v.s):
        violations.append("sum of a_i u_i differs from v")
    return violations


def h_perp_identities(lattice, h):
    """The three H-perp identities of a model instance, checked from scratch.

    This is how :func:`k3walls.families.generate_example` checked them on
    every instance: the saturated kernel of ``(G h)^T``, mutual membership
    with the span of the differences ``e_i - e_{i+1}``, the definiteness of
    the restricted form and its (-2)-vectors.  Returns the three booleans
    under the names of the instance's ``verification`` keys.
    """
    h_perp = lat.orthogonal_complement(lattice, [h])
    diffs = [linalg.vec_sub(lattice.basis_vector(i), lattice.basis_vector(i + 1))
             for i in range(lattice.rank - 1)]
    diff_sub = lat.Sublattice(lattice, diffs)
    negative = lat.is_negative_definite(h_perp)
    return {
        "h_perp_span": (h_perp.rank == len(diffs)
                        and all(diff_sub.contains(b) for b in h_perp.basis)
                        and all(h_perp.contains(d) for d in diffs)),
        "h_perp_negative_definite": negative,
        "h_perp_no_minus_two": negative and lat.enumerate_norm_vectors(h_perp, -2, -2) == [],
    }


def stratum_identities(instance):
    """The four stratum identities of a model instance, from one Mukai Gram.

    This is how :func:`k3walls.families.generate_example` checked them on
    every instance: one ``mukai.gram`` of ``(v_0, ..., v_n, v, H^)`` with
    ``H^ = delta(H)``, ``v`` and ``H^`` last.  Returns the four booleans under
    the names of the instance's ``verification`` keys.
    """
    n_nodes = len(instance.v_list)
    g = mk.gram((*instance.v_list, instance.v, mk.delta_map(instance.v, instance.polarization)))
    return {
        "stratum_gram": [row[:n_nodes] for row in g[:n_nodes]]
        == [[-e for e in row] for row in instance.affine_matrix.entries],
        "v_orthogonal": not any(g[-2][:n_nodes]),
        "h_hat_orthogonal": not any(g[-1][:n_nodes]),
        "v_isotropic": g[-2][-2] == 0,
    }


def phi_image_facts(matrix, n):
    """``(saturated, definite, no_norm_two, gram)`` of the phi image of a type.

    This is how :func:`k3walls.families._type_data` computed them: a
    ``Sublattice`` spanned by the differences ``e_i - e_{i+1}`` (i < n) in the
    lattice with Gram ``matrix.entries``; saturated when its echelon has n
    pivots +-1, definite when its restricted Gram is positive definite, and
    its norm-2 vectors enumerated.  ``gram`` is the restricted Gram.
    """
    host = lat.PicardLattice(matrix.entries)
    phi = lat.Sublattice(host, [linalg.vec_sub(host.basis_vector(i), host.basis_vector(i + 1))
                                for i in range(n)])
    definite = phi.sign == 1
    return (phi.rank == n and all(abs(row[col]) == 1 for col, row in phi.echelon), definite,
            definite and lat.enumerate_norm_vectors(phi, 2, 2) == [], phi.restricted_gram())


def smith_invariants(rows):
    """Elementary divisors of an integer matrix (nonzero ones, in order)."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return []
    rows_n, cols_n = len(m), len(m[0])
    invariants = []
    top = 0
    while top < min(rows_n, cols_n):
        pivot = None
        for i in range(top, rows_n):
            for j in range(top, cols_n):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        dirty = False
        for i in range(top + 1, rows_n):
            q = m[i][top] // m[top][top]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            if m[i][top] != 0:
                dirty = True
        for j in range(top + 1, cols_n):
            q = m[top][j] // m[top][top]
            if q:
                for row in m:
                    row[j] -= q * row[top]
            if m[top][j] != 0:
                dirty = True
        if dirty:
            continue
        invariants.append(abs(m[top][top]))
        top += 1
    return invariants
