"""Wall enumeration, chamber location, reflections, wall-crossing.

For a primitive isotropic Mukai vector ``v`` of positive rank over a Picard
lattice of signature (1, rank-1) and a polarization ``H`` of positive square,
the wall vectors are the integral classes ``u`` with

    <u, u> = -2,   0 < rk u < rk v,   <H^, u> = 0,   <v, u> <= 0,

a finite set.  Walls ``W_u`` are the loci ``<v + alpha, u> = 0`` in the space
of twist parameters; the chambers of the complement index the distinct
numerical stability notions.
"""

from fractions import Fraction
from operator import mul

from . import lattice as lat
from . import linalg
from . import mukai as mk
from . import roots
from .errors import (CapExceeded, InvalidMukaiVector, InvariantError, NonIsotropicV,
                     NonPositivePolarization, NotMinusTwo, RankZeroImage,
                     UOnUPrime, WrongSignature, _Record)
from .strata import check_node

#: Largest ``rk v`` that :func:`enumerate_walls` searches.  Its one descent
#: did not grow with rk v where measured (2-vCPU VM, CPython 3.11: D~18 takes
#: 0.03 s at rk v = 9,996 and at 99,994), but nothing bounds its node
#: count in rk v, and each divisor tries up to gcd(rk v, content c1(v)) ranks,
#: so the cap stays.  The sweep's largest rk v is 102.
WALL_RANK_CAP = 10 ** 4


class WallVector(_Record):
    """A (-2)-class cutting a wall for the active ``(v, H)`` pair: the search's integer ``<v, u>``
    and ``normal`` ``D_u = rk v c1(u) - rk u c1(v)`` in H-perp.  The wall is the hyperplane
    ``(D', D_u) + rk v <v, u> = 0`` of twists ``delta(D')`` (see :func:`locate`)."""

    __slots__ = ("u", "pairing_with_v", "normal")


class ChamberPosition(_Record):
    """Signs of ``<v + alpha, u>`` over a wall list.

    ``signs[k]`` is -1/0/+1 for ``walls[k]``; ``on_walls`` holds the indices
    with sign 0.  ``weyl_word`` is filled when a stratum context identifies
    the finite Weyl geometry (see :func:`locate`).
    """

    __slots__ = ("walls", "signs", "on_walls", "weyl_word", "reduced_values", "on_chamber_wall")
    _defaults = dict.fromkeys(("weyl_word", "reduced_values", "on_chamber_wall"))

    @property
    def is_generic(self):
        return not self.on_walls


class CurveClass(_Record):
    """An exceptional curve class in v-perp, normalized modulo Zv.

    ``hom_side`` records which Hom-space cuts the curve locus: "from" for
    ``Hom(F_i, E) != 0`` (positive-rank Weyl image), "to" for
    ``Hom(E, F_i) != 0`` (negative-rank image).
    """

    __slots__ = ("representative", "hom_side", "image")


def _check_context(p, h, v):
    if not v.is_integral():
        raise InvalidMukaiVector("wall enumeration needs an integral Mukai vector")
    if v.r <= 0:
        raise InvalidMukaiVector("wall enumeration needs rk v > 0")
    if not mk.is_primitive(v):
        raise InvalidMukaiVector("wall enumeration needs a primitive Mukai vector")
    if mk.mukai_square(v) != 0:
        raise NonIsotropicV(f"<v, v> = {mk.mukai_square(v)}, expected 0")
    if lat.pairing(p, h, h) <= 0:
        raise NonPositivePolarization(f"(H, H) = {lat.pairing(p, h, h)}, expected > 0")


def enumerate_walls(p, h, v):
    """The finite wall set for ``(Pic, H, v)``, sorted by (rank, lex divisor).

    ``rk v > WALL_RANK_CAP`` raises :class:`CapExceeded` before the search starts.  As
    ``(H, H) > 0``, Pic has signature (1, rank-1) iff H-perp is negative
    definite, so :class:`WrongSignature` comes from the search's own
    factorization of minus the form on a full-rank sublattice of H-perp.

    For ``u = (s, eta, b)`` the divisor ``D := rk(v) * eta - s * c1(v)`` is
    forced into the negative definite lattice H-perp within Pic with
    ``(D, D) = -2 rk(v)^2 - 2 rk(v) s <u, v>  in  [-2 rk(v)^2, 0]``.  The pairs
    ``(D, s)`` for all ranks at once form one lattice, the image of
    ``{(eta, s) : (r eta - s c1(v), H) = 0}``; reduced with the D columns
    first, it has rows ``(D_i, s_i)`` spanning
    ``M = {D in H-perp : D = -s c1(v) (mod rk v) for some s}`` and one row
    ``(0, t)``, so each D of M carries its ranks as one class ``s mod t``.  One
    descent enumerates ``-(D, D) <= 2 rk(v)^2`` on M, D and -D as one pair, and
    carries each vector's image ``(D, (D, c1 v), s)`` down its levels; for each ``s``
    of the vector's class in ``(0, rk v)`` the search recovers ``eta`` by the exact
    division, fixes ``b`` from ``<u, u> = -2``, and keeps u exactly when
    ``<v, u> <= 0``; each wall carries that integer ``<v, u>`` and D, its normal.
    """
    _check_context(p, h, v)
    if v.r > WALL_RANK_CAP:
        raise CapExceeded(f"rk v = {v.r} exceeds the wall search cap {WALL_RANK_CAP}")
    r = int(v.r)
    xi = tuple(int(c) for c in v.c1)
    a_v = int(v.s)
    rho = p.rank
    g_xi = linalg.mat_mul_vec(p.gram, xi)
    xi_sq = sum(map(mul, xi, g_xi))
    g_h = linalg.mat_mul_vec(p.gram, h)

    # (eta, s) with (r eta - s xi, H) = 0, as columns (D, s) = (r eta - s xi, s),
    # reduced with the D coordinates first: rho - 1 rows (D_i, s_i), then (0, t).
    lam = linalg.integer_kernel([[r * e for e in g_h] + [-sum(map(mul, xi, g_h))]], rho + 1)
    cols = [[r * x[i] - x[rho] * xi[i] for x in lam] for i in range(rho)]
    cols.append([x[rho] for x in lam])
    *rows, last = [row for _, row in linalg.IntegerSystem(cols, len(lam)).pivot_rows()]
    if len(rows) != rho - 1 or any(last[:rho]):
        raise InvariantError(f"divisor lattice row {last} does not end in (0, ..., 0, t)")
    t = abs(last[rho])
    gd = [linalg.mat_mul_vec(p.gram, row[:rho]) for row in rows]
    try:
        form = linalg.QuadraticForm([[-sum(map(mul, g, row)) for row in rows] for g in gd])
    except ValueError:
        raise WrongSignature(f"H-perp is not negative definite, so Pic does not have "
                             f"signature (1, {rho - 1}, 0)") from None
    if r == 1:
        return []
    # Rows (D_i, (D_i, xi), s_i): the descent carries D, (D, xi) and the class.
    images = [(*row[:rho], sum(map(mul, row, g_xi)), row[rho]) for row in rows]
    results = []

    def scan(d2, y):
        # The walls of divisor d = y[:rho], of class s = y[-1] (mod t), in ranks s of (0, r).
        d_xi, c = y[rho], y[-1]
        for s in range(c % t or t, r, t):
            num = d2 + 2 * s * d_xi + s * s * xi_sq
            if num % (r * r) or (d_xi + s * xi_sq) % r:
                raise InvariantError(f"divisor {y[:rho]} is not congruent to -s c1(v) mod rk v")
            eta_sq = num // (r * r)
            if (eta_sq + 2) % (2 * s):
                continue
            b = (eta_sq + 2) // (2 * s)
            pv = (d_xi + s * xi_sq) // r - r * b - a_v * s
            if pv <= 0:
                results.append((s, y[:rho], b, pv))

    # The origin, then each image y and -y in turn.
    vectors = linalg.coset_vectors(form, 2 * r * r, images)
    next(vectors)
    scan(0, (0,) * (rho + 2))
    for y, value in vectors:
        scan(-value, y)
    wall, vector = WallVector._from_fields, mk.MukaiVector._from_fields  # integral as built
    return [wall(vector(s, tuple((e + s * x) // r for e, x in zip(d, xi)), b, p), pv, d)
            for s, d, b, pv in sorted(results)]


def u_prime(walls):
    """The sub-collection of walls through the origin: ``<v, u> = 0``."""
    return [w for w in walls if w.pairing_with_v == 0]


def locate(alpha, walls, v, singularity=None):
    """Exact chamber position of a twist parameter against the walls of ``v``.

    ``walls`` is :func:`enumerate_walls` of ``v`` (else ValueError, as seen on its first wall).
    Each sign is that of ``<v + alpha, u>``: with ``q alpha = (R, C, S)`` integral, ``q > 0``,
    and ``rk v c1(u) = D_u + rk u c1(v)``, ``q rk v <v + alpha, u> = q rk v <v, u> + (C, D_u)
    + rk u ((C, c1 v) - rk v S) - rk v R s(u)``, so ``<alpha, u> = (D', D_u)/rk v`` for a twist
    ``delta(D')``.  With ``singularity`` (a :class:`k3walls.strata.SingularityReport`), the
    position also carries the Weyl word reducing ``alpha`` into the closed fundamental chamber
    of the report's finite diagram; the values reduced are the pairings of ``alpha`` with the
    report's retained classes.
    """
    a = alpha.alpha if isinstance(alpha, mk.TwistParameter) else alpha
    for x in (a, *(w.u for w in walls)):
        v._check_ambient(x)
    for w in walls[:1]:  # the first record stands for the list enumerate_walls built for v
        if (w.normal != tuple(v.r * c - w.u.r * x for c, x in zip(w.u.c1, v.c1))
                or [w.pairing_with_v] != mk.scaled_pairings([w.u], v)[1]):
            raise ValueError("the walls were not enumerated for this Mukai vector v")
    q, (*c, r, s) = linalg.clear_denominators((*a.c1, a.r, a.s))
    g_c = linalg.mat_mul_vec(v.lattice.gram, c)
    scale, rank_term, point_term = q * v.r, sum(map(mul, v.c1, g_c)) - v.r * s, v.r * r
    values = [scale * w.pairing_with_v + sum(map(mul, w.normal, g_c)) + w.u.r * rank_term
              - point_term * w.u.s for w in walls]
    signs = tuple((val > 0) - (val < 0) for val in values)
    position = (tuple(walls), signs, tuple(k for k, sign in enumerate(signs) if not sign))
    if singularity is None:
        return ChamberPosition(*position)
    q, values = mk.scaled_pairings(singularity.retained, a)
    return ChamberPosition(*position, *roots.reduce_to_fundamental(
        singularity.finite, [Fraction(n, q) for n in values]))


def small_twist_violations(position):
    """Indices of walls separating the located twist from the origin.

    Walls through the origin never separate (the sign of ``<v + t a, u>`` is
    constant for t > 0); a wall with ``<v, u> < 0`` separates exactly when the
    located sign is >= 0.  An empty result is the exact replacement for the
    informal requirement that the twist be "small enough": every statement
    tied to a chamber adjacent to the origin applies verbatim.
    """
    out = []
    for k, w in enumerate(position.walls):
        if w.pairing_with_v < 0 and position.signs[k] >= 0:
            out.append(k)
    return tuple(out)


def reflect(u, x):
    """Reflection in a (-2)-class: ``x -> x + <x, u> u``; an involution."""
    uu = u.u if isinstance(u, WallVector) else u
    if mk.mukai_square(uu) != -2:
        raise NotMinusTwo(f"<u, u> = {mk.mukai_square(uu)}, expected -2")
    return x + mk.mukai_pairing(x, uu) * uu


def cross_wall(v, u):
    """Reflect ``v`` across a wall not through the origin.

    Requires ``<v, u> != 0`` (crossing back across the same wall is the same
    reflection, so applying this twice is the identity); the result is again
    isotropic and primitive.  The identification of the two sides leaves the
    class bookkeeping in v-perp modulo Zv unchanged.
    """
    uu = u.u if isinstance(u, WallVector) else u
    pv = mk.mukai_pairing(v, uu)
    if pv == 0:
        raise UOnUPrime("wall passes through the origin; crossing is undefined")
    v_prime = reflect(uu, v)
    if mk.mukai_square(v_prime) != 0:
        raise InvariantError(f"reflected vector {v_prime!r} is not isotropic")
    return v_prime


def apply_weyl_word(word, x, basis):
    """Apply a Weyl word to a Mukai vector, rightmost letter first.

    Letters are 1-based indices into ``basis``; letter j acts as the
    reflection in ``basis[j-1]``.
    """
    for letter in reversed(word):
        x = reflect(basis[letter - 1], x)
    return x


def normalize_mod_v(v, x):
    """The representative of ``x + Zv`` with rank component in ``[0, rk v)``."""
    if v.r <= 0:
        raise ValueError("normalization needs rk v > 0")
    k = -(x.r // v.r)
    return x + k * v


def curve_classes(v, strata_basis, word):
    """Exceptional curve classes ``-w(v_i)`` for a chamber ``w(D)``.

    ``strata_basis`` holds the retained stratum vectors ``v_1..v_n``; the
    Weyl word ``w`` is applied through the Mukai-lattice reflections.  Each
    image must have nonzero rank (:class:`RankZeroImage` otherwise) and the
    sign of that rank selects which Hom-space cuts the curve locus.
    """
    out = []
    for b in strata_basis:
        image = apply_weyl_word(word, b, strata_basis)
        if image.r == 0:
            raise RankZeroImage(f"Weyl image of {b!r} has rank 0")
        rep = normalize_mod_v(v, -image)
        if mk.mukai_pairing(v, rep) != 0:
            raise InvariantError(f"curve class {rep!r} is not orthogonal to v")
        side = "from" if image.r > 0 else "to"
        out.append(CurveClass(rep, side, image))
    return out


def slope_condition(alpha, v, strata, deleted=0):
    """Exact test of the slope inequality singling out the special chamber.

    ``strata`` is the full list of ``(u_i, a_i)``; the node ``deleted`` is
    the one removed from the extended diagram.  Checks, for every retained i,

        <v_i, alpha>/rk v_i  >  <v + sum_j a_j v_j, alpha> / rk(v + sum a_j v_j).

    A node outside ``range(len(strata))`` raises :class:`NodeOutOfRange`, a rank 0 on
    either side ValueError: a slope divides by it.
    """
    check_node(strata, deleted)
    a = alpha.alpha if isinstance(alpha, mk.TwistParameter) else alpha
    retained = [(u, m) for k, (u, m) in enumerate(strata) if k != deleted]
    total_rank = v.r + sum(m * u.r for u, m in retained)
    if total_rank == 0 or any(u.r == 0 for u, _ in retained):
        raise ValueError("a slope needs a nonzero rank: of each retained u_i and of "
                         "v + sum a_j u_j")
    # Each pairing with alpha scaled by the same q > 0, which cancels in every inequality.
    _, (va, *pairs) = mk.scaled_pairings([v, *(u for u, _ in retained)], a)
    # <total, alpha> and rk total by linearity, total = v + sum a_j v_j.
    total_pair = va + sum(m * ua for (_, m), ua in zip(retained, pairs))
    rhs = Fraction(total_pair) / Fraction(total_rank)
    for (u, _), ua in zip(retained, pairs):
        lhs = Fraction(ua) / Fraction(u.r)
        if not lhs > rhs:
            return False
    return True
