"""Wall enumeration, chamber location, reflections, wall-crossing.

For a primitive isotropic Mukai vector ``v`` of positive rank over a Picard
lattice of signature (1, rank-1) and a polarization ``H`` of positive square,
the wall vectors are the integral classes ``u`` with

    <u, u> = -2,   0 < rk u < rk v,   <H^, u> = 0,   <v, u> <= 0,

a finite set.  Walls ``W_u`` are the loci ``<v + alpha, u> = 0`` in the space
of twist parameters; the chambers of the complement index the distinct
numerical stability notions.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import lattice as lat
from . import linalg
from . import mukai as mk
from . import roots
from .errors import (CapExceeded, InvalidMukaiVector, InvariantError, NonIsotropicV,
                     NonPositivePolarization, NotMinusTwo, RankZeroImage,
                     UOnUPrime, WrongSignature)
from .strata import check_node

#: Largest ``rk v`` that :func:`enumerate_walls` searches.  The search solves
#: one congruence and runs one coset descent per rank ``s < rk v``, so its time
#: grows linearly in rk v: on a 2-vCPU VM (CPython 3.11) D~18 takes 0.5 s at
#: rk v = 10,000 and 4.8 s at 100,000.  The sweep's largest rk v is 102.
WALL_RANK_CAP = 10 ** 4


@dataclass(frozen=True)
class WallVector:
    """A (-2)-class cutting a wall for the active ``(v, H)`` pair, with the
    integer ``<v, u>`` the wall search computed; later steps read it."""

    u: mk.MukaiVector
    pairing_with_v: int


@dataclass(frozen=True)
class ChamberPosition:
    """Signs of ``<v + alpha, u>`` over a wall list.

    ``signs[k]`` is -1/0/+1 for ``walls[k]``; ``on_walls`` holds the indices
    with sign 0.  ``weyl_word`` is filled when a stratum context identifies
    the finite Weyl geometry (see :func:`locate`).
    """

    walls: tuple
    signs: tuple
    on_walls: tuple
    weyl_word: tuple = None
    reduced_values: tuple = None
    on_chamber_wall: bool = None

    @property
    def is_generic(self):
        return not self.on_walls


@dataclass(frozen=True)
class CurveClass:
    """An exceptional curve class in v-perp, normalized modulo Zv.

    ``hom_side`` records which Hom-space cuts the curve locus: "from" for
    ``Hom(F_i, E) != 0`` (positive-rank Weyl image), "to" for
    ``Hom(E, F_i) != 0`` (negative-rank image).
    """

    representative: mk.MukaiVector
    hom_side: str
    image: mk.MukaiVector


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


def enumerate_walls(p, h, v, cap=WALL_RANK_CAP):
    """The finite wall set for ``(Pic, H, v)``, sorted by (rank, lex divisor).

    ``rk v > cap`` raises :class:`CapExceeded` before the search starts.  As
    ``(H, H) > 0``, Pic has signature (1, rank-1) iff H-perp is negative
    definite, so :class:`WrongSignature` comes from the search's own
    factorization of minus the form on a full-rank sublattice of H-perp.

    For ``u = (s, eta, b)`` the divisor ``D := rk(v) * eta - s * c1(v)`` is
    forced into the negative definite lattice H-perp within Pic with
    ``(D, D) = -2 rk(v)^2 - 2 rk(v) s <u, v>  in  [-2 rk(v)^2, 0]``, and eta
    is integral exactly when ``D = -s c1(v) (mod rk v)`` componentwise.  For
    each rank ``s`` the search therefore enumerates that congruence coset of
    H-perp directly (shifted bound propagation), recovers ``eta`` by the
    exact division, fixes ``b`` from ``<u, u> = -2``, and keeps u exactly
    when ``<v, u> <= 0``; each wall carries that integer ``<v, u>``.  The form
    on the congruence sublattice is factored, the congruence system reduced
    and the sublattice basis mapped to divisors once, before the loop over
    ``s``; each ``s`` only solves for its particular solution and its centre.
    """
    _check_context(p, h, v)
    if v.r > cap:
        raise CapExceeded(f"rk v = {v.r} exceeds the wall search cap {cap}")
    r = int(v.r)
    xi = tuple(int(c) for c in v.c1)
    a_v = int(v.s)
    xi_sq = lat.pairing(p, xi, xi)
    g_xi = linalg.mat_mul_vec(p.gram, xi)
    h_perp = lat.orthogonal_complement(p, [h])
    k = h_perp.rank
    rho = p.rank

    # D = W c over the H-perp basis; the congruence c1-part condition
    # "W c = -s xi (mod r)" is one integer system, reduced once: per s it
    # gives a particular solution, and its kernel gives the fixed sublattice
    # {c : W c = 0 (mod r)} with basis lam_basis.
    w_cols = h_perp.basis
    a_rows = [[w_cols[j][i] for j in range(k)] + [r if t == i else 0 for t in range(rho)]
              for i in range(rho)]
    system = linalg.IntegerSystem(a_rows, k + rho)
    lam_basis = [vec[:k] for vec in system.kernel()]
    if len(lam_basis) != k:
        raise InvariantError(f"congruence sublattice has rank {len(lam_basis)}, expected {k}")
    gw = [[-e for e in row] for row in h_perp.restricted_gram()]
    lam_gw = [[sum(bi[a] * gw[a][b] for a in range(k)) for b in range(k)] for bi in lam_basis]
    try:
        form = linalg.QuadraticForm([[sum(row[b] * bj[b] for b in range(k)) for bj in lam_basis]
                                     for row in lam_gw])
    except ValueError:
        raise WrongSignature(f"H-perp is not negative definite, so Pic does not have "
                             f"signature (1, {rho - 1}, 0)") from None
    if r == 1:
        return []
    # Ambient images of lam_basis, by coordinate, and their pairings with xi.
    lam_cols = [h_perp.from_coefficients(bi) for bi in lam_basis]
    lam_rows = [[col[i] for col in lam_cols] for i in range(rho)]
    lam_xi = [sum(map(mul, col, g_xi)) for col in lam_cols]

    results = []
    for s in range(1, r):
        sol = system.solve([-s * x for x in xi])
        if sol is None:
            continue
        c0 = sol[:k]
        lin = [sum(row[b] * c0[b] for b in range(k)) for row in lam_gw]
        const = sum(c0[a] * gw[a][b] * c0[b] for a in range(k) for b in range(k))
        center = form.solve(lin)
        d0 = h_perp.from_coefficients(c0)
        d0_xi = sum(map(mul, d0, g_xi))
        floor_const = const - sum(t * l for t, l in zip(center, lin))
        budget = 2 * r * r - floor_const
        for z, value in linalg.coset_vectors(form, center, budget):
            q = value + floor_const
            if q != int(q):
                raise InvariantError(f"-(D, D) = {q} is not an integer")
            d2 = -int(q)
            d = tuple(a + sum(map(mul, z, row)) for a, row in zip(d0, lam_rows))
            d_xi = d0_xi + sum(map(mul, z, lam_xi))
            num = d2 + 2 * s * d_xi + s * s * xi_sq
            if num % (r * r) or (d_xi + s * xi_sq) % r:
                raise InvariantError(f"divisor {d} is not congruent to -s c1(v) mod rk v")
            eta_sq = num // (r * r)
            if (eta_sq + 2) % (2 * s):
                continue
            b = (eta_sq + 2) // (2 * s)
            pv = (d_xi + s * xi_sq) // r - r * b - a_v * s
            if pv <= 0:
                results.append((s, d, b, pv))
    results.sort()
    out = []
    for s, d, b, pv in results:
        eta = tuple((c + s * x) // r for c, x in zip(d, xi))
        out.append(WallVector(mk.MukaiVector(s, eta, b, p), pv))
    return out


def u_prime(walls, v):
    """The sub-collection of walls through the origin: ``<v, u> = 0``."""
    return [w for w in walls if w.pairing_with_v == 0]


def is_generic_polarization(p, h, v):
    """Sufficient lattice-level genericity test: the wall set is empty.

    An empty wall set certainly makes every twist give the same stability;
    the converse is not claimed.
    """
    return not enumerate_walls(p, h, v)


def locate(alpha, walls, v, singularity=None):
    """Exact chamber position of a twist parameter against a wall list.

    The signs come from one integer functional: ``x = v + alpha`` is built
    once and cleared of denominators, so each wall's sign is that of one
    integer dot product with ``u``.  With ``singularity`` (a
    :class:`k3walls.strata.SingularityReport`), the position also carries the
    Weyl word reducing ``alpha`` into the closed fundamental chamber of the
    report's finite diagram; the values reduced are the pairings of
    ``alpha`` with the report's retained classes.
    """
    a = alpha.alpha if isinstance(alpha, mk.TwistParameter) else alpha
    x = v + a
    _, (*gx, rx, sx) = linalg.clear_denominators(
        linalg.mat_mul_vec(x.lattice.gram, x.c1) + (x.r, x.s))
    signs = []
    on = []
    for k, u in enumerate(w.u for w in walls):
        x._check_ambient(u)
        val = sum(map(mul, gx, u.c1)) - rx * u.s - sx * u.r
        sign = 0 if val == 0 else (1 if val > 0 else -1)
        signs.append(sign)
        if sign == 0:
            on.append(k)
    word = reduced = on_chamber_wall = None
    if singularity is not None:
        values = [mk.mukai_pairing(b, a) for b in singularity.retained]
        word, reduced, on_chamber_wall = roots.reduce_to_fundamental(
            singularity.finite, values)
    return ChamberPosition(tuple(walls), tuple(signs), tuple(on),
                           word, reduced, on_chamber_wall)


def small_twist_violations(position, v):
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


def is_small_twist(position, v):
    """True iff no wall separates the located twist from the origin."""
    return not small_twist_violations(position, v)


def reflect(u, x):
    """Reflection in a (-2)-class: ``x -> x + <x, u> u``; an involution."""
    uu = u.u if isinstance(u, WallVector) else u
    if mk.mukai_square(uu) != -2:
        raise NotMinusTwo(f"<u, u> = {mk.mukai_square(uu)}, expected -2")
    return x + mk.mukai_pairing(x, uu) * uu


def fm_cohomological(u_f, x):
    """Cohomological action of the associated derived equivalence: ``-R_u``."""
    return -reflect(u_f, x)


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
    k = -(int(x.r) // int(v.r))
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

    A node outside ``range(len(strata))`` raises :class:`NodeOutOfRange`.
    """
    check_node(strata, deleted)
    a = alpha.alpha if isinstance(alpha, mk.TwistParameter) else alpha
    retained = [(u, m, mk.mukai_pairing(u, a)) for k, (u, m) in enumerate(strata)
                if k != deleted]
    # <total, alpha> and rk total by linearity, total = v + sum a_j v_j.
    total_pair = mk.mukai_pairing(v, a) + sum(m * ua for _, m, ua in retained)
    rhs = Fraction(total_pair) / Fraction(v.r + sum(m * u.r for u, m, _ in retained))
    for u, _, ua in retained:
        lhs = Fraction(ua) / Fraction(u.r)
        if not lhs > rhs:
            return False
    return True
