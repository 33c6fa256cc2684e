import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from k3walls import families
from k3walls import lattice as lat
from k3walls import linalg
from k3walls import mukai as mk
from k3walls import roots
from k3walls import strata as st
from k3walls import walls as wl
from k3walls.errors import (CapExceeded, InvalidMukaiVector, NodeOutOfRange,
                            NonIsotropicV, NonPositivePolarization, NotMinusTwo,
                            RankZeroImage, UOnUPrime, WrongSignature)


def wall_constraints_hold(p, h, v, wall):
    u = wall.u
    h_hat = mk.delta_map(v, h)
    return (u.is_integral() and mk.mukai_square(u) == -2
            and 0 < u.r < v.r and mk.mukai_pairing(h_hat, u) == 0
            and mk.mukai_pairing(v, u) <= 0)


def test_rank_one_vector_has_no_walls(elliptic):
    p, h, _ = elliptic
    v = mk.MukaiVector(1, (0, 1), 0, p)
    assert mk.mukai_square(v) == 0
    assert wl.enumerate_walls(p, h, v) == []


def test_walls_diagonal_family(a1_instance):
    inst = a1_instance
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    found = {w.u for w in walls}
    assert set(inst.v_list) <= found
    # intersection with the stratum span is exactly {v0, v1}
    in_span = {u for u in found if _in_z_span(inst, u)}
    assert in_span == set(inst.v_list)


def _in_z_span(inst, u):
    return oracles.span_membership([(x.r, *x.c1, x.s) for x in inst.v_list],
                                   (u.r, *u.c1, u.s))[0]


def test_walls_match_brute_force(elliptic):
    p, h, v = elliptic
    walls = wl.enumerate_walls(p, h, v)
    assert {w.u for w in walls} == oracles.brute_force_walls(p, h, v)
    assert len(walls) == 2
    for w in walls:
        assert wall_constraints_hold(p, h, v, w)


def test_wall_rank_cap(a2_instance, monkeypatch):
    # D~18 with r = 3 has the largest rk v of the sweep: 3 * 34 = 102
    assert wl.WALL_RANK_CAP >= 50 * 102
    inst = a2_instance
    assert inst.v.r == 3
    full = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    monkeypatch.setattr(wl, "WALL_RANK_CAP", 3)
    assert wl.enumerate_walls(inst.lattice, inst.polarization, inst.v) == full

    def refuse(*args):
        raise AssertionError("wall search started above the cap")

    monkeypatch.setattr(linalg, "integer_kernel", refuse)
    monkeypatch.setattr(wl, "WALL_RANK_CAP", 2)
    with pytest.raises(CapExceeded):
        wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)


def test_one_descent_matches_per_rank_search():
    # The single descent against the search it replaced, one congruence coset
    # per rank: same walls, same order, same pairings.
    cases = [(family, n, 2, 1) for family, n in families.SWEEP_TYPES]
    cases += [("D", 18, 3, 3), ("A", 18, 3, 3), ("E", 8, 3, 3)]
    for family, n, r, a in cases:
        inst = families.generate_example(families.ExampleSpec(family, n, r, a))
        p, h, v = inst.lattice, inst.polarization, inst.v
        assert wl.enumerate_walls(p, h, v) == oracles.per_rank_walls(p, h, v), (family, n, r, a)


def test_one_descent_per_search(monkeypatch):
    # All ranks come out of one coset descent, without an H-perp basis.
    inst = families.generate_example(families.ExampleSpec("D", 5, 3, 3))
    calls = []
    descent = linalg.coset_vectors

    def counted(*args):
        calls.append(args)
        return descent(*args)

    def refuse(*args):
        raise AssertionError("wall search built H-perp")

    monkeypatch.setattr(linalg, "coset_vectors", counted)
    monkeypatch.setattr(lat, "orthogonal_complement", refuse)
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    assert len({w.u.r for w in walls}) > 1
    assert len(calls) == 1


def test_divisor_with_walls_at_two_ranks():
    # D = (-4, 6) carries the walls of rank 1 and 3, so the ranks of one
    # divisor repeat with period 2 and the search must step through them.
    p = lat.PicardLattice([[4, 3], [3, 2]])
    h = (0, 2)
    v = mk.MukaiVector(4, (0, 2), 1, p)
    walls = wl.enumerate_walls(p, h, v)
    assert len(walls) == 5
    assert {w.u for w in walls} == oracles.brute_force_walls(p, h, v)
    assert walls == oracles.per_rank_walls(p, h, v)
    divisors = [tuple(4 * e - w.u.r * x for e, x in zip(w.u.c1, v.c1)) for w in walls]
    assert {w.u.r for w, d in zip(walls, divisors) if d in {(-4, 6), (4, -6)}} == {1, 3}


def random_wall_context(rng, rho):
    """A random even lattice of signature (1, rho - 1) with ``H^2 > 0`` and an
    isotropic primitive ``v`` of rank 2..6; lattices without such data are redrawn."""
    while True:
        gram = [[0] * rho for _ in range(rho)]
        for i in range(rho):
            gram[i][i] = 2 * rng.randint(-2, 2)
            for j in range(i + 1, rho):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        if oracles.signature_by_charpoly(gram) != (1, rho - 1, 0):
            continue
        p = lat.PicardLattice(gram)
        hs = [h for h in (tuple(rng.randint(-2, 2) for _ in range(rho)) for _ in range(50))
              if lat.pairing(p, h, h) > 0]
        for _ in range(200):
            r = rng.randint(2, 6)
            xi = tuple(rng.randint(-3, 3) for _ in range(rho))
            sq = lat.pairing(p, xi, xi)
            if hs and sq % (2 * r) == 0 and gcd(r, sq // (2 * r), *xi) == 1:
                return p, hs[0], mk.MukaiVector(r, xi, sq // (2 * r), p)


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 3))
def test_walls_match_brute_force_on_random_lattices(seed, rho):
    p, h, v = random_wall_context(random.Random(seed), rho)
    walls = wl.enumerate_walls(p, h, v)
    assert {w.u for w in walls} == oracles.brute_force_walls(p, h, v)
    assert len(walls) == len({w.u for w in walls})
    assert all(wall_constraints_hold(p, h, v, w) for w in walls)


def _normal(wall, v):
    return tuple(v.r * c - wall.u.r * x for c, x in zip(wall.u.c1, v.c1))


def _assert_walls_match_dot_product_search(p, h, v):
    # The records built from the carried images, without renormalising, are
    # the ones the per-vector dot products and the normalising constructors
    # build: same order, ==, hash and repr, all-int fields, and each normal
    # is rk v c1(u) - rk u c1(v).
    walls = wl.enumerate_walls(p, h, v)
    expected = oracles.dot_product_walls(p, h, v)
    assert walls == expected
    assert [hash(w) for w in walls] == [hash(w) for w in expected]
    assert repr(walls) == repr(expected)
    for w in walls:
        assert w.normal == _normal(w, v)
        fields = (w.u.r, *w.u.c1, w.u.s, w.pairing_with_v, *w.normal)
        assert all(type(f) is int for f in fields), w
    return walls


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 4))
def test_wall_records_match_dot_product_search(seed, rho):
    _assert_walls_match_dot_product_search(*random_wall_context(random.Random(seed), rho))


def test_wall_records_match_dot_product_search_on_sweep():
    for (family, n), (r, a) in zip(families.SWEEP_TYPES, itertools.cycle([(2, 1), (3, 2), (3, 3)])):
        inst = families.generate_example(families.ExampleSpec(family, n, r, a))
        assert _assert_walls_match_dot_product_search(
            inst.lattice, inst.polarization, inst.v), (family, n, r, a)


def _random_twist_divisor(rng, p, h):
    """A random rational divisor in H-perp."""
    perp = lat.orthogonal_complement(p, [h]).basis
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in perp]
    return tuple(sum(t * e[i] for t, e in zip(coeffs, perp)) for i in range(p.rank))


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 4))
def test_twist_pairing_is_read_off_the_normal(seed, rho):
    # alpha = delta(D') with D' in H-perp: q rk v <v + alpha, u> = q rk v <v, u> + (q D', D_u),
    # q clearing the denominators of D', against the Mukai pairing.
    rng = random.Random(seed)
    p, h, v = random_wall_context(rng, rho)
    d = _random_twist_divisor(rng, p, h)
    q = lcm(*(c.denominator for c in map(Fraction, d)))
    alpha = mk.delta_map(v, d)
    for w in wl.enumerate_walls(p, h, v):
        lhs = q * v.r * mk.mukai_pairing(v + alpha, w.u)
        assert lhs == q * v.r * w.pairing_with_v + lat.pairing(p, [q * c for c in d], w.normal)


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 4))
def test_zero_normal_exactly_when_c1_proportional(seed, rho):
    # D_u = 0 exactly when c1(u) = (rk u / rk v) c1(v).  When (c1 v, H) != 0 that is
    # exactly when c1(u) is proportional to c1(v): D_u = (rk v t - rk u) c1(v) for
    # c1(u) = t c1(v) lies in H-perp.  With (c1 v, H) = 0 a proportional c1(u) may
    # still have D_u != 0.  An empty wall has <v, u> < 0.
    p, h, v = random_wall_context(random.Random(seed), rho)
    xi = v.c1
    for w in wl.enumerate_walls(p, h, v):
        c = w.u.c1
        empty = not any(w.normal)
        assert empty == (tuple(v.r * e for e in c) == tuple(w.u.r * x for x in xi))
        proportional = (all(c[i] * xi[j] == c[j] * xi[i] for i in range(rho) for j in range(i))
                        and (any(xi) or not any(c)))
        if lat.pairing(p, h, xi):
            assert empty == proportional
        if empty:
            assert w.pairing_with_v < 0


def test_sweep_walls_lie_on_hyperplanes_in_pairs():
    # Grouped by the primitive +-(D_u, rk v <v, u>), the walls of the 36 sweep types at
    # r = a = 3 lie on 3,289 hyperplanes, each cut by exactly {u, v - u}
    # (D_{v-u} = -D_u, <v, v - u> = -<v, u>); none is empty.
    n_walls = n_planes = 0
    for family, n in families.SWEEP_TYPES:
        inst = families.generate_example(families.ExampleSpec(family, n, 3, 3))
        v = inst.v
        walls = wl.enumerate_walls(inst.lattice, inst.polarization, v)
        planes = {}
        for w in walls:
            assert any(w.normal), (family, n, w)
            key = (*w.normal, v.r * w.pairing_with_v)
            key = linalg.sign_normalize(tuple(k // gcd(*key) for k in key))
            planes.setdefault(key, set()).add(w.u)
        for cut in planes.values():
            u = next(iter(cut))
            assert cut == {u, v - u}, (family, n)
        n_walls += len(walls)
        n_planes += len(planes)
    assert (n_walls, n_planes) == (6578, 3289)


def test_walls_constraints_reverified(a2_instance, d4_instance):
    for inst in (a2_instance, d4_instance):
        walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
        assert walls, inst.spec
        for w in walls:
            assert wall_constraints_hold(inst.lattice, inst.polarization, inst.v, w)


def test_wall_count_matches_root_count_at_scale():
    # every origin wall inside the stratum span pairs up as a positive root
    # or its complement, so |U'| = 2 |Psi+| when nothing lives outside
    from k3walls import roots
    inst = families.generate_example(families.ExampleSpec("E", 6, 1, 1))
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    origin = wl.u_prime(walls)
    assert len(walls) == len(origin) == 72  # 2 * 36 roots of the rank-6 type
    psi, comp = st.psi_sets(inst.stratum())
    assert {w.u for w in origin} == set(psi) | set(comp)


def test_walls_deterministic_order(a2_instance):
    inst = a2_instance
    one = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    two = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    assert one == two
    ranks = [w.u.r for w in one]
    assert ranks == sorted(ranks)


def test_walls_preconditions(elliptic):
    p, h, v = elliptic
    with pytest.raises(NonIsotropicV):
        wl.enumerate_walls(p, h, mk.MukaiVector(2, (1, 3), 0, p))
    with pytest.raises(NonPositivePolarization):
        wl.enumerate_walls(p, (0, 1), v)  # (f, f) = 0
    with pytest.raises(ValueError):
        wl.enumerate_walls(p, h, 2 * v)  # not primitive
    pos = lat.PicardLattice([[2, 0], [0, 2]])
    with pytest.raises(WrongSignature):
        wl.enumerate_walls(pos, (1, 0), mk.MukaiVector(1, (0, 0), 0, pos))


# (gram, H, c1): (H, H) > 0 with H-perp indefinite, and with H-perp degenerate.
# Each c1 is isotropic, so (r, c1, 0) is a valid v for every rank r.
WRONG_SIGNATURE_CASES = (([[2, 0, 0], [0, 2, 0], [0, 0, -2]], (1, 0, 0), (0, 1, 1)),
                         ([[2, 0], [0, 0]], (1, 0), (0, 1)))


def test_wrong_signature_from_h_perp():
    for gram, h, c1 in WRONG_SIGNATURE_CASES:
        p = lat.PicardLattice(gram)
        assert linalg.signature(p.gram) != (1, p.rank - 1, 0)
        for r in (1, 2, 5):
            with pytest.raises(WrongSignature):
                wl.enumerate_walls(p, h, mk.MukaiVector(r, c1, 0, p))


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 4))
def test_h_perp_decides_signature_on_random_lattices(seed, rho):
    # With (H, H) > 0, WrongSignature is raised exactly when the char-poly
    # signature is not (1, rho - 1, 0), for v of rank 1 and, when it is at
    # most 6 (the search time grows with it), of rank (H, H) / 2.
    rng = random.Random(seed)
    while True:
        gram = [[0] * rho for _ in range(rho)]
        for i in range(rho):
            gram[i][i] = 2 * rng.randint(-2, 2)
            for j in range(i + 1, rho):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        p = lat.PicardLattice(gram)
        h = tuple(rng.randint(-2, 2) for _ in range(rho))
        if lat.pairing(p, h, h) > 0:
            break
    hyperbolic = oracles.signature_by_charpoly(gram) == (1, rho - 1, 0)
    assert (linalg.signature(p.gram) == (1, rho - 1, 0)) == hyperbolic
    half = lat.pairing(p, h, h) // 2
    vectors = [mk.MukaiVector(1, p.zero(), 0, p)]
    if half <= 6:
        vectors.append(mk.MukaiVector(half, h, 1, p))
    for v in vectors:
        try:
            wl.enumerate_walls(p, h, v)
            raised = False
        except WrongSignature:
            raised = True
        assert raised != hyperbolic, (gram, h, v)


def test_invalid_mukai_vector_is_domain_error(elliptic):
    p, h, v = elliptic
    bad = (2 * v, mk.MukaiVector(0, (0, 1), 1, p), mk.MukaiVector(2, (1, 3), Fraction(1, 2), p))
    for u in bad:
        with pytest.raises(InvalidMukaiVector):
            wl.enumerate_walls(p, h, u)


def test_u_prime(elliptic, a1_instance):
    p, h, v = elliptic
    walls = wl.enumerate_walls(p, h, v)
    assert wl.u_prime(walls) == []  # both elliptic walls have <v,u> = -1
    inst = a1_instance
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    origin = wl.u_prime(walls)
    assert all(mk.mukai_pairing(inst.v, w.u) == 0 for w in origin)
    assert set(inst.v_list) <= {w.u for w in origin}


def test_locate(a1_instance):
    inst = a1_instance
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    zero = mk.MukaiVector(0, (0, 0), 0, inst.lattice)
    pos = wl.locate(mk.TwistParameter(zero, inst.v, inst.polarization), walls, inst.v)
    for w, sign in zip(pos.walls, pos.signs):
        pv = mk.mukai_pairing(inst.v, w.u)
        assert sign == (0 if pv == 0 else (1 if pv > 0 else -1))
    origin_idx = [k for k, w in enumerate(walls)
                  if mk.mukai_pairing(inst.v, w.u) == 0]
    assert list(pos.on_walls) == origin_idx

    # alpha = t * delta(xi0 - xi1), t > 0: positive against v1, negative against v0
    t = Fraction(1, 3)
    alpha = mk.TwistParameter(
        mk.delta_map(inst.v, tuple(t * c for c in (1, -1))), inst.v, inst.polarization)
    v0, v1 = inst.v_list
    assert mk.mukai_pairing(inst.v + alpha.alpha, v1) == 4 * t
    pos2 = wl.locate(alpha, walls, inst.v)
    assert pos2.is_generic
    k0 = next(k for k, w in enumerate(walls) if w.u == v0)
    k1 = next(k for k, w in enumerate(walls) if w.u == v1)
    assert pos2.signs[k1] == 1 and pos2.signs[k0] == -1


def test_locate_single_wall(a2_instance):
    # put alpha exactly on the wall of one stratum vector and off the others
    inst = a2_instance
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    v0, v1, v2 = inst.v_list
    # want <alpha, v1> = 0, <alpha, v2> = 1; solve in the H-orthogonal plane
    from k3walls.linalg import solve_rational
    g = [list(r) for r in inst.lattice.gram]
    rows = [list(inst.polarization)] + [list(v1.c1), list(v2.c1)]
    mat = [[sum(g[i][j] * row[j] for j in range(3)) for i in range(3)] for row in rows]
    d = solve_rational(mat, [0, 0, 1])
    alpha = mk.TwistParameter(mk.delta_map(inst.v, d), inst.v, inst.polarization)
    assert mk.mukai_pairing(alpha.alpha, v1) == 0
    pos = wl.locate(alpha, walls, inst.v)
    hit = {pos.walls[k].u for k in pos.on_walls}
    assert v1 in hit and v2 not in hit
    assert not pos.is_generic


def test_locate_scaling_invariance(a2_instance):
    inst = a2_instance
    walls = wl.u_prime(wl.enumerate_walls(inst.lattice, inst.polarization, inst.v))
    alpha = families.fundamental_alpha(inst, 1)
    scaled = families.fundamental_alpha(inst, Fraction(7, 5))
    a_pos = wl.locate(alpha, walls, inst.v)
    s_pos = wl.locate(scaled, walls, inst.v)
    assert a_pos.signs == s_pos.signs


def test_small_twist_detection(elliptic):
    p, h, v = elliptic
    walls = wl.enumerate_walls(p, h, v)
    # both elliptic walls have <v, u> = -1; a large positive twist flips one
    u = walls[0].u
    d = lat.orthogonal_complement(p, [h]).basis[0]
    for scale, expect_small in ((Fraction(1, 100), True), (100, False)):
        cand = mk.delta_map(v, tuple(scale * c for c in d))
        if mk.mukai_pairing(cand, u) < 0:
            cand = -cand
        alpha = mk.TwistParameter(cand, v, h)
        pos = wl.locate(alpha, walls, v)
        assert (not wl.small_twist_violations(pos)) == expect_small


def _sign(x):
    return 0 if x == 0 else (1 if x > 0 else -1)


def _triple(x):
    return x.r, x.c1, x.s


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 3), hst.booleans())
def test_locate_and_wall_pairings_match_oracle(seed, rho, on_wall):
    # Every wall's <v, u> and every chamber sign, against the Mukai pairing
    # spelled out on the Gram matrix.  With on_wall, alpha is solved onto one
    # wall so that sign 0 is hit whenever H-perp allows it.
    rng = random.Random(seed)
    p, h, v = random_wall_context(rng, rho)
    walls = wl.enumerate_walls(p, h, v)
    for w in walls:
        assert type(w.pairing_with_v) is int
        assert w.pairing_with_v == oracles.mukai_pairing(p.gram, _triple(v), _triple(w.u))
    perp = lat.orthogonal_complement(p, [h]).basis
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in perp]
    d = [sum(t * e[i] for t, e in zip(coeffs, perp)) for i in range(rho)]
    target = None
    if on_wall and walls and perp:
        target = rng.randrange(len(walls))
        u = walls[target].u
        # (D, c1 u - rk u / rk v c1 v) = <delta(D), u> must equal -<v, u>.
        slope = [c - Fraction(u.r, v.r) * x for c, x in zip(u.c1, v.c1)]
        f = [lat.pairing(p, e, slope) for e in perp]
        j = next((j for j, fj in enumerate(f) if fj), None)
        if j is None:
            target = None
        else:
            shift = Fraction(-walls[target].pairing_with_v - lat.pairing(p, d, slope)) / f[j]
            d = [a + shift * b for a, b in zip(d, perp[j])]
    alpha = mk.TwistParameter(mk.delta_map(v, d), v, h)
    pos = wl.locate(alpha, walls, v)
    x = (v.r, tuple(a + b for a, b in zip(v.c1, d)),
         v.s + Fraction(lat.pairing(p, d, v.c1), v.r))
    expected = [_sign(oracles.mukai_pairing(p.gram, x, _triple(w.u))) for w in walls]
    assert list(pos.signs) == expected
    assert list(pos.on_walls) == [k for k, sg in enumerate(expected) if sg == 0]
    assert pos == oracles.scaled_pairing_position(alpha, walls, v)
    if target is not None:
        assert target in pos.on_walls


def test_locate_matches_scaled_pairing_oracle():
    # Signs, on-walls, Weyl word and reduced values read off the normals are the
    # ones the scaled pairings with v + alpha give, with and without a report.
    for (family, n), (r, a) in zip(families.SWEEP_TYPES, itertools.cycle([(2, 1), (3, 3)])):
        inst = families.generate_example(families.ExampleSpec(family, n, r, a))
        walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
        report = st.classify_singularity(inst.stratum())
        for scale in (1, Fraction(7, 3)):
            alpha = families.fundamental_alpha(inst, scale)
            for singularity in (None, report):
                expected = oracles.scaled_pairing_position(alpha, walls, inst.v, singularity)
                assert wl.locate(alpha, walls, inst.v, singularity) == expected, (family, n)


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 4))
def test_locate_raw_alpha_matches_scaled_pairing_oracle(seed, rho):
    # Any rational alpha, rank and point components included, is signed through the
    # normals as the scaled pairings with v + alpha sign it.
    rng = random.Random(seed)
    p, h, v = random_wall_context(rng, rho)
    walls = wl.enumerate_walls(p, h, v)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(5):
        alpha = mk.MukaiVector(rational(), [rational() for _ in range(rho)], rational(), p)
        assert wl.locate(alpha, walls, v) == oracles.scaled_pairing_position(alpha, walls, v)


def test_locate_twist_of_another_v_pairs_with_v_plus_alpha(a2_instance):
    # A TwistParameter of another v' is delta_{v'}(D), not delta_v(D): locate pairs
    # its alpha with v + alpha like a raw Mukai vector.
    inst = a2_instance
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    d = tuple(12 * c for c in families.fundamental_alpha(inst).alpha.c1)
    other = mk.MukaiVector(1, d, 0, inst.lattice)
    twist = mk.TwistParameter(mk.delta_map(other, d), other, inst.polarization)
    pos = wl.locate(twist, walls, inst.v)
    assert pos == oracles.scaled_pairing_position(twist.alpha, walls, inst.v)
    assert pos == wl.locate(twist.alpha, walls, inst.v)
    # The normals would have given the signs of delta_v(D).
    own = wl.locate(mk.TwistParameter(mk.delta_map(inst.v, d), inst.v, inst.polarization),
                    walls, inst.v)
    assert own.signs != pos.signs


def test_locate_refuses_walls_of_another_v():
    # The signs are read off each wall's <v, u> and normal, so walls enumerated for
    # another v are refused, whichever of the two records of the first wall is off.
    inst = families.generate_example(families.ExampleSpec("D", 4, 2, 1))
    p, h, v = inst.lattice, inst.polarization, inst.v
    walls = wl.enumerate_walls(p, h, v)
    alpha = families.fundamental_alpha(inst)
    flipped = mk.MukaiVector(v.r, [-c for c in v.c1], v.s, p)  # isotropic, other normals
    shifted = mk.MukaiVector(v.r, v.c1, v.s + 1, p)  # the same normals, other <v, u>
    flipped_walls = wl.enumerate_walls(p, h, flipped)
    assert walls and flipped_walls
    assert walls[0].normal == tuple(shifted.r * c - walls[0].u.r * x
                                    for c, x in zip(walls[0].u.c1, shifted.c1))
    for other in (flipped, shifted):
        with pytest.raises(ValueError, match="not enumerated"):
            wl.locate(alpha, walls, other)
    with pytest.raises(ValueError, match="not enumerated"):
        wl.locate(alpha.alpha, flipped_walls, v)
    assert wl.locate(alpha, [], shifted).signs == ()


def test_no_per_wall_mukai_arithmetic(monkeypatch):
    # Origin walls, report entries, small-twist checks and chamber signs read
    # the search's <v, u> and normals and one G D': no pairing and no sum.
    from k3walls import pipeline
    inst = families.generate_example(families.ExampleSpec("D", 8, 2, 1))
    alpha = families.fundamental_alpha(inst, 1)
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    assert len(walls) > 100
    report = st.classify_singularity(inst.stratum())
    values = [mk.mukai_pairing(u, alpha.alpha) for u in report.retained]
    calls = {"pairing": 0, "add": 0}
    pairing, add = mk.mukai_pairing, mk.MukaiVector.__add__

    def counted_pairing(*args):
        calls["pairing"] += 1
        return pairing(*args)

    def counted_add(*args):
        calls["add"] += 1
        return add(*args)

    monkeypatch.setattr(mk, "mukai_pairing", counted_pairing)
    monkeypatch.setattr(mk.MukaiVector, "__add__", counted_add)
    origin = wl.u_prime(walls)
    entries = [pipeline._wall_json(w) for w in walls]
    pos = wl.locate(alpha, walls, inst.v)
    assert not wl.small_twist_violations(pos)
    assert calls == {"pairing": 0, "add": 0}
    assert len(origin) == len(walls) and len(entries) == len(walls)

    def refuse(*args):
        raise AssertionError("MukaiVector sum on the slope-condition path")

    # With a singularity report, the Weyl values are pairings with alpha too,
    # read from alpha's scaled pairings.
    pos = wl.locate(alpha, walls, inst.v, singularity=report)
    assert pos.reduced_values == roots.reduce_to_fundamental(report.finite, values)[1]
    assert calls == {"pairing": 0, "add": 0}

    monkeypatch.setattr(mk.MukaiVector, "__add__", refuse)
    monkeypatch.setattr(mk.MukaiVector, "__rmul__", refuse)
    assert wl.slope_condition(alpha, inst.v, inst.stratum().strata)
    assert calls["pairing"] == 0


def test_locate_rejects_other_lattice(a2_instance):
    inst = a2_instance
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    other = lat.PicardLattice(inst.lattice.gram, ["x", "y", "z"])
    assert other != inst.lattice
    alpha = families.fundamental_alpha(inst).alpha
    foreign_alpha = mk.MukaiVector(0, alpha.c1, alpha.s, other)
    with pytest.raises(ValueError):
        wl.locate(foreign_alpha, walls, inst.v)
    # v and alpha agree, the walls do not: the per-wall check fires
    foreign_v = mk.MukaiVector(inst.v.r, inst.v.c1, inst.v.s, other)
    with pytest.raises(ValueError):
        wl.locate(foreign_alpha, walls, foreign_v)
    # A twist of v read through the normals: the walls of another lattice are refused too
    foreign_walls = wl.enumerate_walls(other, inst.polarization, foreign_v)
    with pytest.raises(ValueError):
        wl.locate(families.fundamental_alpha(inst), foreign_walls, inst.v)
    with pytest.raises(ValueError):
        wl.slope_condition(foreign_alpha, inst.v, inst.stratum().strata)


def test_reflect_properties(elliptic):
    p, h, v = elliptic
    walls = wl.enumerate_walls(p, h, v)
    u = walls[0].u
    assert wl.reflect(u, u) == -u
    rng = random.Random(3)
    for _ in range(300):
        x = mk.MukaiVector(rng.randint(-6, 6),
                           (rng.randint(-6, 6), rng.randint(-6, 6)),
                           rng.randint(-6, 6), p)
        y = mk.MukaiVector(rng.randint(-6, 6),
                           (rng.randint(-6, 6), rng.randint(-6, 6)),
                           rng.randint(-6, 6), p)
        rx, ry = wl.reflect(u, x), wl.reflect(u, y)
        assert wl.reflect(u, rx) == x
        assert mk.mukai_pairing(rx, ry) == mk.mukai_pairing(x, y)
        if mk.mukai_pairing(x, u) == 0:
            assert rx == x
    with pytest.raises(NotMinusTwo):
        wl.reflect(v, u)


def test_cross_wall(elliptic):
    p, h, v = elliptic
    walls = wl.enumerate_walls(p, h, v)
    u = walls[0]
    assert mk.mukai_pairing(v, u.u) == -1
    image = wl.cross_wall(v, u)
    assert image == v - u.u
    assert mk.mukai_square(image) == 0 and mk.is_primitive(image)
    assert wl.cross_wall(image, u) == v
    # origin walls refuse to be crossed
    a1 = families.generate_example(families.ExampleSpec("A", 1, 1, 1))
    wall = wl.enumerate_walls(a1.lattice, a1.polarization, a1.v)[0]
    with pytest.raises(UOnUPrime):
        wl.cross_wall(a1.v, wall)


def test_curve_classes_identity(a1_instance):
    inst = a1_instance
    basis = st.retained_vectors(inst.stratum())
    classes = wl.curve_classes(inst.v, basis, ())
    assert len(classes) == 1
    rep = classes[0].representative
    assert rep == wl.normalize_mod_v(inst.v, -basis[0])
    assert 0 <= rep.r < inst.v.r
    assert mk.mukai_pairing(inst.v, rep) == 0


@settings(max_examples=100, deadline=None)
@given(hst.fractions(min_value=-50, max_value=50, max_denominator=12),
       hst.integers(-20, 20), hst.integers(-20, 20))
def test_normalize_mod_v_on_rational_ranks(elliptic, r, c, s):
    # x + k v with k an integer and rank in [0, rk v), whatever the rank of x
    _, _, v = elliptic
    x = mk.MukaiVector(r, (c, Fraction(c, 2)), s, v.lattice)
    rep = wl.normalize_mod_v(v, x)
    assert 0 <= rep.r < v.r
    k = Fraction(rep.r - x.r) / v.r
    assert k.denominator == 1 and rep == x + int(k) * v


def test_normalize_mod_v_needs_positive_rank(elliptic):
    _, _, v = elliptic
    for r in (0, -2):
        w = mk.MukaiVector(r, v.c1, v.s, v.lattice)
        with pytest.raises(ValueError, match="^normalization needs rk v > 0$"):
            wl.normalize_mod_v(w, v)


def test_curve_classes_reflection(a1_instance):
    inst = a1_instance
    basis = st.retained_vectors(inst.stratum())
    v1 = basis[0]
    classes = wl.curve_classes(inst.v, basis, (1,))
    # -R_{v1}(v1) = v1, already normalized
    assert classes[0].representative == v1
    assert classes[0].hom_side == "to"


def test_curve_classes_isometry(a2_instance):
    inst = a2_instance
    basis = st.retained_vectors(inst.stratum())
    for word in [(1, 2), (2, 1), (1, 2, 1)]:
        classes = wl.curve_classes(inst.v, basis, word)
        images = [c.image for c in classes]
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert mk.mukai_pairing(images[i], images[j]) \
                    == mk.mukai_pairing(basis[i], basis[j])
        # representative independence: reps pair with v-perp like the images
        for c in classes:
            assert mk.mukai_pairing(c.representative, inst.v) == 0


def test_curve_classes_rank_zero():
    # fabricated non-geometric data: two (-2)-classes in v-perp pairing to -1,
    # whose reflection kills the rank
    p = lat.PicardLattice([[-2, -1, 0], [-1, -2, 0], [0, 0, 2]])
    v = mk.MukaiVector(2, (0, 0, 0), 0, p)
    b1 = mk.MukaiVector(1, (1, 0, 0), 0, p)
    b2 = mk.MukaiVector(1, (0, 1, 0), 0, p)
    assert mk.mukai_square(b1) == mk.mukai_square(b2) == -2
    assert mk.mukai_pairing(b1, b2) == -1
    with pytest.raises(RankZeroImage):
        wl.curve_classes(v, [b1, b2], (1,))


def test_slope_condition(a1_instance, a2_instance):
    for inst in (a1_instance, a2_instance):
        alpha = families.fundamental_alpha(inst)
        assert wl.slope_condition(alpha, inst.v, inst.stratum().strata)
        zero = mk.TwistParameter(mk.MukaiVector(0, (0,) * inst.lattice.rank, 0,
                                                inst.lattice),
                                 inst.v, inst.polarization)
        assert not wl.slope_condition(zero, inst.v, inst.stratum().strata)


def test_slope_condition_node_out_of_range(a2_instance):
    inst = a2_instance
    alpha = families.fundamental_alpha(inst)
    strata = inst.stratum().strata
    for node in (-1, len(strata), 7):
        with pytest.raises(NodeOutOfRange):
            wl.slope_condition(alpha, inst.v, strata, node)


def test_slope_condition_rank_zero_is_value_error(a2_instance):
    # A slope divides by a rank: a rank-0 retained class, or a v with
    # rk(v + sum a_j u_j) = 0, once raised ZeroDivisionError.
    inst = a2_instance
    alpha = families.fundamental_alpha(inst)
    strata = inst.stratum().strata  # node 0 is deleted, the others retained
    (u, m), *others = strata[1:]
    flat = (strata[0], (mk.MukaiVector(0, u.c1, u.s, inst.lattice), m), *others)
    v_zero = mk.MukaiVector(-sum(m * u.r for u, m in strata[1:]), inst.v.c1, inst.v.s,
                            inst.lattice)  # rk(v + sum a_j u_j) = 0
    for v, pairs in ((inst.v, flat), (v_zero, strata)):
        with pytest.raises(ValueError, match="nonzero rank"):
            wl.slope_condition(alpha, v, pairs)


def test_slope_condition_skewed(a2_instance):
    # alpha in the fundamental chamber but strongly skewed: direct evaluation
    inst = a2_instance
    from k3walls.linalg import solve_rational
    # pairings (<v_1,alpha>, <v_2,alpha>) = (1, 20); H-orthogonality fixes node 0
    target = [-(1 + 20), 1, 20]
    rows = [list(r) for r in inst.lattice.gram]
    d = solve_rational(rows, target)
    alpha = mk.TwistParameter(mk.delta_map(inst.v, d), inst.v, inst.polarization)
    # direct check, also on raw Mukai vectors that need not be orthogonal to v
    total = inst.v
    for u, m in inst.stratum().strata[1:]:
        total = total + m * u
    rng = random.Random(5)
    raw = [mk.MukaiVector(rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(3)],
                          rng.randint(-3, 3), inst.lattice) for _ in range(40)]
    outcomes = set()
    for a in [alpha.alpha] + raw:
        rhs = Fraction(mk.mukai_pairing(total, a)) / total.r
        expected = all(Fraction(mk.mukai_pairing(u, a)) / u.r > rhs
                       for u, _ in inst.stratum().strata[1:])
        assert wl.slope_condition(a, inst.v, inst.stratum().strata) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
