import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from k3walls import families
from k3walls import lattice as lat
from k3walls import mukai as mk
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
    assert wl.is_generic_polarization(p, h, v)


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
    assert wl.enumerate_walls(inst.lattice, inst.polarization, inst.v, cap=3) == full

    def refuse(*args):
        raise AssertionError("wall search started above the cap")

    monkeypatch.setattr(lat, "orthogonal_complement", refuse)
    with pytest.raises(CapExceeded):
        wl.enumerate_walls(inst.lattice, inst.polarization, inst.v, cap=2)


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
    origin = wl.u_prime(walls, inst.v)
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
        assert lat.signature(p) != (1, p.rank - 1, 0)
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
    assert (lat.signature(p) == (1, rho - 1, 0)) == hyperbolic
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
    assert wl.u_prime(walls, v) == []  # both elliptic walls have <v,u> = -1
    inst = a1_instance
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    origin = wl.u_prime(walls, inst.v)
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
    walls = wl.u_prime(
        wl.enumerate_walls(inst.lattice, inst.polarization, inst.v), inst.v)
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
        assert wl.is_small_twist(pos, v) == expect_small
        assert bool(wl.small_twist_violations(pos, v)) != expect_small


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
    if target is not None:
        assert target in pos.on_walls


def test_no_per_wall_mukai_arithmetic(monkeypatch):
    # Origin walls, report entries, small-twist checks and chamber signs read
    # the search's <v, u> and one functional: no pairing and at most one sum.
    from k3walls import pipeline
    inst = families.generate_example(families.ExampleSpec("D", 8, 2, 1))
    alpha = families.fundamental_alpha(inst, 1)
    walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
    assert len(walls) > 100
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
    origin = wl.u_prime(walls, inst.v)
    entries = [pipeline._wall_json(w) for w in walls]
    pos = wl.locate(alpha, walls, inst.v)
    assert not wl.small_twist_violations(pos, inst.v)
    assert calls == {"pairing": 0, "add": 1}
    assert len(origin) == len(walls) and len(entries) == len(walls)

    def refuse(*args):
        raise AssertionError("MukaiVector sum on the slope-condition path")

    monkeypatch.setattr(mk.MukaiVector, "__add__", refuse)
    monkeypatch.setattr(mk.MukaiVector, "__rmul__", refuse)
    assert wl.slope_condition(alpha, inst.v, inst.stratum().strata)


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
        assert wl.fm_cohomological(u, x) == -rx
    assert wl.fm_cohomological(u, u) == u
    with pytest.raises(NotMinusTwo):
        wl.reflect(v, u)


def test_cross_wall(elliptic):
    p, h, v = elliptic
    walls = wl.enumerate_walls(p, h, v)
    u = walls[0]
    assert mk.mukai_pairing(v, u.u) == -1
    image = wl.cross_wall(v, u)
    assert image == v - u.u
    assert mk.is_isotropic(image) and mk.is_primitive(image)
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
