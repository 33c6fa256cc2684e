import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from k3walls import families
from k3walls import lattice as lat
from k3walls import linalg
from k3walls import mukai as mk
from k3walls.errors import InvalidTwist


def rnd_vector(rng, lattice, lo=-6, hi=6):
    return mk.MukaiVector(rng.randint(lo, hi),
                          tuple(rng.randint(lo, hi) for _ in range(lattice.rank)),
                          rng.randint(lo, hi), lattice)


def test_pairing_examples(elliptic, a1_instance):
    p, _, v = elliptic
    one = mk.MukaiVector(1, p.zero(), 0, p)
    assert mk.mukai_pairing(one, mk.rho(p)) == -1
    assert mk.mukai_square(v) == 0
    v0, v1 = a1_instance.v_list
    assert mk.mukai_pairing(v0, v1) == 2
    assert mk.mukai_square(v0) == -2


def test_pairing_ambient_mismatch(elliptic, a1_instance):
    _, _, v = elliptic
    with pytest.raises(ValueError):
        mk.mukai_pairing(v, a1_instance.v)


def test_pairing_symmetry_random(elliptic):
    p, _, _ = elliptic
    rng = random.Random(5)
    for _ in range(200):
        x, y = rnd_vector(rng, p), rnd_vector(rng, p)
        assert mk.mukai_pairing(x, y) == mk.mukai_pairing(y, x)


def test_delta_map(elliptic, a1_instance):
    p, h, v = elliptic
    d_hat = mk.delta_map(v, h)
    assert d_hat == mk.MukaiVector(0, (1, 3), 2, p)
    # the diagonal family: delta(H) with rank-2 total vector
    inst = a1_instance
    h_hat = mk.delta_map(inst.v, inst.polarization)
    assert h_hat == mk.MukaiVector(0, (1, 1), 4, inst.lattice)
    # orthogonal divisor maps to point component 0
    orth = lat.orthogonal_complement(p, [v.c1]).basis[0]
    assert mk.delta_map(v, orth).s == 0
    with pytest.raises(ValueError):
        mk.delta_map(mk.rho(p), h)


def test_delta_isometry_and_orthogonality(elliptic):
    p, _, v = elliptic
    rng = random.Random(13)
    for _ in range(150):
        d1 = tuple(rng.randint(-5, 5) for _ in range(2))
        d2 = tuple(rng.randint(-5, 5) for _ in range(2))
        x, y = mk.delta_map(v, d1), mk.delta_map(v, d2)
        assert mk.mukai_pairing(x, y) == lat.pairing(p, d1, d2)
        assert mk.mukai_pairing(v, x) == 0
        assert mk.mukai_pairing(mk.rho(p), x) == 0


def test_isotropic_primitive(elliptic):
    p, _, v = elliptic
    assert mk.mukai_square(v) == 0
    assert mk.is_primitive(v)
    assert not mk.is_primitive(2 * v)
    assert mk.mukai_square(mk.rho(p)) == 0
    with pytest.raises(ValueError):
        mk.is_primitive(mk.MukaiVector(Fraction(1, 2), (0, 0), 0, p))


def test_twist_parameter_constraints(a1_instance):
    inst = a1_instance
    v, h = inst.v, inst.polarization
    # valid: delta of an H-orthogonal divisor
    good = mk.delta_map(v, (1, -1))
    mk.TwistParameter(good, v, h)
    with pytest.raises(InvalidTwist):
        mk.TwistParameter(mk.MukaiVector(1, inst.lattice.zero(), 0, inst.lattice), v, h)  # rank not 0
    with pytest.raises(InvalidTwist):
        mk.TwistParameter(mk.delta_map(v, (1, 0)), v, h)  # (c1, H) != 0
    with pytest.raises(InvalidTwist):
        mk.TwistParameter(mk.MukaiVector(0, (1, -1), 5, inst.lattice), v, h)  # bad s
    rank_zero = mk.MukaiVector(0, v.c1, v.s, inst.lattice)
    with pytest.raises(ValueError, match="context vector of positive rank"):
        mk.TwistParameter(good, rank_zero, h)


def test_constructor_refuses_c1_of_the_wrong_length(a1_instance):
    for c1 in ((), (1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="^c1 length does not match Picard rank$"):
            mk.MukaiVector(1, c1, 0, a1_instance.lattice)


def _oracle_pairing(x, y):
    return oracles.mukai_pairing(x.lattice.gram, (x.r, x.c1, x.s), (y.r, y.c1, y.s))


# The elliptic lattice, A~3's model and A~7's, on which a class with 2 or 3
# nonzero coordinates is sparse but not one basis class.
_GRAM_LATTICES = (lat.PicardLattice([[-2, 1], [1, 0]]),
                  lat.PicardLattice([[0, 3, 2, 3], [3, 0, 3, 2], [2, 3, 0, 3], [3, 2, 3, 0]]),
                  families.generate_example(families.ExampleSpec("A", 7, 1, 1)).lattice)
_SMALL = hst.integers(-6, 6)
_RATIONAL = hst.builds(Fraction, hst.integers(-6, 6), hst.integers(1, 4))


@hst.composite
def _mukai_vectors(draw, p):
    """A basis class ``c e_k``, a class with 2-3 nonzero coordinates, a dense integer
    class, or one with Fraction components."""
    kind = draw(hst.sampled_from(("basis", "sparse", "dense", "rational")))
    number = _RATIONAL if kind == "rational" else _SMALL
    if kind == "basis":
        k, c = draw(hst.integers(0, p.rank - 1)), draw(_SMALL)
        c1 = tuple(c if i == k else 0 for i in range(p.rank))
    elif kind == "sparse":
        at = draw(hst.lists(hst.integers(0, p.rank - 1), min_size=2, max_size=3, unique=True))
        c1 = tuple(draw((_SMALL | _RATIONAL).filter(bool)) if i in at else 0
                   for i in range(p.rank))
    else:
        c1 = tuple(draw(number) for _ in range(p.rank))
    return mk.MukaiVector(draw(number), c1, draw(number), p)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_gram_matches_the_oracle_pairing(data):
    p = data.draw(hst.sampled_from(_GRAM_LATTICES))
    xs = data.draw(hst.lists(_mukai_vectors(p), max_size=6))
    got = mk.gram(xs)
    assert len(got) == len(xs) and all(len(row) == len(xs) for row in got)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            assert got[i][j] == got[j][i] == _oracle_pairing(x, y)
            # integral entries come back as int, as from mukai_pairing
            assert type(got[i][j]) is int or got[i][j].denominator != 1
    assert _typed(got) == _typed(oracles.support_gram(xs))


def _typed(rows):
    return [[(type(e), e) for e in row] for row in rows]


def test_gram_matches_the_support_oracle_on_the_sweep():
    # All 324 sweep lists (*v_list, v, H^): basis classes, then two dense ones.
    for family, n in families.SWEEP_TYPES:
        for r in (1, 2, 3):
            for a in (1, 2, 3):
                inst = families.generate_example(families.ExampleSpec(family, n, r, a))
                xs = (*inst.v_list, inst.v, mk.delta_map(inst.v, inst.polarization))
                assert _typed(mk.gram(xs)) == _typed(oracles.support_gram(xs)), (family, n, r, a)


def test_gram_zero_class_and_half_supports():
    # The zero class pairs to 0 with everything; classes with floor(n/2) and
    # floor(n/2) + 1 nonzero coordinates pair as the support oracle does.
    a3 = lat.PicardLattice([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    for p in (*_GRAM_LATTICES, a3):
        n = p.rank
        zero = mk.MukaiVector(0, p.zero(), 0, p)
        half = mk.MukaiVector(1, [3] * (n // 2) + [0] * (n - n // 2), -1, p)
        more = mk.MukaiVector(2, [-1] * (n // 2 + 1) + [0] * (n - n // 2 - 1), 5, p)
        xs = (zero, half, more, mk.rho(p))
        got = mk.gram(xs)
        assert got[0] == [0, 0, 0, 0] and [row[0] for row in got] == [0, 0, 0, 0]
        assert _typed(got) == _typed(oracles.support_gram(xs))


def test_gram_empty_and_mixed(elliptic, a1_instance):
    _, _, v = elliptic
    assert mk.gram([]) == [] and mk.gram(()) == []
    assert mk.gram((v,)) == [[0]]
    # an equal lattice that is another object is the same ambient
    twin = mk.MukaiVector(v.r, v.c1, v.s,
                          lat.PicardLattice(v.lattice.gram, v.lattice.basis_labels))
    assert twin.lattice is not v.lattice
    assert mk.gram((v, twin)) == mk.gram((twin, v)) == [[0, 0], [0, 0]]
    for xs in ([v, a1_instance.v], [v, v, a1_instance.v], (a1_instance.v, v)):
        with pytest.raises(ValueError, match="different Picard lattices"):
            mk.gram(xs)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_scaled_pairings_match_the_oracle_pairing(data):
    p = data.draw(hst.sampled_from(_GRAM_LATTICES))
    xs = data.draw(hst.lists(_mukai_vectors(p), max_size=6))
    y = data.draw(_mukai_vectors(p))
    q, got = mk.scaled_pairings(xs, y)
    assert q == lcm(*(Fraction(c).denominator for c in (y.r, *y.c1, y.s)))
    assert got == [q * _oracle_pairing(x, y) for x in xs]
    # one integer per integral class
    assert all(type(n) is int for x, n in zip(xs, got) if x.is_integral())


def test_scaled_pairings_empty_and_foreign(elliptic, a1_instance):
    p, _, v = elliptic
    half = mk.MukaiVector(0, (Fraction(1, 2), 0), Fraction(1, 3), p)
    assert mk.scaled_pairings([], v) == (1, [])
    assert mk.scaled_pairings((), half) == (6, [])
    assert mk.scaled_pairings([v], half) == (6, [6 * mk.mukai_pairing(v, half)])
    for xs in ([a1_instance.v], [v, a1_instance.v]):
        with pytest.raises(ValueError, match="different Picard lattices"):
            mk.scaled_pairings(xs, v)


def test_constructor_normalizes_c1(elliptic):
    p, _, _ = elliptic
    for c1 in [(True, 2), (Fraction(4, 2), 3), [1, 2], iter((1, 2))]:
        c1 = mk.MukaiVector(0, c1, 0, p).c1
        assert type(c1) is tuple and all(type(a) is int for a in c1), c1
    assert mk.MukaiVector(0, (Fraction(1, 2), 0), 0, p).c1 == (Fraction(1, 2), 0)
