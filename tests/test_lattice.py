import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import oracles
from k3walls import lattice as lat
from k3walls import linalg
from k3walls.errors import NotDefinite

A1_GRAM = [[0, 4], [4, 0]]


def random_even_lattice(rng, n, spread=3):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randint(-spread, spread)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-spread, spread)
    return lat.PicardLattice(g)


def random_definite_lattice(rng, n, sign=1):
    while True:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if oracles.det_fraction(b) != 0:
            break
    g = [[2 * sign * sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return lat.PicardLattice(g)


def test_constructor_rejects_bad_gram():
    with pytest.raises(ValueError):
        lat.PicardLattice([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        lat.PicardLattice([[1]])
    with pytest.raises(ValueError):
        lat.PicardLattice([[0, 1], [1, 0]], ["x", "x"])
    # The first fault in row order is named: row 0's asymmetry before row 1's odd entry.
    with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
        lat.PicardLattice([[0, 1, 5], [1, 1, 7], [3, 7, 0]])
    with pytest.raises(ValueError, match=r"gram\[1\]\[1\] = 1 is odd"):
        lat.PicardLattice([[0, 1, 5], [1, 1, 7], [5, 4, 0]])
    with pytest.raises(ValueError, match=r"^gram row 1 has length 1, expected 2$"):
        lat.PicardLattice([[0, 1], [1]])
    with pytest.raises(ValueError, match="^basis_labels length does not match rank$"):
        lat.PicardLattice([[0, 1], [1, 0]], ["x"])


def test_basis_vector_bounds():
    # In range: the unit vector, as before; out of range: IndexError, not the zero vector.
    for n in range(1, 6):
        p = lat.PicardLattice([[2 if i == j else 0 for j in range(n)] for i in range(n)])
        assert [p.basis_vector(i) for i in range(n)] == [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        for i in (-1, n):
            with pytest.raises(IndexError):
                p.basis_vector(i)


def test_constructor_refuses_non_integer_entries():
    # A Gram or a sublattice basis entry that is not an integer raises; one
    # that equals an integer becomes that int, and nothing is truncated.
    for half in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError):
            lat.PicardLattice([[-2, half], [half, 0]])
    p = lat.PicardLattice([[Fraction(-2), Fraction(1)], [1, 0.0]])
    assert p.gram == ((-2, 1), (1, 0)) and {type(e) for row in p.gram for e in row} == {int}
    for bad in (Fraction(3, 2), 1.7, "1"):
        with pytest.raises(ValueError, match="basis entries must be integers"):
            lat.Sublattice(p, [(bad, 0)])
    for basis in ([(1, 0)], [(Fraction(1), 0.0)], ((1, 0), (0, 1)), []):
        sub = lat.Sublattice(p, basis)
        assert sub.basis == tuple(tuple(int(a) for a in v) for v in basis)
        assert {type(a) for v in sub.basis for a in v} <= {int}


def test_constructor_refuses_infinite_and_nan_entries():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="gram entries must be integers"):
            lat.PicardLattice([[-2, bad], [bad, 0]])


def test_equality_is_structural(elliptic):
    p, _, _ = elliptic
    twin = lat.PicardLattice([[-2, 1], [1, 0]], ["sigma", "f"])
    assert twin is not p and twin == p and hash(twin) == hash(p)
    assert twin != lat.PicardLattice([[-2, 1], [1, 0]], ["s", "f"])
    assert twin != lat.PicardLattice([[-2, 1], [1, 2]], ["sigma", "f"])
    assert twin != [[-2, 1], [1, 0]]


def test_pairing_examples(elliptic):
    p, h, _ = elliptic
    assert lat.pairing(p, h, h) == 4
    assert lat.pairing(p, h, (0, 0)) == 0
    a1 = lat.PicardLattice(A1_GRAM)
    assert lat.pairing(a1, (1, 1), (1, 1)) == 8


def test_pairing_dimension_mismatch(elliptic):
    p, _, _ = elliptic
    with pytest.raises(ValueError):
        lat.pairing(p, (1, 2, 3), (1, 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_symmetric_bilinear(seed, x, y, z, c, d):
    rng = random.Random(seed)
    p = random_even_lattice(rng, 3)
    assert lat.pairing(p, x, y) == lat.pairing(p, y, x)
    cx_dy = [c * a + d * b for a, b in zip(x, y)]
    assert lat.pairing(p, cx_dy, z) == c * lat.pairing(p, x, z) + d * lat.pairing(p, y, z)


def test_signature_examples(elliptic):
    p, _, _ = elliptic
    assert linalg.signature(p.gram) == (1, 1, 0)
    assert linalg.signature(lat.PicardLattice([[2]]).gram) == (1, 0, 0)
    assert linalg.signature(lat.PicardLattice(A1_GRAM).gram) == (1, 1, 0)


def test_signature_against_charpoly_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        p = random_even_lattice(rng, n)
        pos, neg, null = linalg.signature(p.gram)
        assert (pos, neg, null) == oracles.signature_by_charpoly(p.gram)
        assert pos + neg + null == n


def test_signature_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        p = random_even_lattice(rng, n)
        u = linalg.identity_matrix(n)
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for k in range(n):
                u[i][k] += c * u[j][k]
        g = [[sum(u[i][a] * p.gram[a][b] * u[j][b] for a in range(n) for b in range(n))
              for j in range(n)] for i in range(n)]
        assert linalg.signature(lat.PicardLattice(g).gram) == linalg.signature(p.gram)


def test_negative_definite_examples(a1_instance):
    h_perp = lat.orthogonal_complement(a1_instance.lattice, [a1_instance.polarization])
    assert lat.pairing(a1_instance.lattice, h_perp.basis[0], h_perp.basis[0]) == -8
    assert lat.is_negative_definite(h_perp)
    span_h = lat.Sublattice(a1_instance.lattice, [a1_instance.polarization])
    assert not lat.is_negative_definite(span_h)
    empty = lat.Sublattice(a1_instance.lattice, [])
    assert lat.is_negative_definite(empty)


def test_orthogonal_complement_examples(elliptic, a1_instance):
    c = lat.orthogonal_complement(a1_instance.lattice, [(1, 1)])
    assert c.basis == ((1, -1),)
    assert oracles.smith_invariants(c.basis) == [1] * c.rank
    p, h, _ = elliptic
    full = lat.orthogonal_complement(p, [])
    assert full.rank == 2
    c2 = lat.orthogonal_complement(p, [h])
    assert c2.rank == 1
    assert lat.pairing(p, c2.basis[0], h) == 0


def test_orthogonal_complement_properties():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        p = random_definite_lattice(rng, n)
        k = rng.randint(1, n)
        vs = []
        while len(vs) < k:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                vs.append(v)
        comp = lat.orthogonal_complement(p, vs)
        for b in comp.basis:
            for v in vs:
                assert lat.pairing(p, b, v) == 0
        span_rank = len(vs) - len(linalg.integer_kernel(
            [list(col) for col in zip(*vs)], len(vs)))
        # definite form: complement rank is complementary to the span rank
        assert comp.rank + span_rank == n


def test_enumeration_examples(a1_instance, a2_instance):
    h_perp = lat.orthogonal_complement(a1_instance.lattice, [a1_instance.polarization])
    assert lat.enumerate_norm_vectors(h_perp, -2, -2) == []
    assert lat.enumerate_norm_vectors(h_perp, 0, 0) == [(0, 0)]
    # sign-flipped phi image of the rank-2 cyclic type: no norm-2 vectors
    host = lat.PicardLattice(a2_instance.affine_matrix.entries)
    diffs = [linalg.vec_sub(host.basis_vector(i), host.basis_vector(i + 1))
             for i in range(2)]
    phi_image = lat.Sublattice(host, diffs)
    assert lat.enumerate_norm_vectors(phi_image, 2, 2) == []
    assert lat.enumerate_norm_vectors(phi_image, 0, 2) == [(0, 0, 0)]


def test_enumeration_rejects_indefinite(elliptic):
    p, _, _ = elliptic
    with pytest.raises(NotDefinite):
        lat.enumerate_norm_vectors(lat.full_sublattice(p), -2, -2)
    with pytest.raises(ValueError):
        lat.enumerate_norm_vectors(lat.full_sublattice(p), 2, -2)


def test_enumeration_against_box_oracle():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 4)
        sign = rng.choice((1, -1))
        p = random_definite_lattice(rng, n, sign)
        sub = lat.full_sublattice(p)
        lo = rng.randint(-6, 2) * sign
        hi = lo + rng.randint(0, 8)
        lo, hi = min(lo, hi), max(lo, hi)
        assert lat.enumerate_norm_vectors(sub, lo, hi) == oracles.box_norm_vectors(sub, lo, hi)
        # Rational ends, widened and narrowed by a third.
        third = Fraction(1, 3)
        for flo, fhi in ((lo - third, hi + third), (lo + third, hi - third)):
            if flo <= fhi:
                assert (lat.enumerate_norm_vectors(sub, flo, fhi)
                        == oracles.box_norm_vectors(sub, flo, fhi))


def test_enumeration_sign_convention():
    p = lat.PicardLattice([[2, -1], [-1, 2]])
    vecs = lat.enumerate_norm_vectors(lat.full_sublattice(p), 2, 2)
    for v in vecs:
        first = next(c for c in v if c != 0)
        assert first > 0
    assert len(vecs) == 3  # A2: three root pairs


def diagonal_lattice(n):
    return lat.PicardLattice([[2 if i == j else 0 for j in range(n)] for i in range(n)])


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.data())
def test_contains_against_cramer_oracle(n, data):
    """Z-membership against Cramer's rule on a nonsingular minor.

    The basis has rank <= 4; one vector may be scaled by ``m`` (non-saturated
    when m > 1), and ``x`` is a rational combination of the basis, that basis
    vector's primitive multiple, or neither (an integer offset).
    """
    k = data.draw(st.integers(0, min(4, n)))
    basis = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=k, max_size=k))
    if k:
        minors = [oracles.det_fraction([[b[i] for b in basis] for i in rows])
                  for rows in itertools.combinations(range(n), k)]
        assume(any(minors))
    m = data.draw(st.integers(1, 3))
    scaled = [[m * a for a in basis[0]]] + basis[1:] if k else []
    coeffs = data.draw(st.lists(st.one_of(st.integers(-3, 3), small_rationals),
                                min_size=k, max_size=k))
    offset = data.draw(st.one_of(st.just([0] * n),
                                 st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    x = [sum(c * b[i] for c, b in zip(coeffs, basis)) + o for i, o in enumerate(offset)]
    x = linalg.normalize_vector(x)
    sub = lat.Sublattice(diagonal_lattice(n), scaled)
    in_z, in_q = oracles.span_membership(scaled, x)
    event(f"rank {k}: in Z {in_z}, in Q {in_q}")
    assert sub.contains(x) == in_z


def test_contains_non_saturated_and_empty():
    p = diagonal_lattice(3)
    sub = lat.Sublattice(p, [(2, 0, 0), (0, 1, 1)])
    for x, in_z in [((1, 0, 0), False), ((2, 3, 3), True), ((0, 1, 0), False),
                    ((Fraction(1, 2), 0, 0), False), ((Fraction(1, 3), 1, 2), False)]:
        assert oracles.span_membership(sub.basis, x)[0] == in_z
        assert sub.contains(x) == in_z
    empty = lat.Sublattice(p, [])
    assert empty.contains((0, 0, 0))
    assert not empty.contains((0, 1, 0))
    with pytest.raises(ValueError):
        sub.contains((1, 0))


def test_restricted_gram_matches_pairing():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 5)
        p = random_even_lattice(rng, n)
        basis = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n))]
        try:
            sub = lat.Sublattice(p, basis)
        except ValueError:
            continue
        gram = sub.restricted_gram()
        assert gram == [[lat.pairing(p, v, w) for w in basis] for v in basis]
        assert all(type(e) is int for row in gram for e in row)


def test_orthogonal_complement_rejects_wrong_length():
    p = lat.PicardLattice([[2, 1], [1, -2]])
    for v in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError):
            lat.orthogonal_complement(p, [v])
        with pytest.raises(ValueError):
            lat.orthogonal_complement(p, [(1, 0), v])


FORM_CALLS = ("sign", "is_negative_definite", "enumerate_norm_vectors")


def _form_call(sub, name, lo, hi):
    """One of the three readers of the shared form, with NotDefinite as a value."""
    if name == "sign":
        return sub.sign
    if name != "enumerate_norm_vectors":
        return getattr(lat, name)(sub)
    try:
        return lat.enumerate_norm_vectors(sub, lo, hi)
    except NotDefinite:
        return NotDefinite


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from((1, -1, 0)),
       st.permutations(FORM_CALLS * 2), st.integers(-6, 6), st.integers(0, 8))
def test_shared_form_answers_as_fresh_sublattices(seed, n, sign, order, lo, width):
    """Each reader gives on one reused sublattice what it gives on a fresh one.

    ``sign`` 0 draws an arbitrary even lattice (often indefinite); the others
    a definite one, where the enumeration must also match the box oracle.
    """
    rng = random.Random(seed)
    p = random_even_lattice(rng, n) if sign == 0 else random_definite_lattice(rng, n, sign)
    k = rng.randint(0, n)
    if rng.random() < 0.5:
        basis = [p.basis_vector(i) for i in range(k)]
    else:
        basis = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
    try:
        shared = lat.Sublattice(p, basis)
    except ValueError:
        assume(False)
    hi = lo + width
    for name in order:
        got = _form_call(shared, name, lo, hi)
        assert got == _form_call(lat.Sublattice(p, basis), name, lo, hi), name
    sign_found = shared.sign
    event(f"definiteness {sign_found}")
    if sign and k:  # every nonzero sublattice of a definite lattice has its sign
        assert sign_found == sign
    enumerated = _form_call(shared, "enumerate_norm_vectors", lo, hi)
    if sign_found == 0:
        assert enumerated is NotDefinite
        assert not lat.is_negative_definite(shared)
    else:
        assert enumerated == oracles.box_norm_vectors(shared, lo, hi)
