"""Differential tests of the factored quadratic form and its integer descent.

Every fast path here is compared against the independent oracles: the
brute-force box from ``oracles.ellipsoid_bounds`` for short and coset
vectors, determinants and characteristic-polynomial signatures for the
factorization.
"""

import itertools
import random
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from k3walls import lattice as lat
from k3walls import linalg
from k3walls import roots
from k3walls.errors import InvariantError


def random_positive_definite(rng, n):
    """``B^T B + D`` with ``D`` a positive diagonal: positive definite, smallest eigenvalue >= 1."""
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + (rng.randint(1, 3) if i == j else 0)
             for j in range(n)] for i in range(n)]


def random_symmetric(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = rng.randint(-4, 4)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    return g


def form_value(gram, y):
    n = len(gram)
    return sum(y[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))


def box_coset_vectors(gram, center, bound):
    """Brute-force ``{(x, Q(x + center)) : Q(x + center) <= bound}`` over an ellipsoid box."""
    if bound < 0:
        return set()
    found = set()
    ranges = [range(floor(-c) - e - 1, ceil(-c) + e + 2)
              for c, e in zip(center, oracles.ellipsoid_bounds(gram, bound))]
    for x in itertools.product(*ranges):
        value = form_value(gram, [a + c for a, c in zip(x, center)])
        if value <= bound:
            found.add((x, value))
    return found


rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4))
bounds = st.integers(-2, 24) | st.builds(Fraction, st.integers(-2, 24), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), bounds)
def test_coset_vectors_against_box(seed, n, bound):
    gram = random_positive_definite(random.Random(seed), n)
    got = list(linalg.coset_vectors(linalg.QuadraticForm(gram), bound))
    assert all(type(value) is int for _, value in got)
    assert len(got) == len(set(got))
    assert set(got) == box_coset_vectors(gram, [0] * n, bound)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), bounds)
def test_short_vectors_against_box(seed, n, bound):
    gram = random_positive_definite(random.Random(seed), n)
    got = list(linalg.short_vectors(linalg.QuadraticForm(gram), bound))
    expected = {(x, value) for x, value in box_coset_vectors(gram, [0] * n, bound) if any(x)}
    assert all(type(value) is int for _, value in got)
    assert len(got) == len(set(got))
    assert set(got) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.data())
def test_centred_descent_against_box(seed, n, data):
    gram = random_positive_definite(random.Random(seed), n)
    center = data.draw(st.lists(rationals, min_size=n, max_size=n))
    bound = data.draw(st.builds(Fraction, st.integers(-2, 24), st.integers(1, 3)))
    got = list(oracles.coset_descent(linalg.QuadraticForm(gram), center, bound))
    assert len(got) == len(set(got))
    assert set(got) == box_coset_vectors(gram, center, bound)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), bounds)
def test_descent_matches_centred_descent_at_zero(seed, n, bound):
    # The centre-free descent visits the same vectors as the centred one;
    # its order is pinned by the pair test below.
    form = linalg.QuadraticForm(random_positive_definite(random.Random(seed), n))
    assert sorted(linalg.coset_vectors(form, bound)) == sorted(
        oracles.coset_descent(form, (0,) * n, bound))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), bounds)
def test_descent_yields_each_pair_in_turn(seed, n, bound):
    # The origin first, then each x whose last nonzero coordinate is positive,
    # immediately followed by -x; short_vectors is the same without the origin.
    form = linalg.QuadraticForm(random_positive_definite(random.Random(seed), n))
    got = list(linalg.coset_vectors(form, bound))
    assert got[:1] == ([((0,) * n, 0)] if bound >= 0 else [])
    pairs = got[1:]
    assert len(pairs) % 2 == 0
    for (x, value), (y, other) in zip(pairs[::2], pairs[1::2]):
        assert [a for a in x if a][-1] > 0
        assert y == tuple(-a for a in x) and other == value
    assert list(linalg.short_vectors(form, bound)) == pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.integers(0, 4), bounds)
def test_descent_carries_images_in_walk_order(seed, n, width, bound):
    # coset_vectors with images is coset_vectors mapped through them by dot
    # products, order included: the origin's zero image, then each y and -y.
    rng = random.Random(seed)
    form = linalg.QuadraticForm(random_positive_definite(rng, n))
    images = [tuple(rng.randint(-5, 5) for _ in range(width)) for _ in range(n)]
    got = list(linalg.coset_vectors(form, bound, images))
    assert got == list(oracles.dot_product_images(form, bound, images))
    assert [value for _, value in got] == [value for _, value in linalg.coset_vectors(form, bound)]


def test_descent_refuses_a_non_integral_value():
    # Factors that no integer Gram has: Q(0, 1) = 1/2 + 2/2.  The descent raises
    # explicitly, with or without images.
    form = linalg.QuadraticForm._from_fields((2, 2), ((2, 1), (0, 2)))
    for images in (None, [(1, 0), (0, 1)]):
        with pytest.raises(InvariantError, match="is not an integer"):
            list(linalg.coset_vectors(form, 5, images))


def test_descent_on_rank_zero_and_negative_bound():
    empty = linalg.QuadraticForm([])
    assert list(linalg.coset_vectors(empty, 0)) == [((), 0)]
    assert list(linalg.coset_vectors(empty, -1)) == []
    assert list(linalg.short_vectors(empty, 5)) == []
    form = linalg.QuadraticForm([[2, 1], [1, 2]])
    assert list(linalg.coset_vectors(form, Fraction(-1, 3))) == []
    assert list(oracles.coset_descent(form, (Fraction(1, 2), 0), Fraction(-1, 3))) == []
    assert sorted(linalg.short_vectors(form, 2)) == [
        ((-1, 0), 2), ((-1, 1), 2), ((0, -1), 2), ((0, 1), 2), ((1, -1), 2), ((1, 0), 2)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_factors_reproduce_gram(seed, n):
    gram = random_positive_definite(random.Random(seed), n)
    form = linalg.QuadraticForm(gram)
    minors, upper = form.minors, form.upper
    for i in range(n):
        assert minors[i] == oracles.det_fraction([row[:i + 1] for row in gram[:i + 1]])
        assert upper[i][i] == minors[i] and not any(upper[i][:i])
    prev = (1,) + minors
    rebuilt = [[sum(Fraction(upper[k][i] * upper[k][j], prev[k] * minors[k]) for k in range(n))
                for j in range(n)] for i in range(n)]
    assert rebuilt == gram


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.booleans())
def test_definiteness_agrees_with_charpoly(seed, n, definite):
    rng = random.Random(seed)
    if definite:
        gram = random_positive_definite(rng, n)
        if rng.random() < 0.5:
            gram = [[-e for e in row] for row in gram]
    else:
        gram = random_symmetric(rng, n)
    pos, neg, null = oracles.signature_by_charpoly(gram)
    try:
        linalg.QuadraticForm(gram)
        factored = True
    except ValueError:
        factored = False
    assert factored == (pos == n)
    even = lat.PicardLattice([[2 * e for e in row] for row in gram])
    sub = lat.full_sublattice(even)
    expected = 1 if pos == n else -1 if neg == n else 0
    assert sub.sign == expected
    assert lat.is_negative_definite(sub) == (neg == n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 5), st.data())
def test_integer_system_solutions_and_kernel(seed, m, n, data):
    rng = random.Random(seed)
    a_rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    system = linalg.IntegerSystem(a_rows, n)
    kernel = system.kernel()
    assert kernel == linalg.integer_kernel(a_rows, n)
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in a_rows)
    rank = n - len(kernel)
    assert len(system.pivot_cols) == rank
    z = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    b = [sum(a * x for a, x in zip(row, z)) for row in a_rows]
    sol = system.solve(b)
    assert sol is not None and all(type(c) is int for c in sol)
    assert [sum(a * x for a, x in zip(row, sol)) for row in a_rows] == b
    assert linalg.solve_integer(a_rows, b) == sol
    # Off the image: a right-hand side with no rational solution, when A is not onto.
    if rank < m:
        off = [c + 1 for c in b]
        if oracles.solve_rational(a_rows, off) is None:
            assert system.solve(off) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
def test_solve_rational_against_gauss_jordan(seed, m, n, consistent, data):
    # Random integer A (often rank deficient) and rational b, half the time
    # b = A z for a rational z, so both solvable and unsolvable systems occur.
    rng = random.Random(seed)
    a_rows = [[rng.choice((0, rng.randint(-4, 4))) for _ in range(n)] for _ in range(m)]
    if consistent:
        z = data.draw(st.lists(rationals, min_size=n, max_size=n))
        b = [sum(a * x for a, x in zip(row, z)) for row in a_rows]
    else:
        b = data.draw(st.lists(rationals, min_size=m, max_size=m))
    x = linalg.solve_rational(a_rows, b)
    assert (x is None) == (oracles.solve_rational(a_rows, b) is None)
    if consistent:
        assert x is not None
    if x is not None:
        assert len(x) == n
        assert [sum(a * c for a, c in zip(row, x)) for row in a_rows] == b
        assert all(type(c) is int for c in x if c == int(c))


def test_solve_rational_rejects_non_integer_matrix():
    # The integer echelon would truncate a rational entry; it is refused instead.
    with pytest.raises(TypeError):
        linalg.solve_rational([[Fraction(1, 2), 1]], [1])
    x = linalg.solve_rational([[2, 4]], [Fraction(1, 3)])
    assert 2 * x[0] + 4 * x[1] == Fraction(1, 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.sampled_from((1, 3)))
def test_signature_against_charpoly(seed, n, den):
    # Sparse symmetric matrices, often with a zero diagonal or a null block,
    # and rational entries over ``den``.
    rng = random.Random(seed)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = rng.choice((0, 0, rng.randint(-4, 4)))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.choice((0, rng.randint(-3, 3)))
    g = [[Fraction(e, den) for e in row] for row in g]
    assert linalg.signature(g) == oracles.signature_by_charpoly(g)


def test_signature_at_rank_65():
    # The A~64 model Gram (-a_ij + 2): the content division keeps the entries
    # at minor size, so this takes milliseconds; without it, rank 25 takes minutes.
    gram = [[2 - e for e in row] for row in roots.standard_affine_matrix("A", 64).entries]
    assert linalg.signature(gram) == (1, 64, 0)


def test_integer_system_divisibility():
    system = linalg.IntegerSystem([[2, 4]], 2)
    assert system.solve([3]) is None
    sol = system.solve([6])
    assert 2 * sol[0] + 4 * sol[1] == 6
    assert system.kernel() == [(2, -1)]


def test_quadratic_form_rejects_non_positive_definite():
    for gram in ([[0]], [[-2]], [[2, 3], [3, 2]], [[1, 1], [1, 1]]):
        with pytest.raises(ValueError):
            linalg.QuadraticForm(gram)
    with pytest.raises(TypeError):
        linalg.QuadraticForm([[Fraction(1, 2)]])


@pytest.mark.parametrize("value", [0, 7, -3, 10 ** 30])
def test_normalize_keeps_ints(value):
    assert linalg.normalize_number(value) is value
    assert linalg.normalize_vector([value, Fraction(4, 2), Fraction(1, 2)]) == (
        value, 2, Fraction(1, 2))
    assert type(linalg.normalize_vector([Fraction(4, 2)])[0]) is int


def test_normalize_bool_takes_the_rational_path():
    assert linalg.normalize_number(True) is True
    assert linalg.normalize_vector([True, False]) == (1, 0)
    assert all(type(c) is int for c in linalg.normalize_vector([True, False]))
