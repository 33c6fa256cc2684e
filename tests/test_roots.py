import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from conftest import clear_library_caches
from k3walls import roots
from k3walls.errors import (CapExceeded, MarkNotOne, NodeOutOfRange, NotAffineADE,
                            NotFiniteADE)

ALL_AFFINE = ([("A", n) for n in range(1, 19)] + [("D", n) for n in range(4, 19)]
              + [("E", n) for n in (6, 7, 8)])


def permuted(matrix, perm):
    n = matrix.n_nodes
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return roots.CartanMatrix(
        [[matrix.entries[inv[a]][inv[b]] for b in range(n)] for a in range(n)])


def test_cartan_matrix_refuses_non_integer_entries():
    for half in (Fraction(-3, 2), -1.5):
        with pytest.raises(ValueError):
            roots.CartanMatrix([[2, half], [half, 2]])
    m = roots.CartanMatrix([[Fraction(2), Fraction(-1)], [-1.0, 2]])
    assert m.entries == ((2, -1), (-1, 2)) and roots.classify_finite(m).type_name() == "A2"


def test_cartan_matrix_refuses_infinite_and_nan_entries():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="Cartan matrix entries must be integers"):
            roots.CartanMatrix([[2, bad], [bad, 2]])


@pytest.mark.parametrize("entries, fault", [
    ([[2, -1], [-1, 2, 0]], "Cartan matrix must be square"),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 2]], "diagonal entry 1 must be 2, got 3"),
    ([[2, 1], [0, 2]], "Cartan matrix not symmetric at (0,1)"),
    ([[2, 0, 1], [0, 2, 0], [1, 0, 2]], "off-diagonal entry (0,2) must be <= 0"),
    # Row 0's pairs come before row 1's diagonal and row 1's pairs.
    ([[2, -1, 0], [0, 5, 0], [0, 0, 2]], "Cartan matrix not symmetric at (0,1)"),
    ([[2, 0, 1], [0, 2, -1], [1, 0, 2]], "off-diagonal entry (0,2) must be <= 0"),
    # Row 0's diagonal before the pair (1,2).
    ([[3, -1, 0], [-1, 2, -1], [0, 0, 2]], "diagonal entry 0 must be 2, got 3"),
])
def test_cartan_matrix_names_the_first_fault_in_row_order(entries, fault):
    with pytest.raises(ValueError) as exc:
        roots.CartanMatrix(entries)
    assert str(exc.value) == fault


@pytest.mark.parametrize("entries", [
    [[2, -1, 0], [-1, 2, 0], [0]],  # a later row shorter than an earlier pair index
    [[2, -1, 0], [-1, 2], [0, 0, 2]],
    [[2, -1], [-1]],
    [[2], []],
    [[2, 0, 0], [0, 2, 0, 0], [0, 0, 2]],
    [[3, -1, 0], [-1, 2, 0], [0]],  # row lengths come before row 0's diagonal
    [[]],
])
def test_cartan_matrix_refuses_ragged_shapes(entries):
    with pytest.raises(ValueError) as exc:
        roots.CartanMatrix(entries)
    assert str(exc.value) == "Cartan matrix must be square"


@pytest.mark.parametrize("family, n, text", [
    ("A", 0, "family A needs n >= 1, got 0"),
    ("D", 3, "family D needs n >= 4, got 3"),
    ("E", 9, "family E needs n in {6, 7, 8}, got 9"),
    ("F", 4, "family must be A, D or E, got 'F'"),
])
def test_type_table_refuses_types_that_do_not_exist(family, n, text):
    for check in (roots.check_type, roots.finite_edges, roots.affine_edges):
        with pytest.raises(ValueError) as exc:
            check(family, n)
        assert str(exc.value) == text


def test_classify_affine_examples():
    d = roots.classify_affine(roots.CartanMatrix([[2, -2], [-2, 2]]))
    assert (d.family, d.rank, d.marks) == ("A", 1, (1, 1))
    d2 = roots.classify_affine(roots.CartanMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))
    assert (d2.family, d2.rank, d2.marks) == ("A", 2, (1, 1, 1))
    with pytest.raises(NotAffineADE):
        roots.classify_affine(roots.CartanMatrix([[2, -1], [-1, 2]]))


def test_classify_affine_rejects_junk():
    with pytest.raises(NotAffineADE):  # disconnected
        roots.classify_affine(roots.CartanMatrix([[2, 0], [0, 2]]))
    with pytest.raises(NotAffineADE):  # -2 entry beyond rank 1
        roots.classify_affine(roots.CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]]))
    with pytest.raises(NotAffineADE):  # finite D4 shape
        roots.classify_affine(roots.standard_finite_matrix("D", 4))
    with pytest.raises(NotAffineADE):  # hyperbolic loop with a tail
        roots.classify_affine(roots.CartanMatrix(
            [[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]))
    for entries in ([], [[2]], [[2, -1], [-1, 2]]):  # fewer than 3 nodes, not A~1
        with pytest.raises(NotAffineADE):
            roots.classify_affine(roots.CartanMatrix(entries))


def test_classification_recovers_random_permutations():
    rng = random.Random(42)
    cases = 0
    for family, n in ALL_AFFINE:
        std = roots.standard_affine_matrix(family, n)
        for _ in range(4):
            perm = list(range(n + 1))
            rng.shuffle(perm)
            got = roots.classify_affine(permuted(std, perm))
            assert (got.family, got.rank) == (family, n)
            std_marks = got.marks_standard()
            assert std_marks == roots.classify_affine(std).marks_standard()
            cases += 1
    assert cases >= 100


def test_marks_examples():
    assert roots.marks(roots.standard_affine_matrix("A", 1)) == (1, 1)
    d4 = roots.classify_affine(roots.standard_affine_matrix("D", 4))
    center = [i for i in range(5) if d4.marks[i] == 2]
    assert len(center) == 1 and sorted(d4.marks) == [1, 1, 1, 1, 2]
    e8 = roots.classify_affine(roots.standard_affine_matrix("E", 8))
    assert e8.marks.count(1) == 1


def test_marks_kernel_property():
    # The marks are read from a per-type table through node_perm; check them
    # against the kernel of the permuted input itself, for every type.
    rng = random.Random(1)
    for family, n in ALL_AFFINE:
        for _ in range(4):
            perm = list(range(n + 1))
            rng.shuffle(perm)
            m = permuted(roots.standard_affine_matrix(family, n), perm)
            marks = roots.marks(m)
            assert all(v > 0 for v in marks) and gcd(*marks) == 1
            for j in range(m.n_nodes):
                assert sum(marks[i] * m.entries[i][j] for i in range(m.n_nodes)) == 0


def test_rejection_messages_name_the_matrix():
    with pytest.raises(NotAffineADE) as affine:
        roots.classify_affine(roots.CartanMatrix([[2, -1], [-1, 2]]))
    assert str(affine.value) == "not an affine ADE Cartan matrix: CartanMatrix([[2, -1], [-1, 2]])"
    with pytest.raises(NotFiniteADE) as finite:
        roots.classify_finite(roots.standard_affine_matrix("A", 2))
    assert str(finite.value) == ("not a finite ADE Cartan matrix: "
                                 "CartanMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])")


def test_delete_node_examples():
    a2 = roots.classify_affine(roots.standard_affine_matrix("A", 2))
    for node in range(3):
        assert roots.delete_node(a2, node).type_name() == "A2"
    a1 = roots.classify_affine(roots.standard_affine_matrix("A", 1))
    assert roots.delete_node(a1, 0).type_name() == "A1"
    e8 = roots.classify_affine(roots.standard_affine_matrix("E", 8))
    one = e8.marks.index(1)
    assert roots.delete_node(e8, one).type_name() == "E8"


def test_delete_node_every_mark_one():
    for family, n in ALL_AFFINE:
        diagram = roots.classify_affine(roots.standard_affine_matrix(family, n))
        for i, mark in enumerate(diagram.marks):
            if mark == 1:
                fin = roots.delete_node(diagram, i)
                assert (fin.family, fin.rank) == (family, n)
            else:
                with pytest.raises(MarkNotOne):
                    roots.delete_node(diagram, i)


@pytest.mark.parametrize("family, n", [("D", 4), ("A", 3)])
def test_delete_node_refuses_indices_outside_the_diagram(family, n):
    # Negative indices do not wrap, and the refusal comes before the mark check.
    diagram = roots.classify_affine(roots.standard_affine_matrix(family, n))
    size = len(diagram.marks)
    before = roots.delete_node.cache_info().currsize
    for node in (-1, -size, -size - 1, size):
        with pytest.raises(NodeOutOfRange) as exc:
            roots.delete_node(diagram, node)
        assert str(exc.value) == f"node {node} is out of range; the diagram has nodes 0..{size - 1}"
    assert roots.delete_node.cache_info().currsize == before
    assert roots.delete_node(diagram, diagram.affine_node).type_name() == f"{family}{n}"


def _diagram(n, edges):
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return roots.CartanMatrix(g)


#: Candidates with n - 1 edges and no degree above 3 that are not finite ADE:
#: disconnected, or with two branch nodes.
NOT_FINITE = {
    "path+cycle": (5, [(0, 1), (2, 3), (3, 4), (4, 2)]),
    "cycle+path": (5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
    "node+cycle": (4, [(1, 2), (2, 3), (3, 1)]),
    "D4+node": (5, [(0, 1), (0, 2), (0, 3)]),
    "star+cycle": (8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 4)]),
    "two branches, one component": (7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)]),
    "two branches, H shape": (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]),
    "star+branched cycle": (8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4), (6, 7)]),
    "branched cycle+star": (8, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (4, 6), (4, 7)]),
}


def test_classify_finite_rejects():
    with pytest.raises(NotFiniteADE):
        roots.classify_finite(roots.standard_affine_matrix("A", 3))  # cycle
    with pytest.raises(NotFiniteADE):
        roots.classify_finite(roots.standard_affine_matrix("E", 8))  # affine tree
    with pytest.raises(NotFiniteADE):
        roots.classify_finite(roots.CartanMatrix([[2, 0], [0, 2]]))  # disconnected
    for n, edges in NOT_FINITE.values():
        with pytest.raises(NotFiniteADE):
            roots.classify_finite(_diagram(n, edges))


def finite(family, n):
    return roots.classify_finite(roots.standard_finite_matrix(family, n))


def test_positive_roots_examples():
    assert roots.positive_roots(finite("A", 1)) == ((1,),)
    assert set(roots.positive_roots(finite("A", 2))) == {(1, 0), (0, 1), (1, 1)}
    assert len(roots.positive_roots(finite("E", 8))) == 120


def test_positive_root_counts_with_box_oracle():
    for family, n, expected in ([("A", n, n * (n + 1) // 2) for n in range(1, 9)]
                                + [("D", n, n * (n - 1)) for n in range(4, 9)]
                                + [("E", 6, 36), ("E", 7, 63), ("E", 8, 120)]):
        diagram = finite(family, n)
        got = roots.positive_roots(diagram)
        assert len(got) == expected, (family, n)
        assert set(got) == oracles.box_positive_roots(diagram.matrix.entries), (family, n)


FINITE_UP_TO_8 = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
                  + [("E", n) for n in (6, 7, 8)])


def moved_box_roots(standard, perm):
    """The box oracle's roots of ``standard``, node i moved to node ``perm[i]``."""
    moved = set()
    for b in oracles.box_positive_roots(standard.entries):
        root = [0] * standard.n_nodes
        for i, p in enumerate(perm):
            root[p] = b[i]
        moved.add(tuple(root))
    return moved


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(FINITE_UP_TO_8), hst.data())
def test_positive_roots_on_permuted_matrices(type_, data):
    # Input node i of the standard matrix becomes node perm[i]; the box
    # oracle's roots of the standard matrix move with it.
    std = roots.standard_finite_matrix(*type_)
    perm = data.draw(hst.permutations(range(std.n_nodes)))
    diagram = roots.classify_finite(permuted(std, perm))
    assert roots.positive_roots(diagram) == tuple(sorted(moved_box_roots(std, perm)))


def _check_tree(diagram):
    """The structure ``root_tree`` promises; returns its set of roots."""
    n = diagram.matrix.n_nodes
    tree = roots.root_tree(diagram)
    found = [b for b, _, _ in tree]
    assert all(a < b for a, b in zip(found, found[1:]))  # lexicographic, so no root twice
    assert roots.positive_roots(diagram) == tuple(found)
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    for k, (b, parent, i) in enumerate(tree):
        if b in simple:
            assert parent is None and b == simple[i]
        else:
            assert parent is not None and 0 <= parent < k
            before = tree[parent][0]
            assert b == before[:i] + (before[i] + 1,) + before[i + 1:]
    assert sum(parent is None for _, parent, _ in tree) == n
    return set(found)


def test_root_tree_against_box_oracle():
    for family, n in FINITE_UP_TO_8:
        diagram = finite(family, n)
        found = _check_tree(diagram)
        assert found == oracles.box_positive_roots(diagram.matrix.entries), (family, n)
    for family, n, count in [("A", 18, 171), ("D", 18, 306)]:
        assert len(_check_tree(finite(family, n))) == count


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(FINITE_UP_TO_8), hst.data())
def test_root_tree_on_permuted_matrices(type_, data):
    std = roots.standard_finite_matrix(*type_)
    perm = data.draw(hst.permutations(range(std.n_nodes)))
    diagram = roots.classify_finite(permuted(std, perm))
    found = _check_tree(diagram)
    assert roots.positive_roots(diagram) == tuple(sorted(found))


ALL_FINITE = ([("A", n) for n in range(1, 19)] + [("D", n) for n in range(4, 19)]
              + [("E", n) for n in (6, 7, 8)])
MEMOS = (roots.classify_affine, roots.delete_node, roots.root_tree)


def draw_permuted(data, standard):
    """``standard`` with its nodes relabelled by a drawn permutation, and the permutation."""
    perm = data.draw(hst.permutations(range(standard.n_nodes)))
    return permuted(standard, perm), perm


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from(ALL_AFFINE), hst.data())
def test_memoized_classify_affine_matches_the_uncached(type_, data):
    m, _ = draw_permuted(data, roots.standard_affine_matrix(*type_))
    first = roots.classify_affine(m)
    assert first == roots.classify_affine.__wrapped__(m)
    assert roots.classify_affine(roots.CartanMatrix(m.entries)) is first
    for node in [k for k, mark in enumerate(first.marks) if mark == 1]:
        assert roots.delete_node(first, node) == roots.delete_node.__wrapped__(first, node)


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from(ALL_FINITE), hst.data())
def test_memoized_classify_finite_and_tree_match_the_uncached(type_, data):
    # The tree is also checked against the box oracle up to rank 8 (its box
    # search is too slow past that) and against the root count beyond.
    std = roots.standard_finite_matrix(*type_)
    m, perm = draw_permuted(data, std)
    diagram = roots.classify_finite(m)
    tree = roots.root_tree(diagram)
    assert tree == roots.root_tree.__wrapped__(diagram)
    assert roots.root_tree(roots.classify_finite(roots.CartanMatrix(m.entries))) is tree
    found = _check_tree(diagram)
    family, n = type_
    if n <= 8:
        assert found == moved_box_roots(std, perm)
    else:
        assert len(found) == (n * (n + 1) // 2 if family == "A" else n * (n - 1))


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from([t for t in ALL_AFFINE if t[1] >= 3]), hst.booleans(), hst.data())
def test_non_ade_matrices_raise_on_every_call(type_, add_edge, data):
    # An affine diagram with one edge more, or one edge doubled, is neither
    # affine nor finite.  A call that raises caches nothing: the second affine
    # call misses and raises again.  classify_finite has no memo.
    m, _ = draw_permuted(data, roots.standard_affine_matrix(*type_))
    n = m.n_nodes
    entries = [list(row) for row in m.entries]
    i, j = data.draw(hst.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)
                                       if (entries[i][j] == 0) == add_edge]))
    entries[i][j] = entries[j][i] = -1 if add_edge else -2
    junk = roots.CartanMatrix(entries)
    before = roots.classify_affine.cache_info()
    for classify, error, matrix in ((roots.classify_affine, NotAffineADE, junk),
                                    (roots.classify_finite, NotFiniteADE, junk),
                                    (roots.classify_finite, NotFiniteADE, m)):
        for _ in range(2):
            with pytest.raises(error):
                classify(matrix)
    after = roots.classify_affine.cache_info()
    assert (after.misses - before.misses, after.currsize) == (2, before.currsize)


def test_memos_stay_within_their_bound():
    rng = random.Random(23)

    def distinct_permutations(standard):
        matrices = {}  # insertion ordered
        while len(matrices) < 200:
            perm = list(range(standard.n_nodes))
            rng.shuffle(perm)
            matrices.setdefault(permuted(standard, perm))
        return list(matrices)

    for m in distinct_permutations(roots.standard_affine_matrix("D", 8)):
        affine = roots.classify_affine(m)
        roots.delete_node(affine, affine.affine_node)
    for m in distinct_permutations(roots.standard_finite_matrix("D", 8)):
        roots.root_tree(roots.classify_finite(m))
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.currsize == info.maxsize == 128, memo


def test_root_tree_refuses_affine_diagrams():
    # An affine root system is infinite; a refusal counts a miss but caches nothing.
    before = roots.root_tree.cache_info().currsize
    for family, n in ALL_AFFINE:
        diagram = roots.classify_affine(roots.standard_affine_matrix(family, n))
        for func in (roots.root_tree, roots.positive_roots, roots.lie_algebra_dimension):
            with pytest.raises(NotFiniteADE, match="infinitely many roots"):
                func(diagram)
    assert roots.root_tree.cache_info().currsize == before


def test_clear_library_caches_empties_every_memo():
    roots.root_tree(finite("E", 6))
    assert clear_library_caches() == [
        "errors._fields_builder", "families._type_data", "roots._standard_marks", "roots.classify_affine",
        "roots.delete_node", "roots.root_tree", "roots.standard_affine_matrix",
        "roots.standard_finite_matrix"]
    assert all(memo.cache_info().currsize == 0 for memo in MEMOS)


def test_highest_root():
    # The root of greatest height dominates every positive root coefficient-wise.
    def top(diagram):
        found = roots.positive_roots(diagram)
        best = max(found, key=sum)
        assert all(all(t >= b for t, b in zip(best, root)) for root in found)
        return best

    assert top(finite("A", 2)) == (1, 1)
    assert top(finite("A", 1)) == (1,)
    assert top(finite("D", 4)) == (1, 2, 1, 1)
    # equals the affine marks restricted to the finite nodes
    for family, n in [("A", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        aff = roots.classify_affine(roots.standard_affine_matrix(family, n))
        assert top(finite(family, n)) == aff.marks_standard()[1:]


def test_simple_reflection():
    a1 = finite("A", 1)
    assert roots.simple_reflection(a1, 1, (1,)) == (-1,)
    a2 = finite("A", 2)
    assert roots.simple_reflection(a2, 1, (0, 1)) == (1, 1)
    rng = random.Random(2)
    d5 = finite("D", 5)
    for _ in range(200):
        x = tuple(rng.randint(-4, 4) for _ in range(5))
        i = rng.randint(1, 5)
        y = roots.simple_reflection(d5, i, x)
        assert roots.simple_reflection(d5, i, y) == x
        assert oracles.root_norm(d5.matrix.entries, y) == oracles.root_norm(d5.matrix.entries, x)
        if roots._pairing_with_simple(d5.matrix, x, i - 1) == 0:
            assert y == x
    with pytest.raises(ValueError):
        roots.simple_reflection(a2, 3, (1, 0))


def test_weyl_orbit(monkeypatch):
    a2 = finite("A", 2)
    orbit = roots.weyl_orbit(a2, (1, 0))
    assert len(orbit) == 6
    pos = set(roots.positive_roots(a2))
    assert orbit == pos | {tuple(-c for c in b) for b in pos}
    assert roots.weyl_orbit(a2, (0, 0)) == frozenset({(0, 0)})
    a1 = finite("A", 1)
    assert roots.weyl_orbit(a1, (1,)) == frozenset({(1,), (-1,)})
    monkeypatch.setattr(roots, "ORBIT_CAP", 3)
    with pytest.raises(CapExceeded):
        roots.weyl_orbit(finite("A", 3), (1, 0, 0))


def test_weyl_group_order():
    expected = {1: 2, 2: 6, 3: 24, 4: 120}
    for n, order in expected.items():
        assert roots.weyl_group_order(finite("A", n)) == order
    assert roots.weyl_group_order(finite("D", 4)) == 192
    assert [roots.weyl_group_order(finite("E", n)) for n in (6, 7, 8)] == [
        51840, 2903040, 696729600]
    with pytest.raises(NotFiniteADE):
        roots.weyl_group_order(roots.classify_affine(roots.standard_affine_matrix("A", 3)))


def test_weyl_group_order_against_enumeration():
    for family, n in ([("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 7)]
                      + [("E", 6)]):
        diagram = finite(family, n)
        assert roots.weyl_group_order(diagram) == oracles.weyl_group_order_bfs(
            diagram.matrix.entries), (family, n)


def test_dual_reflection():
    d = finite("A", 3)
    for i in (0, 4):
        with pytest.raises(ValueError, match=rf"^reflection index {i} out of range 1\.\.3$"):
            roots.dual_reflection(d, i, (1, 2, 3))
    assert roots.dual_reflection(d, 1, (-1, 0, 2)) == (1, -1, 2)
    # A zero value reflects to the vector it came from.
    assert roots.dual_reflection(d, 2, (5, 0, Fraction(-7, 2))) == (5, 0, Fraction(-7, 2))


def test_reduce_to_fundamental():
    a2 = finite("A", 2)
    word, values, on_wall = roots.reduce_to_fundamental(a2, (2, 5))
    assert word == () and values == (2, 5) and not on_wall
    a1 = finite("A", 1)
    word, values, on_wall = roots.reduce_to_fundamental(a1, (-3,))
    assert word == (1,) and values == (3,) and not on_wall
    word, values, on_wall = roots.reduce_to_fundamental(a2, (-1, -1))
    assert len(word) <= 3 and all(v >= 0 for v in values)
    # inverse word recovers the input
    assert roots.apply_word_dual(a2, tuple(reversed(word)), values) == (-1, -1)
    _, values, on_wall = roots.reduce_to_fundamental(a2, (0, -2))
    assert on_wall and all(v >= 0 for v in values)


def test_reduce_random_round_trip():
    rng = random.Random(31)
    e6 = finite("E", 6)
    for _ in range(100):
        t = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(6))
        word, reduced, _ = roots.reduce_to_fundamental(e6, t)
        assert all(v >= 0 for v in reduced)
        assert roots.apply_word_dual(e6, word, t) == reduced
        assert roots.apply_word_dual(e6, tuple(reversed(word)), reduced) == t


def test_lie_algebra_dimension():
    assert roots.lie_algebra_dimension(finite("A", 1)) == 3
    assert roots.lie_algebra_dimension(finite("A", 2)) == 8
    assert roots.lie_algebra_dimension(finite("E", 8)) == 248
