"""Labelling conventions of the ADE recognisers, pinned on permuted inputs.

The standard-order reports are pinned by ``perfbench/digests.json``; this
file pins what the recognisers do on every relabelling of those inputs:
which input node gets which standard label, for ``classify_affine``,
``delete_node`` and ``classify_finite``.  A rewrite of a recogniser must
reproduce the digest exactly.
"""

import hashlib
import itertools
import random
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as hst

from k3walls import families, roots
from k3walls.errors import NotAffineADE, NotFiniteADE
from test_roots import permuted

#: sha256 over the labellings of every sweep type (see ``_convention_digest``).
CONVENTION_DIGEST = "28d91b67f434fb7001cd0131a557343be24fbf5b201aa86504deb345169a84ec"


def _permutations(n_nodes, rng):
    """All permutations of up to 6 nodes, else 20 drawn from ``rng``."""
    if n_nodes <= 6:
        return list(itertools.permutations(range(n_nodes)))
    out = []
    for _ in range(20):
        perm = list(range(n_nodes))
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def _convention_digest():
    rng = random.Random(20020)
    digest = hashlib.sha256()
    for family, n in families.SWEEP_TYPES:
        affine = roots.standard_affine_matrix(family, n)
        for perm in _permutations(n + 1, rng):
            diagram = roots.classify_affine(permuted(affine, perm))
            deleted = tuple(roots.delete_node(diagram, i).node_perm
                            for i, mark in enumerate(diagram.marks) if mark == 1)
            digest.update(repr((diagram.node_perm, diagram.marks, deleted)).encode())
        finite = roots.standard_finite_matrix(family, n)
        for perm in _permutations(n, rng):
            digest.update(repr(roots.classify_finite(permuted(finite, perm)).node_perm).encode())
    return digest.hexdigest()


def test_labelling_conventions_digest():
    assert _convention_digest() == CONVENTION_DIGEST


def _check_affine(matrix, diagram):
    """``diagram`` is an exact relabelling of ``matrix`` with its kernel marks."""
    n = matrix.n_nodes
    std = roots.standard_affine_matrix(diagram.family, diagram.rank)
    perm = diagram.node_perm
    assert sorted(perm) == list(range(n))
    assert all(matrix.entries[i][j] == std.entries[perm[i]][perm[j]]
               for i in range(n) for j in range(n))
    marks = diagram.marks
    assert all(m > 0 for m in marks)
    assert gcd(*marks) == 1
    assert all(sum(marks[i] * matrix.entries[i][j] for i in range(n)) == 0 for j in range(n))
    assert marks[diagram.affine_node] == 1


def _check_finite(matrix, diagram):
    n = matrix.n_nodes
    std = roots.standard_finite_matrix(diagram.family, diagram.rank)
    perm = [p - 1 for p in diagram.node_perm]
    assert sorted(perm) == list(range(n))
    assert all(matrix.entries[i][j] == std.entries[perm[i]][perm[j]]
               for i in range(n) for j in range(n))


@hst.composite
def sparse_matrices(draw):
    """Symmetric {0, -1, -2} off-diagonal matrices with about as many edges as nodes."""
    n = draw(hst.integers(1, 12))
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1),
                                      hst.sampled_from((-1, -1, -1, -2))),
                           max_size=n + 2))
    for i, j, e in edges:
        if i != j:
            g[i][j] = g[j][i] = e
    return roots.CartanMatrix(g)


@hst.composite
def dense_matrices(draw):
    n = draw(hst.integers(1, 7))
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(hst.sampled_from((0, -1, -2)))
    return roots.CartanMatrix(g)


@hst.composite
def perturbed_standard(draw):
    """A permuted standard affine or finite matrix with a few entries changed."""
    family, n = draw(hst.sampled_from(families.SWEEP_TYPES))
    make = draw(hst.sampled_from((roots.standard_affine_matrix, roots.standard_finite_matrix)))
    std = make(family, n)
    g = [list(row) for row in permuted(std, draw(hst.permutations(range(std.n_nodes)))).entries]
    size = len(g)
    for _ in range(draw(hst.integers(0, 2))):
        i, j = draw(hst.integers(0, size - 1)), draw(hst.integers(0, size - 1))
        if i != j:
            g[i][j] = g[j][i] = draw(hst.sampled_from((0, -1, -2)))
    return roots.CartanMatrix(g)


@settings(max_examples=400, deadline=None)
@given(hst.one_of(sparse_matrices(), dense_matrices(), perturbed_standard()))
def test_recognisers_raise_only_their_own_error(matrix):
    try:
        diagram = roots.classify_affine(matrix)
    except NotAffineADE:
        pass
    else:
        _check_affine(matrix, diagram)
    try:
        diagram = roots.classify_finite(matrix)
    except NotFiniteADE:
        pass
    else:
        _check_finite(matrix, diagram)
