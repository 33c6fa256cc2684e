"""Finite and affine ADE Cartan matrices, root enumeration, Weyl machinery.

Recognition is graph-theoretic: off-diagonal entries give the adjacency of
the diagram, the single non-simply-laced case being the rank-1 affine matrix
[[2,-2],[-2,2]].  One labeller reads a finite diagram's shape and gives its
nodes the Bourbaki labels 1..n.  An affine diagram is a finite one plus an
extending node of mark 1: the shape picks that node, the labeller labels the
rest, and the extending node gets label 0, so A-cycles are numbered around
the cycle from it.  ``node_perm`` always maps input node indices to these
standard labels, and every classification is verified by exact matrix
equality after permutation, so a malformed shape can never be mislabelled.
"""

from fractions import Fraction
from functools import cache, lru_cache
from math import prod
from operator import add, mul

from . import linalg
from .errors import (CapExceeded, InvariantError, MarkNotOne, NodeOutOfRange,
                     NotAffineADE, NotFiniteADE, _Record)

ORBIT_CAP = 10 ** 6


class CartanMatrix(_Record):
    """Symmetric integer matrix with 2s on the diagonal, <= 0 off it."""

    __slots__ = ("n_nodes", "entries")

    def __init__(self, entries):
        entries = linalg.integer_rows(entries, "Cartan matrix")
        n = len(entries)
        if any(len(row) != n for row in entries):  # before the pair loop reads later rows
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if entries[i][i] != 2:
                raise ValueError(f"diagonal entry {i} must be 2, got {entries[i][i]}")
            for j in range(i + 1, n):  # a pair (i, j) with j < i was checked at row j
                if entries[i][j] != entries[j][i]:
                    raise ValueError(f"Cartan matrix not symmetric at ({i},{j})")
                if entries[i][j] > 0:
                    raise ValueError(f"off-diagonal entry ({i},{j}) must be <= 0")
        super().__init__(n, entries)

    def __repr__(self):
        return f"CartanMatrix({[list(r) for r in self.entries]})"


class AffineDiagram(_Record):
    """A recognized affine ADE Cartan matrix.

    ``rank`` is the n of the extended type; ``node_perm[i]`` is the standard
    label (0..n, 0 = extending node) of input node ``i``; ``marks`` are the
    kernel marks in input node order.
    """

    __slots__ = ("family", "rank", "node_perm", "marks", "matrix")

    @property
    def affine_node(self):
        """Input index of the extending node (standard label 0)."""
        return self.node_perm.index(0)

    def marks_standard(self):
        """The marks in standard label order: the table ``marks`` was read from."""
        return _standard_marks(self.family, self.rank)

    def type_name(self):
        return f"{self.family}~{self.rank}"


class FiniteDiagram(_Record):
    """A recognized finite ADE Cartan matrix.

    ``node_perm[i]`` is the Bourbaki label (1..n) of input node ``i``;
    ``matrix`` keeps the entries in input node order, which is what the root
    and Weyl operations below act on.
    """

    __slots__ = ("family", "rank", "node_perm", "matrix")

    def type_name(self):
        return f"{self.family}{self.rank}"


def check_type(family, n):
    """The one type table of X_n and X~n: ``ValueError`` unless A n >= 1, D n >= 4 or E n in 6..8."""
    if family not in ("A", "D", "E"):
        raise ValueError(f"family must be A, D or E, got {family!r}")
    if family == "A" and n < 1:
        raise ValueError(f"family A needs n >= 1, got {n}")
    if family == "D" and n < 4:
        raise ValueError(f"family D needs n >= 4, got {n}")
    if family == "E" and n not in (6, 7, 8):
        raise ValueError(f"family E needs n in {{6, 7, 8}}, got {n}")


def finite_edges(family, n):
    """Edge list of the finite ADE diagram on Bourbaki labels 1..n; see :func:`check_type`."""
    check_type(family, n)
    if family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        return [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    chain = [(1, 3)] + [(i, i + 1) for i in range(3, n)]
    return chain + [(2, 4)]


def affine_edges(family, n):
    """Edge list of the extended diagram on labels 0..n (n >= 2 for family A)."""
    edges = finite_edges(family, n)
    if family == "A":
        if n < 2:
            raise ValueError("the rank-1 affine A matrix is not simply laced")
        return edges + [(0, 1), (0, n)]
    if family == "D":
        return edges + [(0, 2)]
    attach = {6: 2, 7: 1, 8: 8}
    return edges + [(0, attach[n])]


def _gram_from_edges(n_nodes, edges):
    g = [[2 if i == j else 0 for j in range(n_nodes)] for i in range(n_nodes)]
    for a, b in edges:
        g[a][b] = g[b][a] = -1
    return tuple(tuple(row) for row in g)


@cache
def standard_affine_matrix(family, n):
    if family == "A" and n == 1:
        return CartanMatrix(((2, -2), (-2, 2)))
    return CartanMatrix(_gram_from_edges(n + 1, affine_edges(family, n)))


@cache
def standard_finite_matrix(family, n):
    return CartanMatrix(_gram_from_edges(n, [(a - 1, b - 1) for a, b in finite_edges(family, n)]))


class _NotADE(Exception):
    """A shape that is no ADE diagram; the public classifiers re-raise it with their text."""


def _adjacency(matrix):
    """Neighbour lists of the diagram, ascending; :class:`_NotADE` on an entry below -1."""
    if min(map(min, matrix.entries), default=0) < -1:
        raise _NotADE
    return [[j for j, e in enumerate(row) if e and j != i] for i, row in enumerate(matrix.entries)]


def _without(items, i):
    """``items`` with position ``i`` left out."""
    return items[:i] + items[i + 1:]


def _arms(adj, center):
    """Paths walking outward from ``center``, shortest first; :class:`_NotADE` on a branch."""
    arms = []
    for first in adj[center]:
        arm = [first]
        prev, cur = center, first
        while True:
            nxt = [k for k in adj[cur] if k != prev]
            if not nxt:
                break
            if len(nxt) > 1 or len(adj[cur]) > 2:
                raise _NotADE
            prev, cur = cur, nxt[0]
            arm.append(cur)
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), a[0]))
    return arms


def _finite_labels(adj):
    """``(family, rank, node_perm)`` of a finite ADE tree, read off its shape.

    ``node_perm`` holds Bourbaki labels 1..n: A is numbered from its lower
    end, D and E outward along the arms of the branch node.  Only the shape
    is read; callers verify the labelling against the standard matrix.
    """
    n = len(adj)
    degrees = [len(a) for a in adj]
    if sum(degrees) != 2 * (n - 1) or max(degrees) > 3:
        raise _NotADE
    perm = [None] * n
    if 3 not in degrees:
        start = degrees.index(min(degrees))  # the lower end, or the lone node of A1
        family, labels = "A", (range(1, n + 1),)
        arms = ([start] + [node for arm in _arms(adj, start) for node in arm],)
    else:
        center = degrees.index(3)  # _arms refuses a second branch node in its component
        arms = _arms(adj, center)
        lengths = tuple(len(a) for a in arms)
        if lengths[1] == 1:
            family, perm[center] = "D", n - 2
            labels = ((1,), (3,), (4,)) if n == 4 else ((n - 1,), (n,), range(n - 3, 0, -1))
        elif lengths in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
            family, perm[center] = "E", 4
            labels = ((2,), (3, 1), range(5, n + 1))
        else:
            raise _NotADE
    for arm, stds in zip(arms, labels):
        for node, std in zip(arm, stds):
            perm[node] = std
    if None in perm:  # the walk labels one component: the graph has another
        raise _NotADE
    return family, n, tuple(perm)


@cache
def _standard_marks(family, n):
    """The marks of ``X~n`` in standard label order: the primitive positive kernel vector."""
    matrix = standard_affine_matrix(family, n)
    kernel = linalg.integer_kernel([list(r) for r in matrix.entries], matrix.n_nodes)
    if len(kernel) != 1 or min(kernel[0]) <= 0 or linalg.content(kernel[0]) != 1:
        raise InvariantError(f"{family}~{n} has no primitive positive kernel vector: {kernel}")
    return kernel[0]


def _verify_perm(matrix, perm, standard):
    """:class:`_NotADE` unless ``matrix`` is ``standard`` with node ``i`` relabelled ``perm[i]``."""
    n = matrix.n_nodes
    for i in range(n):
        for j in range(n):
            if matrix.entries[i][j] != standard.entries[perm[i]][perm[j]]:
                raise _NotADE


#: Sorted arm lengths of an extended E star -> the arm that ends in the extending node.
_E_EXTENDING_ARM = {(2, 2, 2): 2, (1, 3, 3): 1, (1, 2, 5): 2}


def _affine_labels(matrix):
    """``(family, rank, node_perm)`` of an affine ADE matrix, verified; else :class:`_NotADE`."""
    n = matrix.n_nodes
    if n == 2 and matrix.entries == ((2, -2), (-2, 2)):
        return "A", 1, (0, 1)
    adj = _adjacency(matrix)
    degrees = [len(a) for a in adj]
    branches = [i for i, d in enumerate(degrees) if d > 2]
    if sum(degrees) == 2 * n:
        # as many edges as nodes: extended A, a cycle
        extending = 0
    elif len(branches) == 2:
        # extended D_n, n >= 5: a leaf at the first branch node
        leaves = [k for k in adj[branches[0]] if degrees[k] == 1]
        if not leaves:
            raise _NotADE
        extending = leaves[0]
    elif len(branches) == 1 and degrees[branches[0]] == 4:
        # extended D_4
        extending = adj[branches[0]][0]
    elif len(branches) == 1:
        # extended E: the end of one arm of the star
        arms = _arms(adj, branches[0])
        arm = _E_EXTENDING_ARM.get(tuple(len(a) for a in arms))
        if arm is None:
            raise _NotADE
        extending = arms[arm][-1]
    else:
        raise _NotADE

    rest = [[j - (j > extending) for j in a if j != extending] for a in _without(adj, extending)]
    family, rank, labels = _finite_labels(rest)
    perm = labels[:extending] + (0,) + labels[extending:]
    _verify_perm(matrix, perm, standard_affine_matrix(family, rank))
    return family, rank, perm


@lru_cache
def classify_affine(matrix):
    """Recognize an affine ADE Cartan matrix up to simultaneous permutation.

    The shape singles out an extending node; the rest is labelled as a
    finite diagram and the extending node gets label 0.  Raises
    :class:`NotAffineADE` for anything else (positive definite matrices,
    wrong graph shapes, entries below -1 other than the rank-1 affine A case).
    The input is verified to be the standard matrix relabelled by ``node_perm``,
    so its marks are the standard marks read through ``node_perm``.  Memoized
    per matrix, as are node deletion and the root tree; a call that raises is
    not cached.
    """
    try:
        family, rank, perm = _affine_labels(matrix)
    except _NotADE:
        raise NotAffineADE(f"not an affine ADE Cartan matrix: {matrix!r}") from None
    std_marks = _standard_marks(family, rank)
    marks = tuple(std_marks[p] for p in perm)
    if marks[perm.index(0)] != 1:
        raise InvariantError(f"affine node has mark {marks[perm.index(0)]}, expected 1")
    return AffineDiagram(family, rank, perm, marks, matrix)


def classify_finite(matrix):
    """Recognize a finite ADE Cartan matrix up to simultaneous permutation."""
    try:
        family, rank, perm = _finite_labels(_adjacency(matrix))
        _verify_perm(matrix, [p - 1 for p in perm], standard_finite_matrix(family, rank))
    except _NotADE:
        raise NotFiniteADE(f"not a finite ADE Cartan matrix: {matrix!r}") from None
    return FiniteDiagram(family, rank, perm, matrix)


def marks(matrix):
    """Marks of an affine ADE Cartan matrix, in input node order.

    The unique primitive positive kernel vector; it satisfies
    ``sum_i a_i M[i][j] == 0`` for every j.
    """
    return classify_affine(matrix).marks


@lru_cache
def delete_node(diagram, i):
    """Delete mark-1 node ``i`` of an affine diagram; classify the rest in input order.

    Raises :class:`NodeOutOfRange` unless ``0 <= i < n`` (negative indices do
    not wrap), then :class:`MarkNotOne` off a mark-1 node.  Memoized per
    ``(diagram, i)``; a call that raises caches nothing."""
    if not 0 <= i < len(diagram.marks):
        raise NodeOutOfRange(
            f"node {i} is out of range; the diagram has nodes 0..{len(diagram.marks) - 1}")
    if diagram.marks[i] != 1:
        raise MarkNotOne(f"node {i} has mark {diagram.marks[i]}, expected 1")
    entries = diagram.matrix.entries
    return classify_finite(CartanMatrix(tuple(_without(row, i) for row in _without(entries, i))))


@lru_cache
def root_tree(diagram):
    """The positive roots as ``(b, parent, i)`` triples, in lexicographic order of ``b``.

    A positive root of height h+1 is always a simple root away from one of
    height h, and for simply laced types b + e_i is a root exactly when
    (b, alpha_i) = -1.  The simple root ``e_i`` has ``parent`` None; every
    other ``parent`` indexes the triple holding ``b - e_i``, which is
    lexicographically smaller and so comes earlier.  An affine root system is
    infinite: :class:`NotFiniteADE`.  Memoized per diagram; a refusal caches
    nothing.
    """
    if not isinstance(diagram, FiniteDiagram):
        raise NotFiniteADE(f"{diagram.type_name()} has infinitely many roots")
    entries = diagram.matrix.entries
    n = len(entries)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    steps = {b: (None, i) for i, b in enumerate(simple)}  # root -> (parent root, simple root)
    # Walked by height: each root travels with its pairings C b against the
    # simple roots; C is symmetric, so C (b + e_i) = C b + entries[i].  The
    # loop reads the list it appends to, a queue.
    queue = list(zip(simple, entries))
    for b, pairings in queue:
        for i, p in enumerate(pairings):
            if p == -1:
                cand = b[:i] + (b[i] + 1,) + b[i + 1:]
                if cand not in steps:
                    steps[cand] = (b, i)
                    queue.append((cand, tuple(map(add, pairings, entries[i]))))
    order = sorted(steps)
    index = {b: k for k, b in enumerate(order)}
    return tuple((b, index.get(steps[b][0]), steps[b][1]) for b in order)


def positive_roots(diagram):
    """All coefficient vectors b >= 0 with b^T C b = 2, sorted; see :func:`root_tree`."""
    return tuple(b for b, _, _ in root_tree(diagram))


def _simple_row(diagram, x, i=1):
    """Row ``i - 1`` of the Cartan matrix, the pairings of the ``i``-th simple root (1-based)
    with the others; ValueError unless ``x`` has one entry per node and ``i`` names a node."""
    entries = diagram.matrix.entries
    n = len(entries)
    if len(x) != n:
        raise ValueError(f"vector of length {len(x)} for a diagram of {n} nodes")
    if not 1 <= i <= n:
        raise ValueError(f"reflection index {i} out of range 1..{n}")
    return entries[i - 1]


def simple_reflection(diagram, i, x):
    """Reflection in the i-th simple root (1-based), in root coordinates."""
    c = sum(map(mul, _simple_row(diagram, x, i), x))  # (x, alpha_i)
    k = i - 1
    return tuple(v - c if j == k else v for j, v in enumerate(x))


def dual_reflection(diagram, i, values):
    """Action of the i-th reflection (1-based) on pairing-value vectors.

    ``values[j]`` is the pairing of the j-th simple root against a point;
    reflecting the point sends values to ``t_j - C[j][i] * t_i`` (C is symmetric).
    """
    row = _simple_row(diagram, values, i)
    t = values[i - 1]
    return tuple(v - c * t for c, v in zip(row, values))


def apply_word_dual(diagram, word, values):
    """Apply a Weyl word to a value vector, rightmost letter first."""
    values = tuple(values)
    _simple_row(diagram, values)  # the length check, which an empty word would skip
    for letter in reversed(word):
        values = dual_reflection(diagram, letter, values)
    return values


def weyl_orbit(diagram, x):
    """BFS closure of a root-coordinate vector under all simple reflections."""
    n = diagram.matrix.n_nodes
    orbit = [tuple(x)]
    seen = set(orbit)
    for y in orbit:
        for i in range(1, n + 1):
            image = simple_reflection(diagram, i, y)
            if image not in seen:
                if len(seen) >= ORBIT_CAP:
                    raise CapExceeded(f"orbit exceeded cap {ORBIT_CAP}")
                seen.add(image)
                orbit.append(image)
    return frozenset(seen)


#: Degrees of the basic invariants of the Weyl groups of E6, E7 and E8.
_E_DEGREES = {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
              8: (2, 8, 12, 14, 18, 20, 24, 30)}


def weyl_group_order(diagram):
    """Order of the Weyl group of a finite diagram.

    It is the product of the degrees of the basic invariants (Humphreys,
    *Reflection Groups and Coxeter Groups*, 3.7): 2..n+1 for A_n, the even
    numbers 2..2n-2 and n for D_n, a table for E.  Affine Weyl groups are
    infinite: :class:`NotFiniteADE`.
    """
    if not isinstance(diagram, FiniteDiagram):
        raise NotFiniteADE(f"{diagram.type_name()} has an infinite Weyl group")
    n = diagram.rank
    if diagram.family == "A":
        return prod(range(2, n + 2))
    if diagram.family == "D":
        return n * prod(range(2, 2 * n - 1, 2))
    return prod(_E_DEGREES[n])


def reduce_to_fundamental(diagram, values):
    """Reflect a value vector into the closed fundamental chamber.

    Applies simple reflections while some entry is negative, recording the
    word.  Returns ``(word, reduced_values, on_wall)`` where the word is
    written so that :func:`apply_word_dual` (rightmost letter first) sends the
    input to the output, and ``on_wall`` flags a zero in the output.
    """
    n = diagram.matrix.n_nodes
    values = tuple(linalg.normalize_number(Fraction(v)) for v in values)
    _simple_row(diagram, values)  # the length check, which a reduced input would skip
    word = []
    guard = 0
    while True:
        j = next((k for k in range(n) if values[k] < 0), None)
        if j is None:
            break
        values = dual_reflection(diagram, j + 1, values)
        word.append(j + 1)
        guard += 1
        if guard > 10 ** 6:
            raise InvariantError("chamber reduction failed to terminate")
    word.reverse()
    return tuple(word), values, any(v == 0 for v in values)


def lie_algebra_dimension(diagram):
    """rank + 2 * (number of positive roots)."""
    return diagram.matrix.n_nodes + 2 * len(positive_roots(diagram))
