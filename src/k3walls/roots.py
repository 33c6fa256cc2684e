"""Finite and affine ADE Cartan matrices, root enumeration, Weyl machinery.

Recognition is graph-theoretic: off-diagonal entries give the adjacency of
the diagram, the single non-simply-laced case being the rank-1 affine matrix
[[2,-2],[-2,2]].  Standard labelings are fixed once: A-cycles are numbered
around the cycle with node 0 the extending node; D and E use the Bourbaki
numbering 1..n for the finite part, again with 0 the extending node attached
at its standard position.  ``node_perm`` always maps input node indices to
these standard labels, and every classification is verified by exact matrix
equality after permutation, so a malformed shape can never be mislabelled.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import linalg
from .errors import (CapExceeded, InvariantError, MarkNotOne, NotAffineADE,
                     NotFiniteADE)

ORBIT_CAP = 10 ** 6
GROUP_CAP = 10 ** 7


class CartanMatrix:
    """Symmetric integer matrix with 2s on the diagonal, <= 0 off it."""

    __slots__ = ("n_nodes", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(int(e) for e in row) for row in entries)
        n = len(entries)
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
            if entries[i][i] != 2:
                raise ValueError(f"diagonal entry {i} must be 2, got {entries[i][i]}")
            for j in range(n):
                if i != j:
                    if entries[i][j] != entries[j][i]:
                        raise ValueError(f"Cartan matrix not symmetric at ({i},{j})")
                    if entries[i][j] > 0:
                        raise ValueError(f"off-diagonal entry ({i},{j}) must be <= 0")
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("CartanMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CartanMatrix({[list(r) for r in self.entries]})"


@dataclass(frozen=True)
class AffineDiagram:
    """A recognized affine ADE Cartan matrix.

    ``rank`` is the n of the extended type; ``node_perm[i]`` is the standard
    label (0..n, 0 = extending node) of input node ``i``; ``marks`` are the
    kernel marks in input node order.
    """

    family: str
    rank: int
    node_perm: tuple
    marks: tuple
    matrix: CartanMatrix

    @property
    def affine_node(self):
        """Input index of the extending node (standard label 0)."""
        return self.node_perm.index(0)

    def marks_standard(self):
        out = [0] * (self.rank + 1)
        for i, std in enumerate(self.node_perm):
            out[std] = self.marks[i]
        return tuple(out)

    def type_name(self):
        return f"{self.family}~{self.rank}"


@dataclass(frozen=True)
class FiniteDiagram:
    """A recognized finite ADE Cartan matrix.

    ``node_perm[i]`` is the Bourbaki label (1..n) of input node ``i``;
    ``matrix`` keeps the entries in input node order, which is what the root
    and Weyl operations below act on.
    """

    family: str
    rank: int
    node_perm: tuple
    matrix: CartanMatrix

    def type_name(self):
        return f"{self.family}{self.rank}"


def finite_edges(family, n):
    """Edge list of the finite ADE diagram on Bourbaki labels 1..n."""
    if family == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        return [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    if family == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        chain = [(1, 3)] + [(i, i + 1) for i in range(3, n)]
        return chain + [(2, 4)]
    raise ValueError(f"unknown family {family!r}")


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


def standard_affine_matrix(family, n):
    if family == "A" and n == 1:
        return CartanMatrix(((2, -2), (-2, 2)))
    return CartanMatrix(_gram_from_edges(n + 1, affine_edges(family, n)))


def standard_finite_matrix(family, n):
    return CartanMatrix(_gram_from_edges(n, [(a - 1, b - 1) for a, b in finite_edges(family, n)]))


def _adjacency(matrix):
    n = matrix.n_nodes
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if matrix.entries[i][j] != 0:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def _is_connected(adj):
    n = len(adj)
    if n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def _arms(adj, center, err):
    """Paths walking outward from ``center``, shortest first; ``err`` on a branch."""
    arms = []
    for first in adj[center]:
        arm = [first]
        prev, cur = center, first
        while True:
            nxt = [k for k in adj[cur] if k != prev]
            if not nxt:
                break
            if len(nxt) > 1 or len(adj[cur]) > 2:
                raise err
            prev, cur = cur, nxt[0]
            arm.append(cur)
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), a[0]))
    return arms


# E-type star: sorted arm lengths -> (rank, labels outward along each arm); centre is 4.
_AFFINE_E_ARMS = {
    (2, 2, 2): (6, ((3, 1), (5, 6), (2, 0))),
    (1, 3, 3): (7, ((2,), (3, 1, 0), (5, 6, 7))),
    (1, 2, 5): (8, ((2,), (3, 1), (5, 6, 7, 8, 0))),
}
_FINITE_E_ARMS = {
    (1, 2, 2): (6, ((2,), (3, 1), (5, 6))),
    (1, 2, 3): (7, ((2,), (3, 1), (5, 6, 7))),
    (1, 2, 4): (8, ((2,), (3, 1), (5, 6, 7, 8))),
}


def _label_e_star(perm, center, arms, table, err):
    """Write the E-type labels of a star into ``perm``; returns the rank."""
    entry = table.get(tuple(len(a) for a in arms))
    if entry is None:
        raise err
    rank, labels = entry
    perm[center] = 4
    for arm, stds in zip(arms, labels):
        for node, std in zip(arm, stds):
            perm[node] = std
    return rank


def _kernel_marks(matrix):
    kernel = linalg.integer_kernel([list(r) for r in matrix.entries], matrix.n_nodes)
    if len(kernel) != 1:
        raise NotAffineADE("Cartan matrix kernel is not one-dimensional")
    marks = kernel[0]
    if any(m <= 0 for m in marks):
        raise NotAffineADE("kernel vector of the Cartan matrix is not positive")
    if linalg.content(marks) != 1:
        raise NotAffineADE("kernel vector of the Cartan matrix is not primitive")
    return marks


def _verify_perm(matrix, perm, standard, exc):
    n = matrix.n_nodes
    for i in range(n):
        for j in range(n):
            if matrix.entries[i][j] != standard.entries[perm[i]][perm[j]]:
                raise exc
    return True


def classify_affine(matrix):
    """Recognize an affine ADE Cartan matrix up to simultaneous permutation.

    Raises :class:`NotAffineADE` for anything else (positive definite
    matrices, wrong graph shapes, entries below -1 other than the rank-1
    affine A case).
    """
    n = matrix.n_nodes
    err = NotAffineADE(f"not an affine ADE Cartan matrix: {matrix!r}")
    if n < 2:
        raise err
    if n == 2 and matrix.entries == ((2, -2), (-2, 2)):
        return AffineDiagram("A", 1, (0, 1), (1, 1), matrix)
    if any(matrix.entries[i][j] < -1 for i in range(n) for j in range(n) if i != j):
        raise err
    adj = _adjacency(matrix)
    if not _is_connected(adj):
        raise err
    degrees = [len(a) for a in adj]
    n_edges = sum(degrees) // 2

    perm = [None] * n
    if n_edges == n:
        # simple cycle: extended A
        if any(d != 2 for d in degrees):
            raise err
        family, rank = "A", n - 1
        walk = [0, min(adj[0])]
        while len(walk) < n:
            nxt = [k for k in adj[walk[-1]] if k != walk[-2]]
            walk.append(nxt[0])
        for std, node in enumerate(walk):
            perm[node] = std
    elif n_edges == n - 1:
        deg3 = [i for i, d in enumerate(degrees) if d == 3]
        deg4 = [i for i, d in enumerate(degrees) if d == 4]
        if any(d > 4 for d in degrees):
            raise err
        if len(deg4) == 1 and not deg3 and n == 5:
            family, rank = "D", 4
            center = deg4[0]
            leaves = sorted(k for k in range(n) if k != center)
            perm[center] = 2
            for leaf, std in zip(leaves, (0, 1, 3, 4)):
                perm[leaf] = std
        elif len(deg3) == 2 and not deg4:
            family, rank = "D", n - 1
            if rank < 5:
                raise err
            c1, c2 = deg3
            leaves1 = sorted(k for k in adj[c1] if degrees[k] == 1)
            leaves2 = sorted(k for k in adj[c2] if degrees[k] == 1)
            inner1 = [k for k in adj[c1] if degrees[k] != 1]
            if len(leaves1) != 2 or len(leaves2) != 2 or len(inner1) != 1:
                raise err
            # walk the spine from c1 to c2
            path = [c1]
            prev, cur = c1, inner1[0]
            while cur != c2:
                path.append(cur)
                nxt = [k for k in adj[cur] if k != prev]
                if len(nxt) != 1:
                    raise err
                prev, cur = cur, nxt[0]
            path.append(c2)
            perm[leaves1[0]], perm[leaves1[1]] = 0, 1
            for offset, node in enumerate(path):
                perm[node] = 2 + offset
            perm[leaves2[0]], perm[leaves2[1]] = rank - 1, rank
        elif len(deg3) == 1 and not deg4:
            center = deg3[0]
            family, rank = "E", _label_e_star(perm, center, _arms(adj, center, err),
                                              _AFFINE_E_ARMS, err)
        else:
            raise err
    else:
        raise err

    perm = tuple(perm)
    _verify_perm(matrix, perm, standard_affine_matrix(family, rank), err)
    marks = _kernel_marks(matrix)
    diagram = AffineDiagram(family, rank, perm, marks, matrix)
    if marks[diagram.affine_node] != 1:
        raise InvariantError(f"affine node has mark {marks[diagram.affine_node]}, expected 1")
    return diagram


def classify_finite(matrix):
    """Recognize a finite ADE Cartan matrix up to simultaneous permutation."""
    n = matrix.n_nodes
    err = NotFiniteADE(f"not a finite ADE Cartan matrix: {matrix!r}")
    if n < 1:
        raise err
    if any(matrix.entries[i][j] < -1 for i in range(n) for j in range(n) if i != j):
        raise err
    adj = _adjacency(matrix)
    if not _is_connected(adj):
        raise err
    degrees = [len(a) for a in adj]
    if sum(degrees) // 2 != n - 1 or any(d > 3 for d in degrees):
        raise err
    deg3 = [i for i, d in enumerate(degrees) if d == 3]

    perm = [None] * n
    if not deg3:
        family, rank = "A", n
        if n == 1:
            perm[0] = 1
        else:
            ends = [i for i, d in enumerate(degrees) if d == 1]
            if len(ends) != 2:
                raise err
            walk = [min(ends)]
            prev = None
            while len(walk) < n:
                nxt = [k for k in adj[walk[-1]] if k != prev]
                prev = walk[-1]
                walk.append(nxt[0])
            for std, node in enumerate(walk, start=1):
                perm[node] = std
    elif len(deg3) == 1:
        center = deg3[0]
        arms = _arms(adj, center, err)
        if len(arms[1]) == 1:
            family, rank = "D", n
            perm[center] = n - 2
            short_a, short_b = sorted((arms[0][0], arms[1][0]))
            if n == 4:
                perm[short_a], perm[short_b], perm[arms[2][0]] = 1, 3, 4
            else:
                perm[short_a], perm[short_b] = n - 1, n
                for offset, node in enumerate(arms[2]):
                    perm[node] = n - 3 - offset
        else:
            family, rank = "E", _label_e_star(perm, center, arms, _FINITE_E_ARMS, err)
    else:
        raise err

    perm = tuple(perm)
    _verify_perm(matrix, [p - 1 for p in perm], standard_finite_matrix(family, rank), err)
    return FiniteDiagram(family, rank, perm, matrix)


def marks(matrix):
    """Marks of an affine ADE Cartan matrix, in input node order.

    The unique primitive positive kernel vector; it satisfies
    ``sum_i a_i M[i][j] == 0`` for every j.
    """
    return classify_affine(matrix).marks


def delete_node(diagram, i):
    """Delete mark-1 node ``i`` of an affine diagram; classify the rest in input order."""
    if diagram.marks[i] != 1:
        raise MarkNotOne(f"node {i} has mark {diagram.marks[i]}, expected 1")
    entries = diagram.matrix.entries
    keep = [k for k in range(len(entries)) if k != i]
    sub = CartanMatrix(tuple(tuple(entries[a][b] for b in keep) for a in keep))
    return classify_finite(sub)


def _pairing_with_simple(matrix, x, i):
    """(x, alpha_i) for x in root coordinates."""
    return sum(matrix.entries[i][j] * x[j] for j in range(len(x)) if x[j] != 0)


def root_tree(diagram):
    """The positive roots as ``(b, parent, i)`` triples, in order of height.

    A positive root of height h+1 is always a simple root away from one of
    height h, and for simply laced types b + e_i is a root exactly when
    (b, alpha_i) = -1.  The simple root ``e_i`` comes first, at index i,
    with ``parent`` None; every later ``parent`` indexes the earlier triple
    holding ``b - e_i``.
    """
    entries = diagram.matrix.entries
    n = len(entries)
    tree = [(tuple(1 if j == i else 0 for j in range(n)), None, i) for i in range(n)]
    seen = {b for b, _, _ in tree}
    # Each root travels with its pairings C b against the simple roots; C is
    # symmetric, so C (b + e_i) = C b + entries[i].  The loop reads the list
    # it appends to: a queue, so heights never decrease.
    pairings = list(entries)
    for k, (b, _, _) in enumerate(tree):
        for i, p in enumerate(pairings[k]):
            if p == -1:
                cand = b[:i] + (b[i] + 1,) + b[i + 1:]
                if cand not in seen:
                    seen.add(cand)
                    tree.append((cand, k, i))
                    pairings.append(tuple(map(add, pairings[k], entries[i])))
    return tuple(tree)


def positive_roots(diagram):
    """All coefficient vectors b >= 0 with b^T C b = 2, sorted; see :func:`root_tree`."""
    return tuple(sorted(b for b, _, _ in root_tree(diagram)))


def highest_root(diagram):
    """The unique positive root dominating all others coefficient-wise."""
    roots = positive_roots(diagram)
    top = max(roots, key=sum)
    if not all(all(t >= b for t, b in zip(top, root)) for root in roots):
        raise InvariantError(f"root {top} of greatest height does not dominate all roots")
    return top


def simple_reflection(diagram, i, x):
    """Reflection in the i-th simple root (1-based), in root coordinates."""
    n = diagram.matrix.n_nodes
    if not 1 <= i <= n:
        raise ValueError(f"reflection index {i} out of range 1..{n}")
    k = i - 1
    c = _pairing_with_simple(diagram.matrix, x, k)
    return tuple(v - c if j == k else v for j, v in enumerate(x))


def dual_reflection(diagram, i, values):
    """Action of the i-th reflection (1-based) on pairing-value vectors.

    ``values[j]`` is the pairing of the j-th simple root against a point;
    reflecting the point sends values to ``t_j - C[j][i] * t_i``.
    """
    n = diagram.matrix.n_nodes
    if not 1 <= i <= n:
        raise ValueError(f"reflection index {i} out of range 1..{n}")
    k = i - 1
    t = values[k]
    if t == 0:
        return tuple(values)
    return tuple(v - diagram.matrix.entries[j][k] * t for j, v in enumerate(values))


def apply_word_dual(diagram, word, values):
    """Apply a Weyl word to a value vector, rightmost letter first."""
    for letter in reversed(word):
        values = dual_reflection(diagram, letter, values)
    return tuple(values)


def _closure(diagram, reflection, start, cap, what):
    """Breadth-first closure of ``start`` under ``reflection(diagram, i, .)`` for all i."""
    n = diagram.matrix.n_nodes
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(1, n + 1):
                image = reflection(diagram, i, x)
                if image not in seen:
                    seen.add(image)
                    if len(seen) > cap:
                        raise CapExceeded(f"{what} exceeded cap {cap}")
                    nxt.append(image)
        frontier = nxt
    return seen


def weyl_orbit(diagram, x, cap=ORBIT_CAP):
    """BFS closure of a root-coordinate vector under all simple reflections."""
    return frozenset(_closure(diagram, simple_reflection, tuple(x), cap, "orbit"))


def weyl_group_order(diagram, cap=GROUP_CAP):
    """Order of the group generated by the simple reflections.

    Computed as the orbit size of a regular dominant value vector (all
    pairings 1), whose stabilizer is trivial.
    """
    start = (1,) * diagram.matrix.n_nodes
    return len(_closure(diagram, dual_reflection, start, cap, "group enumeration"))


def reduce_to_fundamental(diagram, values):
    """Reflect a value vector into the closed fundamental chamber.

    Applies simple reflections while some entry is negative, recording the
    word.  Returns ``(word, reduced_values, on_wall)`` where the word is
    written so that :func:`apply_word_dual` (rightmost letter first) sends the
    input to the output, and ``on_wall`` flags a zero in the output.
    """
    n = diagram.matrix.n_nodes
    values = tuple(linalg.normalize_number(Fraction(v)) for v in values)
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
