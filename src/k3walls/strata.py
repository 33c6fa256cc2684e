"""S-equivalence stratum data and its affine ADE classification.

A stratum records a polystable class ``sum_i a_i u_i`` (Mukai vectors with
multiplicities) supported on a singular point of the numerical moduli
problem.  Valid data forces ``(-<u_i, u_j>)`` to be an affine ADE Cartan
matrix whose marks are exactly the multiplicities; deleting a mark-1 node
leaves the finite type of the singularity, and the retained classes give the
dual graph of the exceptional curves with intersection numbers
``(C_i, C_j) = <u_i, u_j>`` and self-intersection -2.
"""

from fractions import Fraction
from itertools import combinations
from operator import add, index, mul, sub

from . import mukai as mk
from . import roots
from .errors import (Inconsistent, InvariantError, MarksMismatch, NodeOutOfRange,
                     TriplePoint, _Record)


class StratumData(_Record):
    """Context ``(P, H, v)`` and ``(u_i, multiplicity)`` pairs, all over P (else ``ValueError``)."""

    __slots__ = ("lattice", "polarization", "v", "strata")

    def __init__(self, lattice, polarization, v, strata):
        strata, polarization = tuple(strata), tuple(polarization)
        if any(isinstance(m, bool) for _, m in strata):  # index() refuses floats and strings
            raise TypeError("multiplicities must be integers, got bool")
        if len(polarization) != lattice.rank:
            raise ValueError(f"polarization length does not match Picard rank {lattice.rank}")
        if any(u.lattice != lattice for u in (v, *(u for u, _ in strata))):
            raise ValueError("v and every stratum vector must lie over the stratum's lattice")
        super().__init__(lattice, polarization, v, tuple((u, index(m)) for u, m in strata))

    @property
    def vectors(self):
        return tuple(u for u, _ in self.strata)

    @property
    def multiplicities(self):
        return tuple(m for _, m in self.strata)


class DualGraph(_Record):
    """Nodes are retained input indices; edges carry intersection numbers."""

    __slots__ = ("nodes", "edges", "self_intersection")
    _defaults = {"self_intersection": -2}

    def node_labels(self):
        return tuple(f"C{i}" for i in self.nodes)


class SingularityReport(_Record):
    """One classification of a stratum; Psi-sets and chamber location read it.

    ``finite.matrix`` is ``(-<u_i, u_j>)`` on the retained classes in input order.
    """

    __slots__ = ("affine", "deleted_node", "finite", "marks", "dual_graph", "data")

    @property
    def retained(self):
        """The retained classes ``u_i``, in input order."""
        return retained_vectors(self.data, self.deleted_node)

    def psi_sets(self):
        """The origin walls inside the stratum span: ``Psi_+`` and ``v - Psi_+``.

        ``Psi_+`` holds ``u = sum_k b_k u_k`` over the positive roots ``b`` of
        the finite diagram, in the order of :func:`roots.root_tree` (by ``b``,
        parents first): each ``u`` is its parent plus one retained class ``u_i``.
        The exact checks, ``<u, u> = -2`` and ``0 < rk u < rk v`` for every ``u``
        and every ``v - u``, run in root coordinates: ``u`` carries ``h = G b``
        for the ``b`` built, ``G = -finite.matrix``, so ``<u, u>`` steps by
        ``2 h_i + G_ii`` and ``q <v, u>`` by the ``q <u_i, v>`` of one
        :func:`mukai.scaled_pairings`; together they give ``q <v - u, v - u>``.
        When ``v`` and the retained classes have only ``int`` components, so
        has every output, which is then built without renormalising.
        """
        v, retained = self.data.v, self.retained
        q, (*pairings, vv) = mk.scaled_pairings((*retained, v), v)
        gram = [[-e for e in row] for row in self.finite.matrix.entries]
        integral = all(map(mk.MukaiVector.int_typed, (v, *retained)))
        new = mk.MukaiVector._from_fields if integral else mk.MukaiVector
        vr, vc1, vs, lattice = v.r, v.c1, v.s, v.lattice
        built, psi, comp, zero = [], [], [], (0, lattice.zero(), 0, 0, 0, [0] * len(gram))
        for _, parent, i in roots.root_tree(self.finite):  # a simple root's parent is zero
            u, row = retained[i], gram[i]
            r, c1, s, sq, pv, h = zero if parent is None else built[parent]
            r, c1, s = r + u.r, tuple(map(add, c1, u.c1)), s + u.s
            sq, pv, h = sq + 2 * h[i] + row[i], pv + pairings[i], list(map(add, h, row))
            built.append((r, c1, s, sq, pv, h))
            if sq != -2 or not 0 < r < vr:
                _not_a_root(r, c1, s, sq, vr)
            wc1 = tuple(map(sub, vc1, c1))
            scaled = q * sq - 2 * pv + vv  # q <v - u, v - u>
            if scaled != -2 * q:  # rk (v - u) lies in (0, rk v) when rk u does
                _not_a_root(vr - r, wc1, vs - s, Fraction(scaled, q), vr)
            psi.append(new(r, c1, s, lattice))
            comp.append(new(vr - r, wc1, vs - s, lattice))
        return psi, comp


def _not_a_root(r, c1, s, square, vr):
    raise InvariantError(f"Psi element (r={r}, c1={list(c1)}, s={s}) has <u, u> = {square}; "
                         f"expected -2 and 0 < rk u < {vr}")


def validate_stratum(data):
    """Check every stratum invariant; returns the full list of violations."""
    violations = []
    v = data.v
    vecs = data.vectors
    mults = data.multiplicities
    if not vecs:
        return ["stratum list is empty"]
    if not v.r > 0:  # H^ = delta(H) divides by rk v
        return [f"v has rank {v.r}, expected > 0"]
    if len(set(vecs)) != len(vecs):
        violations.append("stratum vectors are not pairwise distinct")
    for k, m in enumerate(mults):
        if m <= 0:
            violations.append(f"multiplicity {k} is not positive")
    g = mk.gram((*vecs, v, mk.delta_map(v, data.polarization)))  # v and H^ pair last
    for k, u in enumerate(vecs):
        if not u.is_integral():
            violations.append(f"stratum vector {k} is not integral")
        if not u.r > 0:
            violations.append(f"stratum vector {k} has rank {u.r}, expected > 0")
        if g[k][k] != -2:
            violations.append(f"<u_{k}, u_{k}> = {g[k][k]}, expected -2")
        if g[-2][k] != 0:
            violations.append(f"<v, u_{k}> = {g[-2][k]}, expected 0")
    for k in range(len(vecs)):
        if g[-1][k] != 0:
            violations.append(f"<H^, u_{k}> = {g[-1][k]}, expected 0")
    for i, j in combinations(range(len(vecs)), 2):
        if g[i][j] < 0:
            violations.append(f"<u_{i}, u_{j}> = {g[i][j]}, expected >= 0")
    # sum a_i u_i by integer dot products, as in psi_sets; StratumData puts every u over P.
    total = (sum(map(mul, mults, (u.r for u in vecs))),
             tuple(sum(map(mul, mults, col)) for col in zip(*(u.c1 for u in vecs))),
             sum(map(mul, mults, (u.s for u in vecs))))
    if total != (v.r, v.c1, v.s):
        violations.append("sum of a_i u_i differs from v")
    return violations


def cartan_matrix_of(data):
    """The candidate affine Cartan matrix ``(-<u_i, u_j>)`` in input order."""
    return roots.CartanMatrix([[-p for p in row] for row in mk.gram(data.vectors)])


def retained_vectors(data, deleted=0):
    return tuple(u for k, u in enumerate(data.vectors) if k != deleted)


def check_node(strata, deleted):
    """The deleted node must index the stratum list; negative indices do not wrap."""
    if not 0 <= deleted < len(strata):
        raise NodeOutOfRange(
            f"node {deleted} is out of range; the stratum has nodes 0..{len(strata) - 1}")


def classify_singularity(data, deleted_node=0):
    """Affine type, finite type after node deletion, and the dual graph.

    The marks of the recognized affine diagram must equal the input
    multiplicities (:class:`MarksMismatch` otherwise — for honestly
    constructed strata this cannot happen).  ``deleted_node`` designates
    which mark-1 node to remove; extended diagrams with several mark-1 nodes
    genuinely depend on this choice only up to diagram symmetry, so the
    choice is surfaced rather than hidden; a node outside the diagram raises
    :class:`NodeOutOfRange` in :func:`roots.delete_node`.
    """
    affine = roots.classify_affine(cartan_matrix_of(data))
    if affine.marks != data.multiplicities:
        raise MarksMismatch(
            f"multiplicities {data.multiplicities} differ from marks {affine.marks}")
    finite = roots.delete_node(affine, deleted_node)
    entries = affine.matrix.entries
    retained = [k for k in range(len(data.strata)) if k != deleted_node]
    edges = [(i, j, -entries[i][j])
             for a, i in enumerate(retained) for j in retained[a + 1:]
             if entries[i][j] < 0]
    graph = DualGraph(tuple(retained), tuple(edges))
    return SingularityReport(affine, deleted_node, finite, affine.marks, graph, data)


def strata_orthogonality(first, second):
    """Compare two strata for the same ``(P, H, v)``: equal or orthogonal.

    Distinct strata of one polystable class must span mutually orthogonal
    sublattices; a nonzero cross pairing means the inputs cannot both be
    genuine, which raises :class:`Inconsistent`.
    """
    if first.lattice != second.lattice or first.v != second.v \
            or tuple(first.polarization) != tuple(second.polarization):
        raise ValueError("strata live in different (P, H, v) contexts")
    if sorted(first.strata, key=_stratum_key) == sorted(second.strata, key=_stratum_key):
        return "equal"
    n = len(first.strata)
    for row in mk.gram((*first.vectors, *second.vectors))[:n]:
        for p in row[n:]:
            if p != 0:
                raise Inconsistent(
                    f"distinct strata with <u, u'> = {p}; inputs cannot both be "
                    "valid S-equivalence data for this v")
    return "orthogonal"


def _stratum_key(pair):
    u, m = pair
    return (u.r, u.c1, u.s, m)


def no_triple_point_check(data, deleted=0):
    """Assert no three retained classes pair like a triangle.

    ``<(u_i + u_j + u_k)^2> = 0`` forces three mutual edges, which ADE dual
    graphs exclude; anything >= 0 is reported as :class:`TriplePoint`.  Each
    square is a sum over the 3x3 block of one Gram of the retained classes.  A
    node outside the stratum list raises :class:`NodeOutOfRange`.
    """
    check_node(data.strata, deleted)
    g = mk.gram(retained_vectors(data, deleted))
    for i, j, k in combinations(range(len(g)), 3):
        sq = g[i][i] + g[j][j] + g[k][k] + 2 * (g[i][j] + g[i][k] + g[j][k])
        if sq >= 0:
            raise TriplePoint(f"<(u_{i}+u_{j}+u_{k})^2> = {sq}; not negative definite data")
    return True


def psi_sets(data, deleted=0):
    """``Psi_+`` and ``v - Psi_+``: :meth:`SingularityReport.psi_sets` of the
    classified stratum, so the errors of :func:`classify_singularity` apply."""
    return classify_singularity(data, deleted).psi_sets()
