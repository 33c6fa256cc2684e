import contextlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from conftest import clear_library_caches
from k3walls import families
from k3walls import lattice as lat
from k3walls import linalg
from k3walls import mukai as mk
from k3walls import pipeline
from k3walls import roots
from k3walls import strata as st
from k3walls.errors import (Inconsistent, InvariantError, MarkNotOne, MarksMismatch,
                            NodeOutOfRange, NotAffineADE, TriplePoint)


def two_configurations():
    """One Picard lattice carrying two rank-1 affine configurations for the
    same (H, v): xi0 + xi1 = xi0' + xi1', cross pairings tuned so the two
    strata span orthogonal sublattices."""
    gram = [[0, 4, 2], [4, 0, 2], [2, 2, 0]]
    p = lat.PicardLattice(gram, ["xi0", "xi1", "xi0p"])
    h = (1, 1, 0)
    v = mk.MukaiVector(2, h, 2, p)
    v0 = mk.MukaiVector(1, (1, 0, 0), 1, p)
    v1 = mk.MukaiVector(1, (0, 1, 0), 1, p)
    w0 = mk.MukaiVector(1, (0, 0, 1), 1, p)
    w1 = mk.MukaiVector(1, (1, 1, -1), 1, p)
    first = st.StratumData(p, h, v, ((v0, 1), (v1, 1)))
    second = st.StratumData(p, h, v, ((w0, 1), (w1, 1)))
    return first, second


def test_validate_ok(a1_instance, a2_instance, d4_instance):
    for inst in (a1_instance, a2_instance, d4_instance):
        assert st.validate_stratum(inst.stratum()) == []


def test_validate_reports_all_failures(a1_instance):
    inst = a1_instance
    v0, v1 = inst.v_list
    bad_mult = st.StratumData(inst.lattice, inst.polarization, inst.v,
                              ((v0, 1), (v1, 2)))
    violations = st.validate_stratum(bad_mult)
    assert any("differs from v" in msg for msg in violations)
    dup = st.StratumData(inst.lattice, inst.polarization, inst.v,
                         ((v0, 1), (v0, 1)))
    violations = st.validate_stratum(dup)
    assert any("distinct" in msg for msg in violations)
    wrong_norm = st.StratumData(inst.lattice, inst.polarization, inst.v,
                                ((inst.v, 1),))
    violations = st.validate_stratum(wrong_norm)
    assert any("expected -2" in msg for msg in violations)
    assert sum(1 for _ in violations) >= 1
    p, h, v = inst.lattice, inst.polarization, inst.v
    assert st.validate_stratum(st.StratumData(p, h, v, ())) == ["stratum list is empty"]
    violations = st.validate_stratum(st.StratumData(p, h, v, ((v0, 0), (v1, -1))))
    assert violations[:2] == ["multiplicity 0 is not positive", "multiplicity 1 is not positive"]
    half = mk.MukaiVector(Fraction(1, 2), v0.c1, v0.s, p)
    assert "stratum vector 0 is not integral" in st.validate_stratum(
        st.StratumData(p, h, v, ((half, 1), (v1, 1))))
    for r in (0, -1):
        u = mk.MukaiVector(r, v1.c1, v1.s, p)
        assert f"stratum vector 1 has rank {r}, expected > 0" in st.validate_stratum(
            st.StratumData(p, h, v, ((v0, 1), (u, 1))))


def test_validate_refuses_v_without_positive_rank(a2_instance):
    # H^ = delta(H) divides by rk v, so rk v <= 0 is the one violation reported.
    inst = a2_instance
    for r, shown in ((0, "0"), (Fraction(0, 5), "0"), (-3, "-3")):
        v = mk.MukaiVector(r, inst.v.c1, inst.v.s, inst.lattice)
        data = st.StratumData(inst.lattice, inst.polarization, v, inst.stratum().strata)
        assert st.validate_stratum(data) == [f"v has rank {shown}, expected > 0"]


def test_multiplicities_must_be_integers(a1_instance):
    # 1.7, "1" and True used to become multiplicity 1 and validate cleanly.
    inst = a1_instance
    v0, v1 = inst.v_list
    for bad in (1.7, 1.0, "1", True):
        with pytest.raises(TypeError):
            st.StratumData(inst.lattice, inst.polarization, inst.v, ((v0, 1), (v1, bad)))
    data = st.StratumData(inst.lattice, inst.polarization, inst.v, [(v0, 1), (v1, 1)])
    assert data.multiplicities == (1, 1)
    assert st.validate_stratum(data) == []


def test_validate_sum_checks_every_component(d4_instance):
    # v moved only in its rank, in one c1 coordinate or in its point
    # component: the sum check sees each.
    p = d4_instance.lattice
    shifts = (mk.MukaiVector(1, p.zero(), 0, p), mk.MukaiVector(0, p.basis_vector(2), 0, p),
              mk.rho(p))
    for shift in shifts:
        data = st.StratumData(p, d4_instance.polarization, d4_instance.v + shift,
                              d4_instance.stratum().strata)
        assert "sum of a_i u_i differs from v" in st.validate_stratum(data)


def test_classify_a1(a1_instance):
    rep = st.classify_singularity(a1_instance.stratum())
    assert rep.affine.type_name() == "A~1"
    assert rep.finite.type_name() == "A1"
    assert rep.deleted_node == 0
    assert rep.dual_graph.nodes == (1,)
    assert rep.dual_graph.edges == ()
    assert rep.dual_graph.self_intersection == -2
    assert rep.marks == (1, 1)


def test_classify_a2(a2_instance):
    rep = st.classify_singularity(a2_instance.stratum())
    assert rep.finite.type_name() == "A2"
    assert rep.dual_graph.nodes == (1, 2)
    assert rep.dual_graph.edges == ((1, 2, 1),)


def test_classify_alternative_deleted_node(a2_instance):
    rep = st.classify_singularity(a2_instance.stratum(), deleted_node=2)
    assert rep.finite.type_name() == "A2"
    assert rep.dual_graph.nodes == (0, 1)
    with pytest.raises(MarkNotOne):
        st.classify_singularity(_d4_stratum_center_request(), deleted_node=2)


def test_deleted_node_out_of_range(a2_instance):
    data = a2_instance.stratum()
    for node in (3, 7, -1):
        with pytest.raises(NodeOutOfRange):
            st.classify_singularity(data, deleted_node=node)
        with pytest.raises(NodeOutOfRange):
            st.psi_sets(data, node)


def _d4_stratum_center_request():
    from k3walls import families
    return families.generate_example(families.ExampleSpec("D", 4, 1, 1)).stratum()


def test_classify_rejects_fabricated_pairing_two():
    # three rank-1 classes with a pairing of 2: not an affine ADE matrix
    p = lat.PicardLattice([[0, 4, 3], [4, 0, 3], [3, 3, 0]])
    v0 = mk.MukaiVector(1, (1, 0, 0), 1, p)
    v1 = mk.MukaiVector(1, (0, 1, 0), 1, p)
    v2 = mk.MukaiVector(1, (0, 0, 1), 1, p)
    assert mk.mukai_pairing(v0, v1) == 2
    v = v0 + v1 + v2
    data = st.StratumData(p, (1, 1, 1), v, ((v0, 1), (v1, 1), (v2, 1)))
    with pytest.raises(NotAffineADE):
        st.classify_singularity(data)


def test_classify_marks_mismatch(a1_instance):
    inst = a1_instance
    v0, v1 = inst.v_list
    doubled = st.StratumData(inst.lattice, inst.polarization, 2 * inst.v,
                             ((v0, 2), (v1, 2)))
    with pytest.raises(MarksMismatch):
        st.classify_singularity(doubled)


def test_strata_orthogonality():
    first, second = two_configurations()
    assert st.validate_stratum(first) == []
    assert st.validate_stratum(second) == []
    assert st.strata_orthogonality(first, first) == "equal"
    reordered = st.StratumData(first.lattice, first.polarization, first.v,
                               (first.strata[1], first.strata[0]))
    assert st.strata_orthogonality(first, reordered) == "equal"
    assert st.strata_orthogonality(first, second) == "orthogonal"
    assert st.strata_orthogonality(second, first) == "orthogonal"
    shared = st.StratumData(first.lattice, first.polarization, first.v,
                            (first.strata[0], second.strata[1]))
    with pytest.raises(Inconsistent):
        st.strata_orthogonality(first, shared)


def test_strata_orthogonality_context_mismatch(a1_instance, a2_instance):
    with pytest.raises(ValueError):
        st.strata_orthogonality(a1_instance.stratum(), a2_instance.stratum())


def test_no_triple_point(a2_instance, d4_instance):
    assert st.no_triple_point_check(a2_instance.stratum())
    assert st.no_triple_point_check(d4_instance.stratum())


def test_no_triple_point_rejects_triangle():
    # fabricated triangle: <(u_i+u_j+u_k)^2> = -6 + 6 = 0
    p = lat.PicardLattice([[0, 3, 3, 0], [3, 0, 3, 0], [3, 3, 0, 0], [0, 0, 0, 2]])
    u0 = mk.MukaiVector(1, (1, 0, 0, 0), 1, p)
    u1 = mk.MukaiVector(1, (0, 1, 0, 0), 1, p)
    u2 = mk.MukaiVector(1, (0, 0, 1, 0), 1, p)
    extra = mk.MukaiVector(1, (0, 0, 0, 1), 0, p)
    v = u0 + u1 + u2 + extra
    data = st.StratumData(p, (1, 1, 1, 0), v,
                          ((extra, 1), (u0, 1), (u1, 1), (u2, 1)))
    with pytest.raises(TriplePoint):
        st.no_triple_point_check(data, deleted=0)


def test_no_triple_point_check_builds_no_vectors(monkeypatch):
    # Every triple's square is a sum over one Gram of the retained classes.
    data = families.generate_example(families.ExampleSpec("D", 18, 1, 1)).stratum()
    built = []
    init = mk.MukaiVector.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(mk.MukaiVector, "__init__", counting)
    assert st.no_triple_point_check(data)
    assert built == []


def test_no_triple_point_check_node_out_of_range(a2_instance):
    data = a2_instance.stratum()
    for node in (-1, len(data.strata), 7):
        with pytest.raises(NodeOutOfRange):
            st.no_triple_point_check(data, deleted=node)


def test_psi_sets(a1_instance, a2_instance):
    psi, comp = st.psi_sets(a1_instance.stratum())
    assert psi == [a1_instance.v_list[1]]
    assert comp == [a1_instance.v_list[0]]
    psi2, comp2 = st.psi_sets(a2_instance.stratum())
    assert len(psi2) == 3 and len(comp2) == 3
    for u in psi2 + comp2:
        assert mk.mukai_square(u) == -2
        assert 0 < u.r < a2_instance.v.r


def test_psi_sets_subset_of_walls(a1_instance, a2_instance):
    from k3walls import walls as wl
    for inst in (a1_instance, a2_instance):
        psi, comp = st.psi_sets(inst.stratum())
        walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
        origin = {w.u for w in wl.u_prime(walls)}
        assert set(psi) | set(comp) <= origin


def test_marks_equal_multiplicities_and_dimension_identity(a2_instance, d4_instance):
    for inst in (a2_instance, d4_instance):
        data = inst.stratum()
        rep = st.classify_singularity(data)
        assert rep.marks == data.multiplicities
        psi, _ = st.psi_sets(data)
        n = len(rep.dual_graph.nodes)
        assert roots.lie_algebra_dimension(rep.finite) == n + 2 * len(psi)
        # dual graph edges symmetric with multiplicity one
        for i, j, m in rep.dual_graph.edges:
            assert m == 1 and i < j


def test_mark_two_node_is_mark_not_one_for_both_calls():
    # node 2 of the D~4 instance is the centre, of mark 2; the refusals count
    # misses in the node deletion memo but cache nothing
    data = _d4_stratum_center_request()
    assert data.multiplicities[2] == 2
    before = roots.delete_node.cache_info().currsize
    with pytest.raises(MarkNotOne):
        st.classify_singularity(data, deleted_node=2)
    with pytest.raises(MarkNotOne):
        st.psi_sets(data, 2)
    assert roots.delete_node.cache_info().currsize == before


def _combination(coeffs, triples):
    r = sum(b * t[0] for b, t in zip(coeffs, triples))
    c1 = tuple(sum(b * t[1][i] for b, t in zip(coeffs, triples))
               for i in range(len(triples[0][1])))
    s = sum(b * t[2] for b, t in zip(coeffs, triples))
    return r, c1, s


def test_psi_sets_against_box_oracle():
    # Every sweep type of Picard rank <= 9, every mark-1 node, strata shuffled.
    # The oracle roots are found in the instance's own node order; the
    # expected Psi elements are the same set in any order, listed by their
    # coefficient vectors in the shuffled order.
    from k3walls import families
    rng = random.Random(4)
    for family, n in families.SWEEP_TYPES:
        if n + 1 > 9:
            continue
        inst = families.generate_example(families.ExampleSpec(family, n, 2, 1))
        gram = inst.lattice.gram
        v = (inst.v.r, inst.v.c1, inst.v.s)
        triples = [(u.r, u.c1, u.s) for u in inst.v_list]
        order = list(range(len(triples)))
        rng.shuffle(order)
        data = st.StratumData(inst.lattice, inst.polarization, inst.v,
                              tuple(inst.stratum().strata[k] for k in order))
        for node, k in enumerate(order):
            if inst.marks[k] != 1:
                continue
            kept = [j for j in range(len(triples)) if j != k]
            cartan = tuple(tuple(-oracles.mukai_pairing(gram, triples[a], triples[b])
                                 for b in kept) for a in kept)
            shuffled = [order[m] for m in range(len(order)) if m != node]
            expected = []
            for b in oracles.box_positive_roots(cartan):
                by_index = dict(zip(kept, b))
                key = tuple(by_index[j] for j in shuffled)
                expected.append((key, _combination(b, [triples[j] for j in kept])))
            expected.sort()
            psi_want = [u for _, u in expected]
            comp_want = [(v[0] - r, tuple(a - c for a, c in zip(v[1], c1)), v[2] - s)
                         for r, c1, s in psi_want]
            for u in psi_want + comp_want:
                assert oracles.mukai_pairing(gram, u, u) == -2
                assert 0 < u[0] < v[0]
            psi, comp = st.psi_sets(data, node)
            assert [(u.r, u.c1, u.s) for u in psi] == psi_want, (family, n, node)
            assert [(u.r, u.c1, u.s) for u in comp] == comp_want, (family, n, node)


def test_psi_sets_builds_no_mukai_sums(monkeypatch):
    # Each Psi element is one integer dot product per component; a chain of
    # MukaiVector sums and scalings creeping back in fails here first.
    from k3walls import families

    def refuse(*args):
        raise AssertionError("MukaiVector arithmetic on the Psi-set path")

    cases = []
    for family, n in [("A", 3), ("D", 5), ("E", 6)]:
        inst = families.generate_example(families.ExampleSpec(family, n, 2, 1))
        cases.append((inst, len(roots.positive_roots(roots.classify_finite(
            roots.standard_finite_matrix(family, n))))))
    monkeypatch.setattr(mk.MukaiVector, "__add__", refuse)
    monkeypatch.setattr(mk.MukaiVector, "__rmul__", refuse)
    for inst, count in cases:
        psi, comp = st.psi_sets(inst.stratum())
        assert len(psi) == len(comp) == count


def _report(family, n, r):
    from k3walls import families
    inst = families.generate_example(families.ExampleSpec(family, n, r, 1))
    return inst, st.classify_singularity(inst.stratum())


@pytest.mark.parametrize("field", ["parent", "i"])
def test_psi_sets_catch_a_wrong_tree(monkeypatch, field):
    # One step of the tree moved to another parent or another simple root, so
    # that it builds a vector off the roots: the exact square check fires.  (A
    # step landing on another root is a wrong tree; the root_tree tests catch it.)
    _, rep = _report("E", 6, 2)
    tree = list(roots.root_tree(rep.finite))
    found = {b for b, _, _ in tree}
    n = rep.finite.matrix.n_nodes

    def step(q, j):
        b = tree[q][0]
        return b[:j] + (b[j] + 1,) + b[j + 1:]

    for k, (b, parent, i) in enumerate(tree):
        if parent is None:
            continue
        options = ([(q, i) for q in range(k) if q != parent] if field == "parent"
                   else [(parent, j) for j in range(n) if j != i])
        bad = next(((q, j) for q, j in options if step(q, j) not in found), None)
        if bad is not None:
            tree[k] = (b, *bad)
            break
    assert tree != list(roots.root_tree(rep.finite))
    monkeypatch.setattr(roots, "root_tree", lambda diagram: tuple(tree))
    with pytest.raises(InvariantError):
        rep.psi_sets()


def test_one_type_is_recognised_once(monkeypatch):
    # The D~7 strata of r = 1, 2, 3 share one affine matrix and, after node 0
    # goes, one finite one.  Run as in a strata batch, each stratum is
    # classified twice, yet the affine shape is read once, the finite shape
    # twice (once inside the affine reading) and the root tree walked once.
    data = [families.generate_example(families.ExampleSpec("D", 7, r, 1)).stratum()
            for r in (1, 2, 3)]
    clear_library_caches()
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("_affine_labels", "_finite_labels"):
        monkeypatch.setattr(roots, name, counting(name, getattr(roots, name)))
    for d in data:
        assert st.validate_stratum(d) == []
        pipeline.dot_graph(st.classify_singularity(d).dual_graph)
        st.psi_sets(d)
    assert calls == Counter(_affine_labels=1, _finite_labels=2)
    assert roots.root_tree.cache_info().misses == 1


@contextlib.contextmanager
def _counting_builds(monkeypatch):
    """Counts ``mukai_pairing`` calls and the vectors each Mukai vector constructor builds."""
    calls = {"pairing": 0, "__init__": 0, "_from_fields": 0}
    init, from_fields = mk.MukaiVector.__init__, mk.MukaiVector._from_fields

    def counted_pairing(*args):
        calls["pairing"] += 1

    def counted_init(self, *args):
        calls["__init__"] += 1
        init(self, *args)

    def counted_from_fields(cls, *values):
        calls["_from_fields"] += 1
        return from_fields(*values)

    with monkeypatch.context() as m:
        m.setattr(mk, "mukai_pairing", counted_pairing)
        m.setattr(mk.MukaiVector, "__init__", counted_init)
        m.setattr(mk.MukaiVector, "_from_fields", classmethod(counted_from_fields))
        yield calls


def test_psi_sets_pair_nothing_and_build_each_vector_once(monkeypatch):
    # Integral strata: every output through _from_fields, none renormalised.
    # The checks read the report's own Gram and one scaled_pairings call: no
    # Mukai Gram and no pairing.  (mukai.gram_image, with which the
    # Picard-length checks summed G c1, is folded into mukai.gram.)
    counts = Counter()

    def counting(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    for name in ("scaled_pairings", "gram"):
        monkeypatch.setattr(mk, name, counting(name, getattr(mk, name)))
    for family, n in [("A", 4), ("D", 6), ("E", 7)]:
        _, rep = _report(family, n, 2)
        count = len(roots.positive_roots(rep.finite))
        counts.clear()
        with _counting_builds(monkeypatch) as calls:
            psi, comp = rep.psi_sets()
        assert calls == {"pairing": 0, "__init__": 0, "_from_fields": 2 * count}, (family, n)
        assert counts == {"scaled_pairings": 1}, (family, n)
        assert len(psi) == len(comp) == count
    assert not hasattr(mk, "gram_image")


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(families.SWEEP_TYPES), hst.sampled_from((1, 2, 3)), hst.data())
def test_psi_outputs_are_the_vectors_the_constructor_builds(type_, r, data):
    # A permuted sweep stratum and a drawn mark-1 node: each Psi output is the
    # vector MukaiVector(r, c1, s, lattice) builds, down to hash, repr and int components.
    inst = families.generate_example(families.ExampleSpec(*type_, r, 1))
    strata = data.draw(hst.permutations(inst.stratum().strata))
    node = data.draw(hst.sampled_from([k for k, (_, m) in enumerate(strata) if m == 1]))
    psi, comp = st.psi_sets(st.StratumData(inst.lattice, inst.polarization, inst.v, strata),
                            node)
    for u in psi + comp:
        built = mk.MukaiVector(u.r, u.c1, u.s, inst.lattice)
        assert u == built and hash(u) == hash(built) and repr(u) == repr(built)
        assert type(u.c1) is tuple and all(type(x) is int for x in (u.r, u.s, *u.c1))


@pytest.mark.parametrize("family, n", [("A", 18), ("D", 18), ("E", 8)])
def test_psi_sets_against_direct_sums(family, n):
    # Types beyond the box oracle's reach: every Psi element against the sum
    # sum_k b_k u_k over positive_roots, each checked by the oracle pairing.
    inst, rep = _report(family, n, 3)
    gram = inst.lattice.gram
    v = inst.v
    triples = [(u.r, u.c1, u.s) for u in rep.retained]
    psi_want, comp_want = [], []
    for b in roots.positive_roots(rep.finite):
        r, c1, s = _combination(b, triples)
        psi_want.append((r, c1, s))
        comp_want.append((v.r - r, tuple(a - c for a, c in zip(v.c1, c1)), v.s - s))
    for u in psi_want + comp_want:
        assert oracles.mukai_pairing(gram, u, u) == -2
        assert 0 < u[0] < v.r
    psi, comp = rep.psi_sets()
    assert [(u.r, u.c1, u.s) for u in psi] == psi_want
    assert [(u.r, u.c1, u.s) for u in comp] == comp_want


def test_psi_sets_with_fraction_components(monkeypatch):
    # The same instance over the Gram matrix 4 G in the basis e_i / 2: every
    # c1 halves, every pairing stays, and the Psi-sets follow.
    inst, rep = _report("D", 5, 2)
    half = lat.PicardLattice([[4 * e for e in row] for row in inst.lattice.gram],
                             [f"{name}/2" for name in inst.lattice.basis_labels])

    def halved(u):
        return mk.MukaiVector(u.r, [Fraction(c, 2) for c in u.c1], u.s, half)

    data = st.StratumData(half, inst.polarization, halved(inst.v),
                          tuple((halved(u), m) for u, m in inst.stratum().strata))
    assert any(type(c) is Fraction for c in data.v.c1)
    halved_rep = st.classify_singularity(data)
    with _counting_builds(monkeypatch) as calls:
        psi, comp = halved_rep.psi_sets()
    # Fraction components: every output through the normalising constructor.
    assert calls == {"pairing": 0, "__init__": 2 * len(psi), "_from_fields": 0}
    want_psi, want_comp = rep.psi_sets()
    assert psi == [halved(u) for u in want_psi]
    assert comp == [halved(u) for u in want_comp]


def test_psi_sets_match_the_dot_product_oracle_on_the_sweep():
    # The root-coordinate checks against the Picard-length builder they
    # replaced, element by element and in order, on all 324 sweep specs.
    for family, n in families.SWEEP_TYPES:
        for r in (1, 2, 3):
            for a in (1, 2, 3):
                rep = st.classify_singularity(families.generate_example(
                    families.ExampleSpec(family, n, r, a)).stratum())
                assert rep.psi_sets() == oracles.dot_product_psi_sets(rep), (family, n, r, a)


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(families.SWEEP_TYPES), hst.sampled_from((1, 2, 3)),
       hst.sampled_from((1, 2, 3)), hst.data())
def test_psi_sets_match_the_dot_product_oracle_on_permuted_strata(type_, r, a, data):
    # Shuffled strata and a drawn mark-1 node: the retained Gram comes in the
    # shuffled order, and both builders must still agree on every output.
    inst = families.generate_example(families.ExampleSpec(*type_, r, a))
    strata = data.draw(hst.permutations(inst.stratum().strata))
    node = data.draw(hst.sampled_from([k for k, (_, m) in enumerate(strata) if m == 1]))
    rep = st.classify_singularity(
        st.StratumData(inst.lattice, inst.polarization, inst.v, strata), node)
    assert rep.psi_sets() == oracles.dot_product_psi_sets(rep)


def test_psi_sets_name_the_complement_that_fails():
    # With v + rho for v, every element still has <u, u> = -2 and its rank,
    # but its complement w = v + rho - u has <w, w> = -2 - 2 rk w, since
    # <x, rho> = -rk x.  The first root of the tree fails on its complement,
    # and the message names the complement's own (r, c1, s).
    inst, _ = _report("D", 5, 2)
    v = inst.v + mk.rho(inst.lattice)
    shifted = st.classify_singularity(
        st.StratumData(inst.lattice, inst.polarization, v, inst.stratum().strata))
    _, parent, i = roots.root_tree(shifted.finite)[0]
    assert parent is None
    u = shifted.retained[i]
    w = v - u
    assert mk.mukai_square(u) == -2 and mk.mukai_square(w) == -2 - 2 * w.r != -2
    message = (f"Psi element (r={w.r}, c1={list(w.c1)}, s={w.s}) has <u, u> = "
               f"{-2 - 2 * w.r}; expected -2 and 0 < rk u < {v.r}")
    for build in (st.SingularityReport.psi_sets, oracles.dot_product_psi_sets):
        with pytest.raises(InvariantError) as exc:
            build(shifted)
        assert str(exc.value) == message


def test_stratum_checks_pair_each_class_once(monkeypatch):
    # validate_stratum and classify_singularity read one memoized Gram, and
    # the marks of a type already seen come from its table, not a new kernel.
    inst = families.generate_example(families.ExampleSpec("D", 18, 1, 1))
    data = st.StratumData(inst.lattice, inst.polarization, inst.v,
                          zip(inst.v_list, inst.marks))
    clear_library_caches()
    std = roots.standard_affine_matrix("D", 18)
    roots.classify_affine(std)
    calls = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(mk, "mukai_pairing")
    count(mk, "gram")
    count(linalg, "integer_kernel")
    assert st.validate_stratum(data) == []
    report = st.classify_singularity(data)
    assert report.affine.type_name() == "D~18" and report.marks == inst.marks
    assert calls == {"gram": 1}
    perm = list(range(19))
    random.Random(18).shuffle(perm)
    shuffled = roots.CartanMatrix([[std.entries[perm[i]][perm[j]] for j in range(19)]
                                   for i in range(19)])
    assert roots.classify_affine(shuffled).type_name() == "D~18"
    assert calls == {"gram": 1}


def test_validate_pairs_dense_classes_by_dot_products(monkeypatch):
    # On D~18 (rho = 19) every u_i is a basis class, whose G c1 is a Gram row,
    # so the classes' Gram forms no G c1 by mat_mul_vec.  v pairs with them by
    # one scaled_pairings, which forms G c1(v), and H^ by one G H product.
    # Every class has int components, so nothing is normalized.
    inst = families.generate_example(families.ExampleSpec("D", 18, 2, 3))
    data = inst.stratum()
    clear_library_caches()
    calls = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, counted)

    for module in (mk, st):
        count(module, "mat_mul_vec")
        count(module, "normalize_number")
    count(mk, "scaled_pairings")
    assert st.validate_stratum(data) == []
    assert calls == {("scaled_pairings", "validate_stratum"): 1,
                     ("mat_mul_vec", "scaled_pairings"): 1,
                     ("mat_mul_vec", "validate_stratum"): 1}


def test_validate_matches_the_gram_oracle_on_the_sweep():
    # The validation against the one-Gram check it replaced, on all 324 sweep specs.
    for family, n in families.SWEEP_TYPES:
        for r in (1, 2, 3):
            for a in (1, 2, 3):
                data = families.generate_example(families.ExampleSpec(family, n, r, a)).stratum()
                assert st.validate_stratum(data) == oracles.gram_validate_stratum(data) == [], \
                    (family, n, r, a)


def _shift(u, draw, fraction=False):
    """``u`` with its point component or one ``c1`` coordinate moved by a drawn step."""
    step = draw(hst.integers(-3, 3).filter(bool))
    if fraction:
        step = Fraction(step, draw(hst.integers(2, 5)))
    where = draw(hst.integers(-1, len(u.c1) - 1))
    if where < 0:
        return mk.MukaiVector(u.r, u.c1, u.s + step, u.lattice)
    c1 = list(u.c1)
    c1[where] += step
    return mk.MukaiVector(u.r, c1, u.s, u.lattice)


PERTURBATIONS = ("shift", "multiplicity", "duplicate", "rank", "polarization",
                 "fraction in v", "fraction in u")


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from(families.SWEEP_TYPES), hst.sampled_from((1, 2, 3)),
       hst.sampled_from((1, 2, 3)), hst.lists(hst.sampled_from(PERTURBATIONS), max_size=3),
       hst.data())
def test_validate_matches_the_gram_oracle_on_perturbed_strata(type_, r, a, kinds, data):
    # Each drawn fault moves one part of a sweep stratum; both checks must
    # report the same violations, in order and in text.
    inst = families.generate_example(families.ExampleSpec(*type_, r, a))
    p, h, v, strata = inst.lattice, inst.polarization, inst.v, list(inst.stratum().strata)
    for kind in kinds:
        k = data.draw(hst.integers(0, len(strata) - 1))
        u, m = strata[k]
        if kind == "shift":
            strata[k] = _shift(u, data.draw), m
        elif kind == "multiplicity":
            strata[k] = u, m + data.draw(hst.integers(-3, 3).filter(bool))
        elif kind == "duplicate":
            strata.insert(data.draw(hst.integers(0, len(strata))), strata[k])
        elif kind == "rank":
            strata[k] = mk.MukaiVector(data.draw(hst.integers(-2, 0)), u.c1, u.s, p), m
        elif kind == "polarization":
            entry = hst.integers(-4, 4) | hst.fractions(-4, 4, max_denominator=5)
            h = tuple(data.draw(hst.lists(entry, min_size=p.rank, max_size=p.rank)))
        elif kind == "fraction in v":
            v = _shift(v, data.draw, fraction=True)
        else:
            strata[k] = _shift(u, data.draw, fraction=True), m
    stratum = st.StratumData(p, h, v, strata)
    assert st.validate_stratum(stratum) == oracles.gram_validate_stratum(stratum)


def test_validate_matches_the_gram_oracle_on_fraction_strata():
    # The D~5 instance over the Gram 4 G in the basis e_i / 2: every c1 halves,
    # so every class is non-integral, and v's point component moves by 1/2, so
    # that <v, u_k> = -rk u_k / 2.  The checks agree in text.
    inst = families.generate_example(families.ExampleSpec("D", 5, 1, 1))
    half = lat.PicardLattice([[4 * e for e in row] for row in inst.lattice.gram])

    def halved(u, ds=0):
        return mk.MukaiVector(u.r, [Fraction(c, 2) for c in u.c1], u.s + ds, half)

    data = st.StratumData(half, inst.polarization, halved(inst.v, Fraction(1, 2)),
                          tuple((halved(u), m) for u, m in inst.stratum().strata))
    found = st.validate_stratum(data)
    assert found == oracles.gram_validate_stratum(data)
    assert "stratum vector 1 is not integral" in found
    assert "<v, u_0> = -1/2, expected 0" in found


def test_one_gram_per_validated_and_classified_stratum(monkeypatch):
    # validate -> classify -> psi_sets(data) on one stratum pair its classes
    # once, and H^ is never built as a Mukai vector.
    data = families.generate_example(families.ExampleSpec("D", 18, 2, 3)).stratum()
    clear_library_caches()
    calls = Counter()
    for name in ("gram", "delta_map"):
        inner = getattr(mk, name)
        monkeypatch.setattr(mk, name, lambda *args, _f=inner, _n=name: (
            calls.update([_n]), _f(*args))[1])
    assert st.validate_stratum(data) == []
    assert st.classify_singularity(data).affine.type_name() == "D~18"
    st.psi_sets(data)
    assert calls == {"gram": 1}


def test_stratum_gram_memo_is_bounded():
    inst = families.generate_example(families.ExampleSpec("A", 2, 1, 1))
    clear_library_caches()
    for extra in range(200):
        st.stratum_gram(st.StratumData(inst.lattice, inst.polarization, inst.v,
                                       ((u, m + extra) for u, m in inst.stratum().strata)))
    assert st.stratum_gram.cache_info().currsize == 128


def test_equal_strata_over_equal_lattices_read_one_gram(a2_instance):
    twin = lat.PicardLattice(a2_instance.lattice.gram, a2_instance.lattice.basis_labels)
    assert twin is not a2_instance.lattice

    def over(u):
        return mk.MukaiVector(u.r, u.c1, u.s, twin)

    first = a2_instance.stratum()
    second = st.StratumData(twin, a2_instance.polarization, over(a2_instance.v),
                            tuple((over(u), m) for u, m in first.strata))
    assert first == second
    clear_library_caches()
    assert st.stratum_gram(first) == st.stratum_gram(second) == tuple(
        map(tuple, mk.gram(second.vectors)))
    assert st.stratum_gram.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_triple_point_check_reads_the_validated_gram(monkeypatch, d4_instance):
    p = lat.PicardLattice([[0, 3, 3, 0], [3, 0, 3, 0], [3, 3, 0, 0], [0, 0, 0, 2]])
    u0, u1, u2 = (mk.MukaiVector(1, p.basis_vector(i), 1, p) for i in range(3))
    extra = mk.MukaiVector(1, (0, 0, 0, 1), 0, p)
    triangle = st.StratumData(p, (1, 1, 1, 0), u0 + u1 + u2 + extra,
                              ((extra, 1), (u0, 1), (u1, 1), (u2, 1)))
    clear_library_caches()
    calls = Counter()
    gram = mk.gram
    monkeypatch.setattr(mk, "gram", lambda xs: (calls.update(["gram"]), gram(xs))[1])
    for data in (d4_instance.stratum(), triangle):
        st.validate_stratum(data)
        for node in range(len(data.strata)):
            if data is triangle and node == 0:
                with pytest.raises(TriplePoint):
                    st.no_triple_point_check(data, node)
            else:
                assert st.no_triple_point_check(data, node)
    assert calls == {"gram": 2}


def test_stratum_data_lies_over_its_lattice(a2_instance):
    a2 = a2_instance
    b = families.generate_example(families.ExampleSpec("A", 2, 2, 1))
    assert b.lattice != a2.lattice
    with pytest.raises(ValueError, match="^v and every stratum vector must lie over"):
        st.StratumData(a2.lattice, a2.polarization, b.v, b.stratum().strata)
    (u0, m0), *rest = a2.stratum().strata
    foreign = mk.MukaiVector(u0.r, u0.c1, u0.s, b.lattice)
    with pytest.raises(ValueError, match="^v and every stratum vector must lie over"):
        st.StratumData(a2.lattice, a2.polarization, a2.v, ((foreign, m0), *rest))
    with pytest.raises(ValueError, match="^polarization length does not match Picard rank 3$"):
        st.StratumData(a2.lattice, (*a2.polarization, 1), a2.v, a2.stratum().strata)
    # an equal lattice that is another object is the same ambient
    twin = lat.PicardLattice(a2.lattice.gram, a2.lattice.basis_labels)
    data = st.StratumData(twin, a2.polarization, a2.v, a2.stratum().strata)
    assert st.validate_stratum(data) == []
    assert st.classify_singularity(data).affine.type_name() == "A~2"
