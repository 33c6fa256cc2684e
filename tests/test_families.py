import random
from collections import Counter
from types import SimpleNamespace

import pytest

import oracles
from conftest import clear_library_caches
from k3walls import families
from k3walls import lattice as lat
from k3walls import linalg
from k3walls import mukai as mk
from k3walls import pipeline
from k3walls import roots
from k3walls import strata as st
from k3walls.errors import CapExceeded


def test_rank1_instance(a1_instance):
    inst = a1_instance
    assert inst.lattice.gram == ((0, 4), (4, 0))
    assert inst.polarization == (1, 1)
    assert lat.pairing(inst.lattice, inst.polarization, inst.polarization) == 8
    assert mk.mukai_pairing(inst.v_list[0], inst.v_list[1]) == 2
    assert all(inst.verification.values())
    assert len(inst.verification) == 11


def test_rank2_instance(a2_instance):
    inst = a2_instance
    assert inst.lattice.gram == ((0, 3, 3), (3, 0, 3), (3, 3, 0))
    h = inst.polarization
    assert lat.pairing(inst.lattice, h, h) == 18
    for j in range(3):
        assert lat.pairing(inst.lattice, h, inst.lattice.basis_vector(j)) == 6


def test_r2_a3_instance():
    inst = families.generate_example(families.ExampleSpec("A", 1, 2, 3))
    h = inst.polarization
    assert lat.pairing(inst.lattice, h, h) == 2 * 6 * 4
    assert all(inst.verification.values())


def test_gram_entries_match_formula():
    for family, n, r, a in [("D", 5, 1, 2), ("E", 6, 3, 1), ("A", 4, 2, 2)]:
        inst = families.generate_example(families.ExampleSpec(family, n, r, a))
        m = inst.affine_matrix
        for i in range(m.n_nodes):
            for j in range(m.n_nodes):
                assert inst.lattice.gram[i][j] == -m.entries[i][j] + 2 * r * a


def test_instance_classifies_to_spec(a3_instance, d4_instance):
    for inst in (a3_instance, d4_instance):
        rep = st.classify_singularity(inst.stratum())
        assert rep.finite.family == inst.spec.family
        assert rep.finite.rank == inst.spec.n
        assert rep.marks == inst.marks


def test_invalid_specs():
    for family, n in [("B", 2), ("D", 3), ("E", 5), ("E", 9), ("A", 0)]:
        with pytest.raises(ValueError):
            families.ExampleSpec(family, n, 1, 1)
    # The type table's own text, as roots.finite_edges gives it.
    for family, n in [("A", 0), ("D", 3), ("E", 9), ("F", 4)]:
        with pytest.raises(ValueError) as exc:
            families.ExampleSpec(family, n, 1, 1)
        with pytest.raises(ValueError) as table:
            roots.check_type(family, n)
        assert str(exc.value) == str(table.value)
    with pytest.raises(ValueError):
        families.ExampleSpec("A", 1, 0, 1)
    with pytest.raises(ValueError):
        families.ExampleSpec("A", 1, 1, -1)


def test_sweep_lattices_have_hyperbolic_signature():
    # The wall search needs signature (1, rho - 1); every sweep type has it at r = a = 1.
    for family, n in families.SWEEP_TYPES:
        inst = families.generate_example(families.ExampleSpec(family, n, 1, 1))
        rho = inst.affine_matrix.n_nodes
        assert linalg.signature(inst.lattice.gram) == (1, rho - 1, 0), (family, n)


def test_fundamental_alpha(a2_instance, d4_instance):
    for inst in (a2_instance, d4_instance):
        tp = families.fundamental_alpha(inst, 2)
        for vi in inst.v_list[1:]:
            assert mk.mukai_pairing(vi, tp.alpha) == 2
        assert mk.mukai_pairing(inst.v, tp.alpha) == 0
    with pytest.raises(ValueError):
        families.fundamental_alpha(d4_instance, 0)


def test_sweep_types_listing():
    assert ("A", 1) in families.SWEEP_TYPES
    assert ("D", 18) in families.SWEEP_TYPES
    assert ("E", 8) in families.SWEEP_TYPES
    assert len(families.SWEEP_TYPES) == 18 + 15 + 3


def test_sweep_path_runs_no_rational_elimination(monkeypatch):
    # Membership and definiteness read integer echelons and fraction-free
    # factors; a rational Gauss-Jordan creeping back in fails here first.
    def refuse(*args):
        raise AssertionError("solve_rational called on the sweep path")

    monkeypatch.setattr(linalg, "solve_rational", refuse)
    for family, n in [("A", 3), ("D", 5), ("E", 6)]:
        inst = families.generate_example(families.ExampleSpec(family, n, 2, 1))
        assert len(inst.verification) == 11
        assert all(inst.verification.values())


def test_example_rank_cap(monkeypatch):
    assert families.EXAMPLE_N_CAP >= max(n for _, n in families.SWEEP_TYPES)
    spec = families.ExampleSpec("D", 5, 1, 1)
    monkeypatch.setattr(families, "EXAMPLE_N_CAP", 4)
    with pytest.raises(CapExceeded):
        families.generate_example(spec)
    monkeypatch.setattr(families, "EXAMPLE_N_CAP", 5)
    assert all(families.generate_example(spec).verification.values())
    # A spec past the cap is refused before anything of size n is built.
    monkeypatch.setattr(roots, "finite_edges", None)
    with pytest.raises(CapExceeded):
        families.generate_example(families.ExampleSpec("A", 10 ** 9, 1, 1))


def test_example_digit_cap():
    # r * a with more digits than the cap is refused before any work; at the
    # cap every number of the document, alpha included, converts to decimal.
    cap = families.EXAMPLE_RA_DIGIT_CAP
    for r, a in [(10 ** cap, 1), (10 ** (cap // 2), 10 ** (cap // 2))]:
        with pytest.raises(CapExceeded, match="digits"):
            families.generate_example(families.ExampleSpec("A", 1, r, a))
    inst = families.generate_example(families.ExampleSpec("A", 2, 10 ** cap - 1, 1))
    assert all(inst.verification.values())
    assert pipeline.dumps_report(pipeline.instance_document(inst, alpha_scale=1))


def test_type_data_factors_each_form_once(monkeypatch):
    # The phi image's Gram is built once per type, on the d_i by bilinearity,
    # and factored once; no Sublattice or restricted Gram is built.  A warm
    # build (same type, other (r, a)) builds no Gram, kernel, factor or descent.
    # The cold build's one kernel is the marks', the kernel of C, which roots
    # caches per type as well.
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(lat, "_restricted_gram",
                        counting("restricted_gram", lat._restricted_gram))
    monkeypatch.setattr(lat.Sublattice, "__init__", counting("Sublattice", lat.Sublattice.__init__))
    for name in ("ldlt", "integer_kernel", "_descent"):
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    clear_library_caches()
    families.generate_example(families.ExampleSpec("D", 6, 1, 1))
    assert calls == Counter(Sublattice=0, restricted_gram=0, ldlt=1, integer_kernel=1,
                            _descent=1)
    calls.clear()
    inst = families.generate_example(families.ExampleSpec("D", 6, 2, 1))
    assert calls == {}
    assert all(inst.verification.values())


@pytest.mark.parametrize("r, a", [(1, 1), (3, 2)])
def test_h_perp_identities_match_the_oracle(r, a):
    # The general check, H-perp as a kernel with membership, definiteness and
    # a (-2) enumeration, agrees on every sweep type with the per-type one.
    names = ("h_perp_span", "h_perp_negative_definite", "h_perp_no_minus_two")
    for family, n in families.SWEEP_TYPES:
        inst = families.generate_example(families.ExampleSpec(family, n, r, a))
        expected = oracles.h_perp_identities(inst.lattice, inst.polarization)
        assert expected == {name: inst.verification[name] for name in names}, (family, n)
        assert all(expected.values()), (family, n)


def test_type_gram_is_minus_the_phi_images():
    # The type facts, read off one difference Gram, are the phi image's as a
    # Sublattice computes them, and the closed form the instances are compared
    # with is minus its restricted Gram: on the sweep types and past them.
    types = (families.SWEEP_TYPES + [("A", n) for n in range(19, 41)]
             + [("D", n) for n in range(19, 31)] + [("A", 64), ("D", 64)])
    for family, n in types:
        matrix, _, saturated, definite, no_norm_two, minus_gram = families._type_data(family, n)
        expected = oracles.phi_image_facts(matrix, n)
        assert (saturated, definite, no_norm_two) == expected[:3], (family, n)
        assert minus_gram == [[-e for e in row] for row in expected[3]], (family, n)
        assert saturated and definite and no_norm_two, (family, n)


def test_type_facts_match_the_oracle_off_the_affine_types(monkeypatch):
    # On even Grams that are not affine Cartan matrices the phi image can be
    # indefinite, degenerate or hold norm-2 vectors; the facts read off the
    # difference Gram still agree with the Sublattice oracle, each way.
    rng = random.Random(22)
    grams = [[[2, 0], [0, 0]], [[4, 0], [0, 0]], [[2, 2], [2, 2]]]
    for _ in range(60):
        k = rng.randint(3, 5)
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            gram[i][i] = 2 * rng.randint(0, 4)
            for j in range(i + 1, k):
                gram[i][j] = gram[j][i] = rng.randint(-2, 2)
        grams.append(gram)
    monkeypatch.setattr(roots, "classify_affine", lambda matrix: SimpleNamespace(marks=None))
    seen = set()
    try:
        for gram in grams:
            matrix = SimpleNamespace(entries=gram)
            monkeypatch.setattr(roots, "standard_affine_matrix", lambda family, n: matrix)
            families._type_data.cache_clear()
            _, _, *facts, minus_gram = families._type_data("A", len(gram) - 1)
            expected = oracles.phi_image_facts(matrix, len(gram) - 1)
            assert facts == list(expected[:3]), gram
            assert minus_gram == [[-e for e in row] for row in expected[3]], gram
            seen.add(tuple(facts))
    finally:
        families._type_data.cache_clear()
    assert seen == {(True, False, False), (True, True, False), (True, True, True)}


@pytest.mark.parametrize("field, change, identity", [
    (2, lambda _: False, "h_perp_span"),
    (3, lambda _: False, "h_perp_negative_definite"),
    (4, lambda _: False, "h_perp_no_minus_two"),
    (5, lambda gram: [[e + 1 for e in row] for row in gram], "h_perp_negative_definite"),
], ids=("unsaturated", "indefinite", "norm-two", "wrong-gram"))
def test_failed_type_fact_raises(monkeypatch, field, change, identity):
    # A type fact that does not hold, or a phi Gram that is not minus the
    # instance's Gram on the d_i, stops every build of that type.
    real = families._type_data

    def patched(family, n):
        data = list(real(family, n))
        data[field] = change(data[field])
        return tuple(data)

    monkeypatch.setattr(families, "_type_data", patched)
    with pytest.raises(RuntimeError, match=identity):
        families.generate_example(families.ExampleSpec("D", 5, 2, 1))


def test_unsaturated_phi_image_raises(monkeypatch):
    # With the phi image spanned by 2 d_0, d_1, ..., its echelon has a pivot
    # +-2: the d_i would not be shown to span H-perp, and the build stops.
    real = linalg.IntegerSystem
    n = 3
    columns = [[(i == j) - (i == j + 1) for j in range(n)] for i in range(n + 1)]  # d_j in column j
    doubled = []

    def doubling(a_rows, n_cols):
        if [list(row) for row in a_rows] == columns:
            doubled.append(n_cols)
            a_rows = [[2 * row[0], *row[1:]] for row in a_rows]
        return real(a_rows, n_cols)

    monkeypatch.setattr(linalg, "IntegerSystem", doubling)
    families._type_data.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="h_perp_span"):
            families.generate_example(families.ExampleSpec("A", n, 1, 1))
    finally:
        families._type_data.cache_clear()
    assert doubled == [n]


def test_type_cache_gives_equal_instances():
    # Every sweep type of Picard rank <= 9: the cold build, the warm one and
    # the type data recomputed from scratch agree, verification included.
    # The box oracle for the phi image runs up to n = 6 (A~8 alone takes 1.4 s).
    types = [(family, n) for family, n in families.SWEEP_TYPES if n + 1 <= 9]
    assert len(types) == 16
    for family, n in types:
        spec = families.ExampleSpec(family, n, 2, 1)
        families._type_data.cache_clear()
        cold = families.generate_example(spec)
        families.generate_example(families.ExampleSpec(family, n, 1, 3))
        warm = families.generate_example(spec)
        assert cold == warm and cold.verification == warm.verification
        assert list(warm.verification) == [
            "h_pairs_constant", "h_square", "h_perp_span", "h_perp_negative_definite",
            "h_perp_no_minus_two", "stratum_gram", "v_orthogonal", "h_hat_orthogonal",
            "v_isotropic", "v_primitive", "phi_image_no_norm_two"]
        matrix = roots.standard_affine_matrix(family, n)
        assert warm.affine_matrix == matrix
        assert warm.marks == roots.classify_affine(matrix).marks
        if n <= 6:
            host = lat.PicardLattice(matrix.entries)
            phi = lat.Sublattice(host, [linalg.vec_sub(host.basis_vector(i),
                                                       host.basis_vector(i + 1))
                                        for i in range(n)])
            assert oracles.box_norm_vectors(phi, 2, 2) == []


def test_stratum_identities_match_the_oracle():
    # The O(n^2) reading agrees with one Mukai Gram of (v_i, v, H^) on all 324 sweep specs.
    names = ("stratum_gram", "v_orthogonal", "h_hat_orthogonal", "v_isotropic")
    for family, n in families.SWEEP_TYPES:
        for r in (1, 2, 3):
            for a in (1, 2, 3):
                inst = families.generate_example(families.ExampleSpec(family, n, r, a))
                expected = oracles.stratum_identities(inst)
                assert expected == {name: inst.verification[name] for name in names}, (
                    family, n, r, a)
                assert all(expected.values()), (family, n, r, a)


def test_failed_identity_raises(monkeypatch):
    # A vector built with a wrong s or c1 (the index-th built on A~3: v_0, or v
    # after v_0..v_3) must stop the build, not be recorded as False; the
    # Gram oracle finds the same identity false on the same vectors.  v built as
    # (2 rk v, H, 0) still pairs to 0 with every v_i, but not H^.
    real = mk.MukaiVector
    spec = families.ExampleSpec("A", 3, 1, 1)
    inst = families.generate_example(spec)
    for index, field, identity in [(0, "s", "stratum_gram"), (0, "c1", "stratum_gram"),
                                   (4, "s", "v_orthogonal"), (4, "c1", "v_orthogonal"),
                                   (4, "r", "h_hat_orthogonal")]:
        built = []

        def faulty(r, c1, s, lattice):
            if len(built) == index:
                if field == "s":
                    s += 1
                elif field == "r":
                    r, s = 2 * r, 0
                else:
                    c1 = linalg.vec_add(c1, lattice.basis_vector(1))
            built.append(real(r, c1, s, lattice))
            return built[-1]

        with monkeypatch.context() as patch:
            patch.setattr(mk, "MukaiVector", faulty)
            with pytest.raises(RuntimeError, match=identity):
                families.generate_example(spec)
        wrong = families.ExampleInstance(spec, inst.lattice, inst.polarization,
                                         tuple(built[:-1]), built[-1], inst.affine_matrix,
                                         inst.marks, {})
        assert oracles.stratum_identities(wrong)[identity] is False, (index, field)


def test_stratum_identities_read_one_gram(monkeypatch):
    # The four stratum identities read the lattice's own Gram and G H: no Mukai
    # Gram, pairing or delta image is built per instance.
    calls = {"gram": 0, "mukai_pairing": 0, "delta_map": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mk, name, counted(name, getattr(mk, name)))
    inst = families.generate_example(families.ExampleSpec("D", 7, 2, 1))
    assert calls == {"gram": 0, "mukai_pairing": 0, "delta_map": 0}
    assert all(inst.verification.values())
