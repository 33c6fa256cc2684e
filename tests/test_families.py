import pytest

import oracles
from k3walls import families
from k3walls import lattice as lat
from k3walls import linalg
from k3walls import mukai as mk
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
    with pytest.raises(ValueError):
        families.ExampleSpec("A", 1, 0, 1)
    with pytest.raises(ValueError):
        families.ExampleSpec("A", 1, 1, -1)


def test_sweep_lattices_have_hyperbolic_signature():
    # The wall search needs signature (1, rho - 1); every sweep type has it at r = a = 1.
    for family, n in families.SWEEP_TYPES:
        inst = families.generate_example(families.ExampleSpec(family, n, 1, 1))
        assert lat.signature(inst.lattice) == (1, inst.affine_matrix.n_nodes - 1, 0), (family, n)


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


def test_type_data_factors_each_form_once(monkeypatch):
    # H-perp's Gram is built once for its definiteness test and its (-2)
    # enumeration; the phi image's once per type, not once per (r, a).
    calls = []
    original = lat.Sublattice.restricted_gram

    def counting(sub):
        calls.append(sub.rank)
        return original(sub)

    monkeypatch.setattr(lat.Sublattice, "restricted_gram", counting)
    families._type_data.cache_clear()
    families.generate_example(families.ExampleSpec("D", 6, 1, 1))
    assert len(calls) == 2
    calls.clear()
    families.generate_example(families.ExampleSpec("D", 6, 2, 1))
    assert len(calls) == 1


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


def test_failed_identity_raises(monkeypatch):
    # A wrong Mukai pairing must stop the build, not be recorded as False.
    def off_by_one(real):
        return lambda *args: [[e + 1 for e in row] for row in real(*args)]

    monkeypatch.setattr(mk, "gram", off_by_one(mk.gram))
    with pytest.raises(RuntimeError, match="stratum_gram"):
        families.generate_example(families.ExampleSpec("A", 3, 1, 1))


def test_stratum_identities_read_one_gram(monkeypatch):
    # The four stratum identities read one Gram of (v_i, v, H^); no pairing one by one.
    calls = {"gram": 0, "mukai_pairing": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mk, name, counted(name, getattr(mk, name)))
    inst = families.generate_example(families.ExampleSpec("D", 7, 2, 1))
    assert calls == {"gram": 1, "mukai_pairing": 0}
    assert all(inst.verification.values())
