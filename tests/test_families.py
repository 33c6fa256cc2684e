import pytest

from k3walls import families
from k3walls import lattice as lat
from k3walls import linalg
from k3walls import mukai as mk
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


def test_example_rank_cap():
    assert families.EXAMPLE_N_CAP >= max(n for _, n in families.SWEEP_TYPES)
    spec = families.ExampleSpec("D", 5, 1, 1)
    with pytest.raises(CapExceeded):
        families.generate_example(spec, cap=4)
    assert all(families.generate_example(spec, cap=5).verification.values())
