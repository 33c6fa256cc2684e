"""Acceptance suite.

One test per acceptance criterion, each ending with a printed PASS line
(run with ``pytest -s`` to see them on success).  Timing budgets are asserted
where the criterion states one.  All comparisons are exact; there are no
numerical tolerances anywhere.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import oracles
from test_strata import two_configurations
from k3walls import families
from k3walls import lattice as lat
from k3walls import mukai as mk
from k3walls import pipeline
from k3walls import roots
from k3walls import strata as st
from k3walls import walls as wl
from k3walls.errors import Inconsistent


@pytest.fixture(scope="module")
def sweep():
    """All diagonal family instances: every type x (r, a) in {1,2,3}^2."""
    t0 = time.time()
    instances = []
    for fam, n in families.SWEEP_TYPES:
        for r in (1, 2, 3):
            for a in (1, 2, 3):
                instances.append(
                    families.generate_example(families.ExampleSpec(fam, n, r, a)))
    return instances, time.time() - t0


def test_criterion_01_rank1_reproduction():
    t0 = time.time()
    inst = families.generate_example(families.ExampleSpec("A", 1, 1, 1))
    p = inst.lattice
    assert p.gram == ((0, 4), (4, 0))
    h = inst.polarization
    assert lat.pairing(p, h, h) == 8
    for j in range(2):
        assert lat.pairing(p, h, p.basis_vector(j)) == 4
    m = inst.affine_matrix
    for i in range(2):
        for j in range(2):
            assert mk.mukai_pairing(inst.v_list[i], inst.v_list[j]) == -m.entries[i][j]
    for vj in inst.v_list:
        assert mk.mukai_pairing(inst.v, vj) == 0
        assert mk.mukai_pairing(mk.delta_map(inst.v, h), vj) == 0
    assert mk.mukai_square(inst.v) == 0
    h_perp = lat.orthogonal_complement(p, [h])
    assert lat.enumerate_norm_vectors(h_perp, -2, -2) == []
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: rank-1 diagonal instance reproduced exactly "
          f"({elapsed:.3f}s)")


def test_criterion_02_family_sweep(sweep):
    instances, elapsed = sweep
    assert len(instances) == (18 + 15 + 3) * 9
    for inst in instances:
        assert len(inst.verification) == 11
        assert all(inst.verification.values()), inst.spec
    assert elapsed < 300.0
    print(f"PASS criterion 2: {len(instances)} instances, all 11 identities exact "
          f"({elapsed:.1f}s)")


def test_criterion_03_singularity_typing(sweep):
    instances, _ = sweep
    t0 = time.time()
    for inst in instances:
        report = st.classify_singularity(inst.stratum())
        assert report.finite.family == inst.spec.family
        assert report.finite.rank == inst.spec.n
        assert report.affine.marks[report.deleted_node] == 1
    elapsed = time.time() - t0
    print(f"PASS criterion 3: finite type matches family/rank on all "
          f"{len(instances)} instances ({elapsed:.1f}s)")


def test_criterion_04_dual_graph_configuration(sweep):
    instances, _ = sweep
    slowest = 0.0
    for inst in instances:
        t0 = time.time()
        data = inst.stratum()
        report = st.classify_singularity(data)
        vecs = data.vectors
        retained = report.dual_graph.nodes
        edge_lookup = {(i, j): m for i, j, m in report.dual_graph.edges}
        for a_idx in range(len(retained)):
            for b_idx in range(a_idx + 1, len(retained)):
                i, j = retained[a_idx], retained[b_idx]
                pairing = mk.mukai_pairing(vecs[i], vecs[j])
                assert pairing in (0, 1)
                assert edge_lookup.get((i, j), 0) == pairing
        assert report.dual_graph.self_intersection == -2
        for i in retained:
            assert mk.mukai_square(vecs[i]) == -2
        st.no_triple_point_check(data)
        # graph is the standard finite ADE diagram: rebuild and classify
        index = {node: k for k, node in enumerate(retained)}
        size = len(retained)
        cartan = [[2 if a == b else 0 for b in range(size)] for a in range(size)]
        for i, j, m in report.dual_graph.edges:
            cartan[index[i]][index[j]] = cartan[index[j]][index[i]] = -m
        rebuilt = roots.classify_finite(roots.CartanMatrix(cartan))
        assert (rebuilt.family, rebuilt.rank) == (inst.spec.family, inst.spec.n)
        slowest = max(slowest, time.time() - t0)
    assert slowest < 1.0
    print(f"PASS criterion 4: dual graphs match the finite diagrams exactly "
          f"(slowest instance {slowest:.3f}s)")


def _wall_test_instances():
    """Instances of Picard rank <= 3, the elliptic K3 included."""
    out = []
    elliptic = lat.PicardLattice([[-2, 1], [1, 0]], ["sigma", "f"])
    out.append(("elliptic", elliptic, (1, 3), mk.MukaiVector(2, (1, 3), 1, elliptic)))
    out.append(("elliptic-deg0", elliptic, (1, 3), mk.MukaiVector(2, (1, 1), 0, elliptic)))
    out.append(("elliptic-rank4", elliptic, (1, 3), mk.MukaiVector(4, (1, 5), 1, elliptic)))
    rank1 = lat.PicardLattice([[4]])
    out.append(("rank1", rank1, (1,), mk.MukaiVector(2, (1,), 1, rank1)))
    hyper = lat.PicardLattice([[0, 2], [2, 0]])
    out.append(("hyperbolic2", hyper, (1, 1), mk.MukaiVector(2, (1, 1), 1, hyper)))
    mixed = lat.PicardLattice([[2, 0], [0, -2]])
    out.append(("mixed", mixed, (2, 1), mk.MukaiVector(3, (2, 1), 1, mixed)))
    for r, a in ((1, 1), (2, 1), (1, 2)):
        inst = families.generate_example(families.ExampleSpec("A", 1, r, a))
        out.append((f"diag-a1-r{r}a{a}", inst.lattice, inst.polarization, inst.v))
    for r, a in ((1, 1), (2, 1)):
        inst = families.generate_example(families.ExampleSpec("A", 2, r, a))
        out.append((f"diag-a2-r{r}a{a}", inst.lattice, inst.polarization, inst.v))
    diag3 = lat.PicardLattice([[2, 0, 0], [0, -2, 0], [0, 0, -4]])
    out.append(("diag3", diag3, (1, 0, 0), mk.MukaiVector(2, (1, 1, 0), 0, diag3)))
    return out


def test_criterion_05_wall_oracle_equivalence():
    t0 = time.time()
    cases = _wall_test_instances()
    assert len(cases) >= 10
    assert all(p.rank <= 3 for _, p, _, _ in cases)
    elliptic = [c for c in cases if c[0] == "elliptic"][0]
    assert lat.pairing(elliptic[1], elliptic[2], elliptic[2]) == 4
    assert mk.mukai_square(elliptic[3]) == 0
    for name, p, h, v in cases:
        got = {w.u for w in wl.enumerate_walls(p, h, v)}
        expected = oracles.brute_force_walls(p, h, v)
        assert got == expected, name
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 5: wall sets equal brute force on {len(cases)} "
          f"instances ({elapsed:.1f}s)")


def _in_z_span(vectors, u):
    return oracles.span_membership([(x.r, *x.c1, x.s) for x in vectors], (u.r, *u.c1, u.s))[0]


def test_criterion_06_psi_decomposition():
    for fam, n in (("A", 1), ("A", 2), ("A", 3), ("D", 4)):
        inst = families.generate_example(families.ExampleSpec(fam, n, 1, 1))
        data = inst.stratum()
        walls = wl.enumerate_walls(inst.lattice, inst.polarization, inst.v)
        origin = {w.u for w in wl.u_prime(walls)}
        in_span = {u for u in origin if _in_z_span(inst.v_list, u)}
        psi, comp = st.psi_sets(data)
        assert set(psi) & set(comp) == set()
        assert in_span == set(psi) | set(comp), (fam, n)
    print("PASS criterion 6: origin walls inside the stratum span decompose as "
          "Psi+ and v-Psi+ (A~1, A~2, A~3, D~4)")


def test_criterion_07_reflection_properties():
    rng = random.Random(20240)
    pool = []
    for name, p, h, v in _wall_test_instances():
        for w in wl.enumerate_walls(p, h, v):
            pool.append((p, v, w.u))
    a1 = families.generate_example(families.ExampleSpec("A", 1, 1, 1))
    for w in wl.enumerate_walls(a1.lattice, a1.polarization, a1.v):
        pool.append((a1.lattice, a1.v, w.u))
    assert pool
    cases = 0
    for _ in range(2600):
        p, v, u = pool[rng.randrange(len(pool))]
        x = mk.MukaiVector(rng.randint(-8, 8),
                           tuple(rng.randint(-8, 8) for _ in range(p.rank)),
                           rng.randint(-8, 8), p)
        y = mk.MukaiVector(rng.randint(-8, 8),
                           tuple(rng.randint(-8, 8) for _ in range(p.rank)),
                           rng.randint(-8, 8), p)
        rx = wl.reflect(u, x)
        assert wl.reflect(u, rx) == x                      # involution
        assert mk.mukai_pairing(rx, wl.reflect(u, y)) == mk.mukai_pairing(x, y)
        perp = 2 * x + mk.mukai_pairing(x, u) * u          # lies in u-perp
        assert mk.mukai_pairing(perp, u) == 0
        assert wl.reflect(u, perp) == perp                 # fixes u-perp
        if mk.mukai_pairing(v, u) != 0:
            crossed = wl.cross_wall(v, u)
            assert mk.mukai_square(crossed) == 0           # isotropy preserved
            assert mk.is_primitive(crossed)
        cases += 4
    assert cases >= 10 ** 4
    a2 = roots.classify_finite(roots.standard_finite_matrix("A", 2))
    assert len(roots.weyl_orbit(a2, (1, 0))) == 6
    orders = [roots.weyl_group_order(
        roots.classify_finite(roots.standard_finite_matrix("A", n)))
        for n in (1, 2, 3, 4)]
    assert orders == [2, 6, 24, 120]
    d4 = roots.classify_finite(roots.standard_finite_matrix("D", 4))
    assert roots.weyl_group_order(d4) == 192
    print(f"PASS criterion 7: {cases} random reflection checks, orbit and group "
          f"orders exact")


def test_criterion_08_root_counts():
    t0 = time.time()
    expected = ([("A", n, n * (n + 1) // 2) for n in range(1, 9)]
                + [("D", n, n * (n - 1)) for n in range(4, 9)]
                + [("E", 6, 36), ("E", 7, 63), ("E", 8, 120)])
    for fam, n, count in expected:
        diagram = roots.classify_finite(roots.standard_finite_matrix(fam, n))
        enumerated = roots.positive_roots(diagram)
        assert len(enumerated) == count, (fam, n)
        assert set(enumerated) == oracles.box_positive_roots(diagram.matrix.entries)
    e8 = roots.classify_finite(roots.standard_finite_matrix("E", 8))
    assert roots.lie_algebra_dimension(e8) == 248
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 8: all root counts match the box oracle, dim E8 = 248 "
          f"({elapsed:.1f}s)")


def test_criterion_09_strata_orthogonality():
    first, second = two_configurations()
    assert st.validate_stratum(first) == []
    assert st.validate_stratum(second) == []
    assert st.strata_orthogonality(first, second) == "orthogonal"
    assert st.strata_orthogonality(first, first) == "equal"
    shared = st.StratumData(first.lattice, first.polarization, first.v,
                            (first.strata[0], second.strata[1]))
    with pytest.raises(Inconsistent):
        st.strata_orthogonality(first, shared)
    print("PASS criterion 9: distinct strata orthogonal, equal detected, "
          "overlap raises Inconsistent")


def test_criterion_10_determinism(tmp_path):
    # The pipeline is sequential by design (thread counts cannot affect it);
    # hash-seed variation across processes is the environment knob that could
    # perturb any ordering, so that is what gets probed alongside rerun
    # stability.
    inst = families.generate_example(families.ExampleSpec("D", 4, 1, 1))
    doc = pipeline.instance_document(inst, alpha_scale=Fraction(1, 2))
    blobs = {pipeline.dumps_report(pipeline.pipeline_classify(
        pipeline.parse_instance(doc))) for _ in range(5)}
    assert len(blobs) == 1

    import os
    import subprocess
    import sys
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    outputs = set()
    for seed in ("0", "1", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        res = subprocess.run(
            [sys.executable, "-m", "k3walls.cli", "classify", str(path)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outputs.add(res.stdout)
    assert len(outputs) == 1
    print("PASS criterion 10: report bytes identical across 5 reruns and "
          "3 process hash seeds")
