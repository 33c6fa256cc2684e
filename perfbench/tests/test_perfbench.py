"""Tests of the benchmark itself: draws, digests, statistics, checks, tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compare, hostspeed, run, stats, tracing  # noqa: E402
from perfbench.population import POPULATION, picard_rank, spec_key  # noqa: E402
from perfbench.workloads import (CLI_COMMANDS, WORKLOADS, CliInput, Op,  # noqa: E402
                                 CLASSIFY_LARGE_MIX)

with open(run.DIGESTS, encoding="utf-8") as _handle:
    DIGESTS = json.load(_handle)


@pytest.fixture
def lib():
    return run.load_library()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_operations(name):
    workload = WORKLOADS[name]
    assert workload.draw(7) == workload.draw(7)
    assert len(workload.draw(7)) > stats.TAIL_MARGIN


@pytest.mark.parametrize("name", ["classify-large", "cli-small"])
def test_other_seed_other_draw_same_work(name):
    workload = WORKLOADS[name]
    first, second = workload.draw(1), workload.draw(2)
    assert Counter(op.spec for op in first) != Counter(op.spec for op in second)

    def work(ops):
        return Counter((op.kind, op.spec[:3]) for op in ops if op.kind in CLI_COMMANDS
                       or op.kind == "classify")
    assert work(first) == work(second)
    if name == "classify-large":
        assert len(first) == len(CLASSIFY_LARGE_MIX)


def test_population_is_the_library_sweep(lib):
    types = {spec[:2] for spec in POPULATION}
    assert sorted(types) == sorted(lib.families.SWEEP_TYPES)
    assert len(POPULATION) == 324


def test_digest_table_covers_population():
    for spec in POPULATION:
        key = spec_key(spec)
        for table in ("example", "classify", "dot", "psi"):
            assert key in DIGESTS[table], (table, key)
        if picard_rank(spec) <= 9:
            assert key in DIGESTS["classify-text"] and key in DIGESTS["walls"], key
    for seed in range(20):
        for op in WORKLOADS["cli-small"].draw(seed):
            if op.kind in CLI_COMMANDS and CLI_COMMANDS[op.kind][1] is not None:
                assert spec_key(op.spec) in DIGESTS[CLI_COMMANDS[op.kind][1]]


def test_tail_leaves_ten_beyond():
    for n_passes in range(1, 6):
        for n in range(stats.TAIL_MARGIN + 1, 200):
            passes = [[float(k * n_passes + p) for k in range(n)] for p in range(n_passes)]
            value, percentile = stats.tail(passes)
            beyond = sum(1 for times in passes for v in times if v > value)
            assert beyond == stats.TAIL_MARGIN * n_passes
            assert percentile == pytest.approx(100.0 * (n - stats.TAIL_MARGIN) / n)


def test_tail_needs_more_than_ten():
    with pytest.raises(ValueError):
        stats.tail([[1.0] * stats.TAIL_MARGIN])


def test_host_speed_reference_inverts_its_matrix():
    inverse = hostspeed.reference()
    n = hostspeed.SIZE
    for i in range(n):
        for j in range(n):
            assert sum(hostspeed.MATRIX[i][k] * inverse[k][j] for k in range(n)) == (i == j)
    speed = hostspeed.HostSpeed()
    speed.samples = [0.004, 0.008, 0.012]
    assert speed.scale() == pytest.approx((hostspeed.NOMINAL_S / 0.008) ** hostspeed.EXPONENT)


def _pass(lib, workload, ops, tmp_path):
    inputs = workload.setup(lib, ops, str(tmp_path))
    return run.run_pass(workload, lib, inputs, ops, DIGESTS, str(tmp_path))


def test_corrupted_report_counts_as_failure(lib, tmp_path, monkeypatch):
    workload = WORKLOADS["classify-large"]
    ops = [Op("classify", ("A", 8, 2, 1)), Op("classify", ("E", 8, 1, 3))]
    assert _pass(lib, workload, ops, tmp_path).failures == []
    dumps = lib.pipeline.dumps_report

    def corrupt(report):
        report["walls"]["vectors"][0]["u"]["s"] += 1
        return dumps(report)
    monkeypatch.setattr(lib.pipeline, "dumps_report", corrupt)
    result = _pass(lib, workload, ops, tmp_path)
    assert len(result.failures) == 2
    assert all("<u,u> != -2" in problem for _, problem in result.failures)


def test_corrupted_digest_counts_as_failure(lib, tmp_path, monkeypatch):
    workload = WORKLOADS["strata-batch"]
    ops = [Op("strata", ("D", 5, 1, 1))]
    dot = lib.pipeline.dot_graph
    monkeypatch.setattr(lib.pipeline, "dot_graph", lambda graph: dot(graph) + " ")
    result = _pass(lib, workload, ops, tmp_path)
    assert [problem for _, problem in result.failures] == [
        "dot output differs from the recorded digest"]


def test_failed_identity_counts_as_failure(lib, tmp_path, monkeypatch):
    workload = WORKLOADS["sweep"]
    generate = lib.families.generate_example

    def broken(spec):
        instance = generate(spec)
        instance.verification["v_isotropic"] = False
        return instance
    monkeypatch.setattr(lib.families, "generate_example", broken)
    result = _pass(lib, workload, [Op("example", ("A", 3, 1, 2))], tmp_path)
    assert [problem for _, problem in result.failures] == [
        "verification flags missing or false"]


def test_cli_exit_codes_are_checked(lib, tmp_path):
    workload = WORKLOADS["cli-small"]
    op = Op("dual-graph", ("A", 2, 1, 1))
    (inp,) = workload.setup(lib, [op], str(tmp_path))
    out = workload.run(lib, op, inp)
    assert workload.check(lib, op, inp, out, DIGESTS) is None
    traceback = subprocess.CompletedProcess(out.args, 1, b"", b"Traceback (most recent call last)")
    assert "traceback" in workload.check(lib, op, inp, traceback, DIGESTS)
    wrong_code = subprocess.CompletedProcess(out.args, 3, out.stdout, b"domain error")
    assert "expected (0,)" in workload.check(lib, op, inp, wrong_code, DIGESTS)
    wrong_bytes = subprocess.CompletedProcess(out.args, 0, out.stdout + b"\n", b"")
    assert "digest" in workload.check(lib, op, inp, wrong_bytes, DIGESTS)
    args_op = Op("example-args", None)
    (args_inp,) = workload.setup(lib, [args_op], str(tmp_path))
    assert isinstance(args_inp, CliInput)
    rejected = subprocess.CompletedProcess(out.args, 2, b"", b"schema error: arguments")
    assert workload.check(lib, args_op, args_inp, rejected, DIGESTS) is None


def test_tracer_counts_and_rebinds(lib, tmp_path):
    workload = WORKLOADS["classify-large"]
    ops = [Op("classify", ("A", 8, 1, 1))]
    inputs = workload.setup(lib, ops, str(tmp_path))
    original = lib.lattice.pairing
    tracer = tracing.Tracer()
    tracer.install()
    assert lib.mukai.picard_pairing is lib.lattice.pairing is not original
    result = run.run_pass(workload, lib, inputs, ops, DIGESTS, str(tmp_path), tracer=tracer)
    assert lib.mukai.picard_pairing is original and lib.lattice.pairing is original
    assert result.failures == []
    functions = tracer.summary()["functions"]
    assert functions["roots.classify_affine"]["calls"] == 3
    assert functions["walls.enumerate_walls"]["returned"] == 72
    assert functions["linalg.coset_vectors"]["yielded"] >= 72
    assert functions["lattice.pairing"]["calls"] > 0
    assert tracer.summary()["counters"]["mukai.vectors_built"] > 0
    spans = tracer.spans()
    assert len(spans["name"]) == sum(f["calls"] for f in functions.values())
    total = max(spans["end_us"]) - min(spans["start_us"])
    assert sum(f["self_s"] for f in functions.values()) * 1e6 <= total + 1.0


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [x * 0.7 for x in base]
    slower = [x * 1.3 for x in base]
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]

    def verdict(b, h, bound=0.15):
        return compare.verdict(b, h, list(zip(b, h)), True, bound)
    assert verdict(base, faster) == "improved"
    assert verdict(base, base) == "unchanged"
    assert verdict(base, slower) == "worse"
    assert verdict(noisy, [x * 1.05 for x in noisy]) == "unresolved"
    assert compare.verdict([0.0] * 3, [0.1] * 3, [], True, None) == "worse"


def test_benchmark_json_matches_the_runner():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARK_WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
