"""The k3walls benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: sweep, classify-large, strata-batch, cli-small (see
``perfbench/README.md``); ``cli-contract`` probes the exit-code contract and
is not part of BENCHMARK.json.  The run imports ``k3walls`` from this
checkout's ``src`` and refuses to run against any other copy.  It prints
every metric by name with its unit, writes a result file under
``.perfbench/results`` and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, their times scaled
to a nominal host speed measured through the run (``hostspeed.py``); the
measured times are printed beside them.  With ``--trace 1``
the run makes an untraced, a traced and another untraced pass, reports the
per-layer metrics and writes the spans to ``.perfbench/spans``.
"""

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import hostspeed, stats, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK_WORKLOADS = ("sweep", "classify-large", "strata-batch", "cli-small")
MIN_PASSES = 3
MIN_SETUPS = 5
WARM_UP_SAMPLES = 5
OUT_DIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
MODULES = ("linalg", "lattice", "mukai", "roots", "strata", "walls", "families", "pipeline",
           "cli")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

# Per-layer metrics in the JSON line of a traced run.  Self times are given
# per module, for the modules every workload reaches; the per-function self
# times of all traced functions go to the printed table and the result file.
RATIO_CALLS = ("roots.classify_affine", "roots.classify_finite", "roots.positive_roots")
SELF_TIME_MODULES = ("linalg", "lattice", "mukai", "roots")
PER_LAYER = (
    [(f"{tracing.span_name(m, p)}.calls", "count") for m, p, _ in tracing.TRACED]
    + [(f"{tracing.span_name(m, p)}.yielded", "count")
       for m, p, kind in tracing.TRACED if kind == "gen"]
    + [("mukai.vectors_built", "count"), ("walls.keep_ratio", "ratio"),
       ("pipeline.report_bytes", "bytes")]
    + [(f"{name}.calls_per_op", "1/op") for name in RATIO_CALLS]
    + [(f"{m}.self_s", "s") for m in SELF_TIME_MODULES]
    + [("k3walls.import_s", "s"), ("trace.overhead_s", "s")]
)


class LibraryMissing(Exception):
    """The checkout has no ``src/k3walls`` or the import resolved elsewhere."""


def load_library():
    """Import ``k3walls`` afresh from ``SRC``; returns its modules."""
    init = SRC / "k3walls" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no k3walls package at {init}")
    for name in [n for n in sys.modules if n == "k3walls" or n.startswith("k3walls.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("k3walls")
    importlib.import_module("k3walls.cli")
    if Path(package.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"k3walls imported from {package.__file__}, not {init}")
    return types.SimpleNamespace(**{m: sys.modules[f"k3walls.{m}"] for m in MODULES})


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "k3walls").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "k3walls_file": sys.modules["k3walls"].__file__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


@dataclass
class Pass:
    times: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    child_summaries: list = field(default_factory=list)
    child_spans: list = field(default_factory=list)
    child_import_s: list = field(default_factory=list)

    @property
    def wall(self):
        return sum(self.times)


def run_pass(workload, lib, inputs, ops, digests, workdir, tracer=None, child_trace=False,
             speed=None):
    """Run every op once, timing each; checks follow each op, or the whole
    pass when a tracer is installed, so that checks add no spans.  With
    ``speed``, host-speed samples are taken between ops."""
    result = Pass()
    outputs = []
    trace_file = os.path.join(workdir, "child-trace.json")
    kwargs = {"child_trace": trace_file} if child_trace else {}
    for idx, (op, inp) in enumerate(zip(ops, inputs)):
        if speed is not None:
            speed.maybe_sample()
        if tracer is not None:
            tracer.op = idx
        start = time.perf_counter()
        try:
            out = workload.run(lib, op, inp, **kwargs)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            result.times.append(time.perf_counter() - start)
            result.failures.append((op.label, f"{type(exc).__name__}: {exc}"))
            outputs.append(None)
            continue
        result.times.append(time.perf_counter() - start)
        if child_trace:
            with open(trace_file, encoding="utf-8") as handle:
                child = json.load(handle)
            os.remove(trace_file)
            result.child_summaries.append(child["summary"])
            result.child_import_s.append(child["import_s"])
            result.child_spans.append(dict(child["spans"], process=idx))
        if tracer is None:
            _check(workload, lib, op, inp, out, digests, result)
        else:
            outputs.append((op, inp, out))
    if tracer is not None:
        tracer.uninstall()
        for item in outputs:
            if item is not None:
                _check(workload, lib, *item, digests, result)
    return result


def _check(workload, lib, op, inp, out, digests, result):
    problem = workload.check(lib, op, inp, out, digests)
    if problem:
        result.failures.append((op.label, problem))


def peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(summary, n_ops, import_s, overhead_s):
    functions = summary["functions"]
    values = {}
    for name, entry in functions.items():
        values[f"{name}.calls"] = entry["calls"]
        if "yielded" in entry:
            values[f"{name}.yielded"] = entry["yielded"]
    values["mukai.vectors_built"] = summary["counters"]["mukai.vectors_built"]
    yielded = functions["linalg.coset_vectors"]["yielded"]
    kept = functions["walls.enumerate_walls"]["returned"]
    values["walls.keep_ratio"] = kept / yielded if yielded else 0.0
    values["pipeline.report_bytes"] = functions["pipeline.dumps_report"]["returned"]
    for name in RATIO_CALLS:
        values[f"{name}.calls_per_op"] = functions[name]["calls"] / n_ops
    for module in SELF_TIME_MODULES:
        values[f"{module}.self_s"] = sum(e["self_s"] for name, e in functions.items()
                                         if name.startswith(module + "."))
    values["k3walls.import_s"] = import_s
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def traced_passes(workload, set_up, ops, digests, workdir, seed, import_times, speed):
    """An untraced, a traced and an untraced pass; the untraced passes on both
    sides keep drift over the run out of the overhead figure."""
    before = run_pass(workload, *set_up(), ops, digests, workdir, speed=speed)
    lib, inputs = set_up()
    tracer = None
    if workload.in_process:
        tracer = tracing.Tracer()
        tracer.install()
    traced = run_pass(workload, lib, inputs, ops, digests, workdir, tracer=tracer,
                      child_trace=not workload.in_process, speed=speed)
    after = run_pass(workload, *set_up(), ops, digests, workdir, speed=speed)
    if tracer is not None:
        summary, spans = tracer.summary(), [tracer.spans()]
        import_s = stats.median(import_times)
    else:
        summary = tracing.merge_summaries(traced.child_summaries)
        spans = traced.child_spans
        import_s = stats.median(traced.child_import_s)
    overhead = traced.wall - (before.wall + after.wall) / 2
    metrics = layer_metrics(summary, len(ops), import_s, overhead)
    record = {"functions": summary["functions"],
              "spans_file": write_spans(workload, seed, spans)}
    return [before, after], traced, metrics, record


def measure(workload, seed, seconds, trace, workdir):
    ops = workload.draw(seed)
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    setup_times, import_times, passes = [], [], []
    speed = hostspeed.HostSpeed()
    for _ in range(WARM_UP_SAMPLES):
        speed.sample()

    def set_up():
        """Fresh import and fresh inputs: no pass inherits another's state."""
        start = time.perf_counter()
        lib = load_library()
        imported = time.perf_counter()
        inputs = workload.setup(lib, ops, workdir)
        setup_times.append(time.perf_counter() - start)
        import_times.append(imported - start)
        gc.collect()  # set-up garbage is not the pass's to collect
        return lib, inputs

    if trace:
        untraced, traced, metrics, record_trace = traced_passes(
            workload, set_up, ops, digests, workdir, seed, import_times, speed)
        passes = untraced + [traced]
    else:
        started = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - started + passes[-1].wall <= seconds):
            passes.append(run_pass(workload, *set_up(), ops, digests, workdir, speed=speed))
        untraced, record_trace = passes, {}
    while len(setup_times) < MIN_SETUPS:
        speed.sample()
        set_up()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "operations": len(ops),
              "setup_s_samples": setup_times, **record_trace}

    # End-to-end figures come from untraced passes only.
    untraced_times = [p.times for p in untraced]
    times = stats.per_op_medians(untraced_times)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.times) for p in passes)
    tail_value, tail_pct = stats.tail(untraced_times)
    measured = {
        "setup_s": stats.median(setup_times),
        "wall_s": sum(times),
        "op_p50_ms": 1000.0 * stats.median(times),
        "op_tail_ms": 1000.0 * tail_value,
    }
    scale = speed.scale()
    end_to_end = {name: scale * value for name, value in measured.items()}
    end_to_end["peak_rss_mb"] = peak_rss_mb(workload)
    if not trace:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    record.update({
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "end_to_end": end_to_end, "measured": measured, "tail_percentile": tail_pct,
        "host_speed": {"nominal_s": hostspeed.NOMINAL_S, "exponent": hostspeed.EXPONENT,
                       "scale": scale,
                       "reference_s": stats.median(speed.samples),
                       "samples": speed.samples},
        "untraced_passes": len(untraced),
        "pass_wall_s": [p.wall for p in passes], "op_median_s": times,
        "op_times_s": [p.times for p in passes],
        "failures": failures[:50], "metrics": metrics,
    })
    return record


def write_spans(workload, seed, spans):
    directory = OUT_DIR / "spans"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}-seed{seed}-{os.getpid()}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, "groups": spans}, handle,
                  separators=(",", ":"))
    return str(path.relative_to(ROOT))


def print_report(record):
    e = record["end_to_end"]
    n = record["operations"]
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"operations {record['operations']} x {len(record['pass_wall_s'])} pass(es)")
    print(f"k3walls {env['k3walls_file']}  commit {env['commit']}  python {env['python']}  "
          f"nproc {env['nproc']}  load {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    h, m = record["host_speed"], record["measured"]
    passes = record["untraced_passes"]
    print(f"host speed: reference {1000 * h['reference_s']:.4f} ms (median of "
          f"{len(h['samples'])} samples), nominal {1000 * h['nominal_s']:.4f} ms; times are "
          f"scaled by {h['scale']:.4f}, [measured]")
    print(f"  setup_s      {e['setup_s']:.6f} s   [{m['setup_s']:.6f}]  (median of "
          f"{len(record['setup_s_samples'])} set-ups)")
    print(f"  wall_s       {e['wall_s']:.6f} s   [{m['wall_s']:.6f}]  (one pass: {n} operations, "
          f"each its median over {passes} passes)")
    print(f"  op_p50_ms    {e['op_p50_ms']:.4f} ms  [{m['op_p50_ms']:.4f}]  ({n} samples, "
          "per-operation medians)")
    print(f"  op_tail_ms   {e['op_tail_ms']:.4f} ms  [{m['op_tail_ms']:.4f}]  "
          f"(p{record['tail_percentile']:.1f}, {n * passes} samples: {n} operations x {passes} "
          f"passes, {stats.TAIL_MARGIN * passes} beyond)")
    print(f"  error_rate   {record['error_rate']:.6f}     "
          f"({record['failed']}/{record['attempted']} failed)")
    print(f"  peak_rss_mb  {e['peak_rss_mb']:.2f} MB")
    for label, problem in record["failures"][:10]:
        print(f"  FAILED {label}: {problem}")
    if record["trace"]:
        print("  per function: calls, self_s, yielded")
        for name, entry in record["functions"].items():
            extra = f"  yielded {entry['yielded']}" if "yielded" in entry else ""
            print(f"    {name:32s} {entry['calls']:9d}  {entry['self_s']:.6f} s{extra}")
        for name, m in record["metrics"].items():
            if not name.endswith(".calls"):
                print(f"    {name:32s} {m['value']} {m['unit']}")
        print(f"  spans: {record['spans_file']}")


def run_all(args):
    """Each benchmark workload in its own process, one after another."""
    failed = False
    for name in BENCHMARK_WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        failed = failed or proc.returncode != 0
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measuring time: passes repeat while they fit (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result file (default under .perfbench)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / "work" / str(os.getpid())
    try:
        record = measure(workload, args.seed, args.seconds, args.trace, str(workdir))
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = Path(args.out) if args.out else (
        OUT_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print_report(record)
    print(f"result file: {out}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
