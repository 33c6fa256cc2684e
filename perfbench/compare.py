"""Compare two sets of result files, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds untraced result files written by ``run.py``.  For every
workload and end-to-end metric the command prints each side's median and
quartiles and a verdict, by the rule every performance claim uses:

* improved: the head wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ, in the better direction, by more than the base's
  interquartile range;
* worse: the head median is worse than the base median by more than the
  metric's bound in BENCHMARK.json;
* unresolved: the base's own spread is wider than the bound, unless every
  head run is better than every base run;
* unchanged: otherwise.

Runs are paired by seed when both sides ran the same seeds, else in file
order.  ``error_rate`` has no bound: any rise in failed operations is worse.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

WIN_SHARE = 0.9


def load(directory):
    """``{workload: [record, ...]}`` of the untraced result files, by name."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def pairs(base, head):
    base_seeds = [r["seed"] for r in base]
    head_seeds = [r["seed"] for r in head]
    if sorted(base_seeds) == sorted(head_seeds) and len(set(base_seeds)) == len(base_seeds):
        head_by_seed = {r["seed"]: r for r in head}
        return [(r, head_by_seed[r["seed"]]) for r in base]
    return list(zip(base, head))


def verdict(base, head, paired, lower_is_better, bound):
    """One of improved, unchanged, worse, unresolved (see module docstring)."""
    sign = 1 if lower_is_better else -1
    q1, med_b, q3 = stats.quartiles(base)
    med_h = stats.median(head)
    wins = sum(1 for b, h in paired if sign * (h - b) < 0)
    if paired and wins >= WIN_SHARE * len(paired) and sign * (med_b - med_h) > q3 - q1:
        return "improved"
    if bound is None:
        return "worse" if med_h > med_b else "unchanged"
    if med_b and (q3 - q1) / abs(med_b) > bound:
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "unchanged"
        return "unresolved"
    if med_b and sign * (med_h - med_b) / abs(med_b) > bound:
        return "worse"
    return "unchanged"


def metric(record, name):
    if name == "error_rate":
        return record["error_rate"]
    return record["metrics"][name]["value"]


def compare(base_runs, head_runs, spec):
    """Rows of (workload, metric, unit, base quartiles, head quartiles, verdict)."""
    metrics = [(m["name"], m["unit"], m["better"] == "lower", m["bound"])
               for m in spec["end_to_end"]]
    metrics.append(("error_rate", "ratio", True, None))
    rows = []
    for workload in sorted(set(base_runs) | set(head_runs)):
        base, head = base_runs.get(workload, []), head_runs.get(workload, [])
        if not base or not head:
            rows.append((workload, "-", "-", None, None, "missing on one side"))
            continue
        matched = pairs(base, head)
        for name, unit, lower, bound in metrics:
            b = [metric(r, name) for r in base]
            h = [metric(r, name) for r in head]
            paired = [(metric(x, name), metric(y, name)) for x, y in matched]
            rows.append((workload, name, unit, stats.quartiles(b), stats.quartiles(h),
                         verdict(b, h, paired, lower, bound)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare two sets of perfbench results.")
    parser.add_argument("base", help="directory of the parent commit's result files")
    parser.add_argument("head", help="directory of the change's result files")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(load(args.base), load(args.head), spec)
    print(f"{'workload':15s} {'metric':12s} {'base q1/median/q3':>32s}  "
          f"{'head q1/median/q3':>32s}  verdict")
    for workload, name, unit, b, h, result in rows:
        if b is None:
            print(f"{workload:15s} {result}")
            continue
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{workload:15s} {name:12s} {fmt.format(*b):>28s} {unit:3s}  "
              f"{fmt.format(*h):>28s} {unit:3s}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
