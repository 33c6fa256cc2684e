"""The four benchmark workloads (and the contract probe).

A workload turns a seed into a fixed list of operations (``draw``), makes
their inputs ready (``setup``, timed as ``setup_s``), runs one operation
(``run``, timed per operation) and checks its output (``check``, untimed).
``draw`` needs no library, so the op lists can be tested without running
them.

Cost in this library depends on the affine type ``X~n`` and on ``r``, much
less on ``a`` (up to a fifth for a few classify documents).  The draws
therefore fix which ``(type, r)`` a pass holds and let the seed pick ``a``
and the order: two seeds give different inputs and nearly the same amount
of work, which keeps run-to-run spread small.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

from perfbench import checks
from perfbench.population import (R_A, SWEEP_TYPES, make_document, picard_rank,
                                  spec_key, type_data)


@dataclass(frozen=True)
class Op:
    kind: str   # what is run: "example", "classify", "strata" or a CLI case
    spec: tuple  # (family, n, r, a) of the document, or None

    @property
    def label(self):
        return self.kind if self.spec is None else f"{self.kind}:{spec_key(self.spec)}"


def _each_type_and_r(kind, seed, types=SWEEP_TYPES):
    """One op per ``(type, r)``, the seed picking ``a`` and the order."""
    rng = random.Random(seed)
    ops = [Op(kind, (family, n, r, rng.choice(R_A))) for family, n in types for r in R_A]
    rng.shuffle(ops)
    return ops


def _type_cache(lib, ops):
    return {op.spec[:2]: type_data(lib, *op.spec[:2]) for op in ops if op.spec is not None}


class Sweep:
    """``generate_example`` on a third of the acceptance sweep: 108 specs.

    Each type appears three times, so work shared across the ``(r, a)`` of a
    type repeats within a pass as it does in the full 324-spec sweep.
    """

    name = "sweep"
    in_process = True

    def draw(self, seed):
        return _each_type_and_r("example", seed)

    def setup(self, lib, ops, workdir):
        types = _type_cache(lib, ops)
        inputs = []
        for op in ops:
            family, n, r, a = op.spec
            entries, marks = types[(family, n)]
            inputs.append((lib.families.ExampleSpec(family, n, r, a), entries,
                           make_document(entries, marks, r, a, alpha=False)))
        return inputs

    def run(self, lib, op, inp):
        return lib.families.generate_example(inp[0])

    def check(self, lib, op, inp, out, digests):
        _, entries, doc = inp
        problem = checks.instance_problem(out, entries, op.spec[2], op.spec[3])
        if problem:
            return problem
        text = json.dumps(lib.pipeline.instance_document(out), indent=2) + "\n"
        if text != json.dumps(doc, indent=2) + "\n":
            return "instance document differs from the generated input"
        return checks.expect_digest(digests, "example", spec_key(op.spec), text)


# One classify-large pass, 40 documents of rank >= 9 and about 9.5 s on a
# 2-core machine: A8, A9, D8, D9 twice per r, E8, A10, A11, D10, D11 once per
# r, and one D~18, a third of the pass on its own.
CLASSIFY_LARGE_MIX = (
    [((family, n), r) for family, n in (("A", 8), ("A", 9), ("D", 8), ("D", 9))
     for r in R_A for _ in range(2)]
    + [((family, n), r) for family, n in (("E", 8), ("A", 10), ("A", 11), ("D", 10), ("D", 11))
       for r in R_A]
    + [(("D", 18), 2)]
)


class ClassifyLarge:
    """``parse_instance -> pipeline_classify -> dumps_report`` on rank >= 9."""

    name = "classify-large"
    in_process = True

    def draw(self, seed):
        rng = random.Random(seed)
        picks = {}  # (type, r) -> the a values left, so no document repeats
        ops = []
        for (family, n), r in CLASSIFY_LARGE_MIX:
            left = picks.setdefault((family, n, r), rng.sample(R_A, len(R_A)))
            ops.append(Op("classify", (family, n, r, left.pop())))
        rng.shuffle(ops)
        return ops

    def setup(self, lib, ops, workdir):
        types = _type_cache(lib, ops)
        inputs = []
        for op in ops:
            doc = make_document(*types[op.spec[:2]], op.spec[2], op.spec[3])
            inputs.append((doc, json.dumps(doc)))
        return inputs

    def run(self, lib, op, inp):
        pipeline = lib.pipeline
        return pipeline.dumps_report(pipeline.pipeline_classify(
            pipeline.parse_instance(json.loads(inp[1]))))

    def check(self, lib, op, inp, out, digests):
        return (checks.wall_problem(inp[0], out)
                or checks.expect_digest(digests, "classify", spec_key(op.spec), out))


class StrataBatch:
    """``validate_stratum -> classify_singularity -> dot_graph -> psi_sets``,
    one sweep document per ``(type, r)``."""

    name = "strata-batch"
    in_process = True

    def draw(self, seed):
        return _each_type_and_r("strata", seed)

    def setup(self, lib, ops, workdir):
        types = _type_cache(lib, ops)
        inputs = []
        for op in ops:
            doc = make_document(*types[op.spec[:2]], op.spec[2], op.spec[3], alpha=False)
            inputs.append((doc, lib.pipeline.parse_instance(doc).stratum_data()))
        return inputs

    def run(self, lib, op, inp):
        data = inp[1]
        violations = lib.strata.validate_stratum(data)
        result = lib.strata.classify_singularity(data)
        dot = lib.pipeline.dot_graph(result.dual_graph)
        plus, minus = lib.strata.psi_sets(data)
        return violations, dot, plus, minus

    def check(self, lib, op, inp, out, digests):
        violations, dot, plus, minus = out
        if violations:
            return "valid stratum reported violations"
        psi = checks.psi_text(plus, minus)
        key = spec_key(op.spec)
        return (checks.psi_problem(inp[0], psi)
                or checks.expect_digest(digests, "dot", key, dot)
                or checks.expect_digest(digests, "psi", key, psi))


# --- whole CLI processes ---------------------------------------------------

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = os.path.join(os.path.dirname(HERE), "src")
CLI_TYPES = tuple((family, n) for family, n in SWEEP_TYPES if picard_rank((family, n)) <= 9)

# The drawn command mix: kind -> (argv before the input path, digest table of
# its stdout).  Every wall of a model instance passes through the origin, so
# ``reflect`` on one is the documented domain error UOnUPrime (exit 3) and
# has no stdout to pin.
CLI_COMMANDS = {
    "classify-json": (["classify"], "classify"),
    "classify-text": (["classify", "--format", "text"], "classify-text"),
    "walls": (["walls"], "walls"),
    "chamber": (["chamber", "--format", "text"], "classify-text"),
    "reflect": (["reflect", "--u-index", "0"], None),
    "dual-graph": (["dual-graph"], "dot"),
    "example": (None, "example"),
}
CLI_KINDS = tuple(CLI_COMMANDS)

# Inputs whose documented outcome is an error exit: kind -> expected codes.
CLI_INVALID = {
    "bad-json": (2,),
    "missing-key": (2,),
    "gram-shape": (2,),
    "non-isotropic": (3,),
    "zero-polarization": (3,),
    "u-index-range": (2,),
    "example-args": (2,),
    "chamber-no-alpha": (2,),
    "dual-graph-no-strata": (2,),
    "bad-mult": (3,),
}

# Inputs that break the exit-code contract at the time of writing: they
# raise a traceback, exit 1.  The contract is exit 2 or 3.
CLI_CONTRACT = {
    "non-primitive-v": (2, 3),
    "rank-zero-v": (2, 3),
    "non-integral-v": (2, 3),
    "delete-node-range": (2, 3),
}
EXPECTED_EXIT = {**{kind: (0,) for kind in CLI_COMMANDS}, "reflect": (3,), **CLI_INVALID,
                 **CLI_CONTRACT}


def _invalid_case(kind, doc):
    """``(argv before the input path, input text)`` of one error case."""
    doc = json.loads(json.dumps(doc))
    v = doc["mukai_vector"]
    if kind == "bad-json":
        text = json.dumps(doc)
        return ["classify"], text[: len(text) // 2]
    if kind == "missing-key":
        del doc["polarization"]
        return ["classify"], json.dumps(doc)
    if kind == "gram-shape":
        doc["picard"]["gram"][0].pop()
        return ["walls"], json.dumps(doc)
    if kind == "non-isotropic":
        v["s"] += 1
        return ["walls"], json.dumps(doc)
    if kind == "zero-polarization":
        doc["polarization"] = [0] * len(doc["polarization"])
        return ["walls"], json.dumps(doc)
    if kind == "u-index-range":
        return ["reflect", "--u-index", "100000"], json.dumps(doc)
    if kind == "chamber-no-alpha":
        del doc["alpha"]
        return ["chamber"], json.dumps(doc)
    if kind == "dual-graph-no-strata":
        del doc["strata"]
        return ["dual-graph"], json.dumps(doc)
    if kind == "bad-mult":
        doc["strata"][0]["mult"] += 1
        return ["dual-graph"], json.dumps(doc)
    if kind == "non-primitive-v":
        doc["mukai_vector"] = {"r": 2 * v["r"], "c1": [2 * c for c in v["c1"]], "s": 2 * v["s"]}
        return ["walls"], json.dumps(doc)
    if kind == "rank-zero-v":
        v["r"] = 0
        return ["walls"], json.dumps(doc)
    if kind == "non-integral-v":
        v["s"] = f"{2 * v['s'] + 1}/2"
        return ["walls"], json.dumps(doc)
    if kind == "delete-node-range":
        out_of_range = str(len(doc["polarization"]) + 4)
        return ["classify", "--delete-node", out_of_range], json.dumps(doc)
    raise ValueError(f"unknown CLI case {kind!r}")


@dataclass(frozen=True)
class CliInput:
    argv: tuple
    doc: dict


class CliSmall:
    """Whole ``python -m k3walls.cli`` processes, one at a time."""

    name = "cli-small"
    in_process = False

    def draw(self, seed):
        rng = random.Random(seed)
        ops = []
        # Each type of rank <= 9 runs under two fixed commands with a fixed r;
        # the seed picks a.  Fixing the (command, type, r) grid fixes the work.
        for t, (family, n) in enumerate(CLI_TYPES):
            for j in (0, 3):
                kind = CLI_KINDS[(t + j) % len(CLI_KINDS)]
                ops.append(Op(kind, (family, n, R_A[(t + j) % 3], rng.choice(R_A))))
        # Error inputs: fixed type and r per kind (some, like an out-of-range
        # reflect index, enumerate the walls first), seeded a.
        for k, kind in enumerate(CLI_INVALID):
            family, n = CLI_TYPES[5 * k % len(CLI_TYPES)]
            spec = (family, n, R_A[k % 3], rng.choice(R_A))
            ops.append(Op(kind, None if kind == "example-args" else spec))
        rng.shuffle(ops)
        return ops

    def setup(self, lib, ops, workdir):
        """Writes each op's input files; returns the argv and source document."""
        types = _type_cache(lib, ops)
        os.makedirs(workdir, exist_ok=True)
        inputs = []
        for i, op in enumerate(ops):
            if op.spec is None:
                inputs.append(CliInput(("example", "--family", "A", "--n", "0", "--r", "1",
                                        "--a", "1"), None))
                continue
            family, n, r, a = op.spec
            doc = make_document(*types[(family, n)], r, a)
            if op.kind == "example":
                argv = ("example", "--family", family, "--n", str(n), "--r", str(r),
                        "--a", str(a))
                inputs.append(CliInput(argv, doc))
                continue
            alpha_text = None
            if op.kind in CLI_COMMANDS:
                head, text = CLI_COMMANDS[op.kind][0], json.dumps(doc)
                if op.kind == "chamber":
                    alpha_text = json.dumps(doc["alpha"])
                    text = json.dumps({k: v for k, v in doc.items() if k != "alpha"})
            else:
                head, text = _invalid_case(op.kind, doc)
            path = os.path.join(workdir, f"{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv = list(head) + [path]
            if alpha_text is not None:
                alpha_path = os.path.join(workdir, f"{i}.alpha.json")
                with open(alpha_path, "w", encoding="utf-8") as handle:
                    handle.write(alpha_text)
                argv += ["--alpha-file", alpha_path]
            inputs.append(CliInput(tuple(argv), doc))
        return inputs

    def run(self, lib, op, inp, child_trace=None):
        """One CLI process on this checkout's ``src``; with ``child_trace``,
        traced through ``child.py``."""
        if child_trace is None:
            command = [sys.executable, "-m", "k3walls.cli", *inp.argv]
        else:
            command = [sys.executable, CHILD, child_trace, *inp.argv]
        path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        return subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True,
                              env=env, timeout=120, check=False)

    def check(self, lib, op, inp, out, digests):
        if "Traceback" in out.stderr.decode("utf-8", "replace"):
            return f"exit {out.returncode} with a traceback"
        if out.returncode not in EXPECTED_EXIT[op.kind]:
            return f"exit {out.returncode}, expected {EXPECTED_EXIT[op.kind]}"
        table = CLI_COMMANDS.get(op.kind, (None, None))[1]
        if table is None:
            return None
        stdout = out.stdout.decode("utf-8")
        if op.kind == "example":
            doc = {k: v for k, v in inp.doc.items() if k != "alpha"}
            if stdout != json.dumps(doc, indent=2) + "\n":
                return "example output differs from the generated document"
        elif op.kind in ("classify-json", "walls"):
            problem = checks.wall_problem(inp.doc, stdout)
            if problem:
                return problem
        return checks.expect_digest(digests, table, spec_key(op.spec), stdout)


class CliContract(CliSmall):
    """Inputs known to break the exit-code contract; not in BENCHMARK.json."""

    name = "cli-contract"

    def draw(self, seed):
        rng = random.Random(seed)
        ops = []
        for kind in CLI_CONTRACT:
            for _ in range(3):
                family, n = ("A", 2) if kind == "delete-node-range" else rng.choice(CLI_TYPES)
                ops.append(Op(kind, (family, n, rng.choice(R_A), rng.choice(R_A))))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Sweep(), ClassifyLarge(), StrataBatch(), CliSmall(),
                                 CliContract())}
