"""Spans and counters around calls into ``k3walls``, installed from outside.

The tracer replaces each listed function with a wrapper, in its defining
module and under every other name that binds it (``from ... import`` copies
such as ``mukai.picard_pairing`` and the package re-exports), and restores the
originals on ``uninstall``.  No file of the library changes.

Each call records a span: name, parent span, operation index, start and end.
Spans stay in memory as flat arrays and are written out once, at the end.  A
function's self time is its span time minus the time of the spans nested in
it; a generator's span covers only the time spent inside its own frames.
"""

import sys
import time
from array import array

# (module, attribute path, kind): "call" for a function, "gen" for a generator
# function, whose yielded items are counted as well.
TRACED = (
    ("linalg", "solve_rational", "call"),
    ("linalg", "signature", "call"),
    ("linalg", "short_vectors", "gen"),
    ("linalg", "ldlt", "call"),
    ("linalg", "coset_vectors", "gen"),
    ("linalg", "solve_integer", "call"),
    ("linalg", "integer_kernel", "call"),
    ("lattice", "pairing", "call"),
    ("lattice", "Sublattice.contains", "call"),
    ("lattice", "enumerate_norm_vectors", "call"),
    ("lattice", "orthogonal_complement", "call"),
    ("lattice", "is_negative_definite", "call"),
    ("mukai", "mukai_pairing", "call"),
    ("roots", "classify_affine", "call"),
    ("roots", "classify_finite", "call"),
    ("roots", "positive_roots", "call"),
    ("strata", "validate_stratum", "call"),
    ("strata", "classify_singularity", "call"),
    ("strata", "psi_sets", "call"),
    ("walls", "enumerate_walls", "call"),
    ("walls", "locate", "call"),
    ("families", "generate_example", "call"),
    ("pipeline", "parse_instance", "call"),
    ("pipeline", "pipeline_classify", "call"),
    ("pipeline", "dumps_report", "call"),
    ("pipeline", "dot_graph", "call"),
    ("cli", "main", "call"),
)

# Calls whose result length is summed: walls kept, report characters.
MEASURE_RESULT = ("walls.enumerate_walls", "pipeline.dumps_report")

# Constructors counted without a span.
COUNTED = (("mukai", "MukaiVector.__init__", "mukai.vectors_built"),)

PACKAGE = "k3walls"


def span_name(module, path):
    return f"{module}.{path}"


class Tracer:
    def __init__(self):
        self.names = [span_name(m, p) for m, p, _ in TRACED]
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.yielded = [0] * len(TRACED)
        self.returned = [0] * len(TRACED)
        self.counters = {name: 0 for _, _, name in COUNTED}
        self.op = -1
        self._stack = []  # [span id, name index, resume time, child time]
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_op = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._origin = time.perf_counter()
        self._patched = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, idx):
        span = len(self._span_name)
        now = time.perf_counter()
        self._span_name.append(idx)
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_op.append(self.op)
        self._span_start.append(now)
        self._span_end.append(now)
        self.calls[idx] += 1
        return span

    def _push(self, span, idx):
        self._stack.append([span, idx, time.perf_counter(), 0.0])

    def _pop(self):
        span, idx, start, child = self._stack.pop()
        now = time.perf_counter()
        elapsed = now - start
        self.self_s[idx] += elapsed - child
        self._span_end[span] = now
        if self._stack:
            self._stack[-1][3] += elapsed

    def _wrap_call(self, idx, func):
        measure = self.names[idx] in MEASURE_RESULT

        def traced(*args, **kwargs):
            span = self._open(idx)
            self._push(span, idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self._pop()
            if measure:
                self.returned[idx] += len(result)
            return result
        traced.__wrapped__ = func
        return traced

    def _wrap_gen(self, idx, func):
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            span = self._open(idx)
            try:
                while True:
                    self._push(span, idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._pop()
                    self.yielded[idx] += 1
                    yield item
            finally:
                inner.close()
        traced.__wrapped__ = func
        return traced

    def _wrap_count(self, name, func):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return func(*args, **kwargs)
        counted.__wrapped__ = func
        return counted

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Replace ``original`` in every loaded module of the package."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        """Wrap every listed name of the currently loaded ``k3walls`` modules."""
        for idx, (module_name, path, kind) in enumerate(TRACED):
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: only its class binds it
                owner = getattr(module, owner_path)
                self._set(owner, attr, wrap(idx, owner.__dict__[attr]))
            else:
                original = getattr(module, attr)
                self._rebind(original, wrap(idx, original))
        for module_name, path, name in COUNTED:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path)
            self._set(owner, attr, self._wrap_count(name, owner.__dict__[attr]))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-function ``calls``, ``self_s``, ``yielded`` and ``returned``."""
        out = {}
        for idx, (_, _, kind) in enumerate(TRACED):
            entry = {"calls": self.calls[idx], "self_s": self.self_s[idx]}
            if kind == "gen":
                entry["yielded"] = self.yielded[idx]
            if self.names[idx] in MEASURE_RESULT:
                entry["returned"] = self.returned[idx]
            out[self.names[idx]] = entry
        return {"functions": out, "counters": dict(self.counters)}

    def spans(self):
        """Columnar spans; times in microseconds from tracer creation."""
        origin = self._origin
        return {
            "names": self.names,
            "name": list(self._span_name),
            "parent": list(self._span_parent),
            "op": list(self._span_op),
            "start_us": [round((t - origin) * 1e6, 1) for t in self._span_start],
            "end_us": [round((t - origin) * 1e6, 1) for t in self._span_end],
        }


def merge_summaries(summaries):
    """Sum per-function figures and counters over several summaries."""
    functions, counters = {}, {}
    for summary in summaries:
        for name, entry in summary["functions"].items():
            total = functions.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"functions": functions, "counters": counters}
