"""Spans and counters around the calls into each layer of wtp.

The tracer replaces module attributes that wtp looks up at call time with
thin wrappers, so nothing under src/ changes.  Each wrapper records a span
(name, start, end, parent, operation) and, for a few functions, work
counters.  Spans stay in memory until the run writes them out.

Only the traced run installs the wrappers; the untraced run calls wtp as it
is.  A hook whose attribute no longer exists is skipped and listed in
`missing`, so a refactor of wtp degrades the trace instead of breaking the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

# (module, class or None, attribute, span name, counter hook name or None)
HOOKS = [
    ("wtp.cli", None, "parse_config", "cli.parse_config", None),
    ("wtp.cli", None, "run", "cli.run", None),
    ("wtp.cli", "Report", "to_json", "cli.report_json", None),
    ("wtp.symbolic", None, "determinize", "symbolic.determinize", "determinize"),
    ("wtp.cli", None, "sofic_weighted_entropy_closed_form", "sofic.closed_form", None),
    ("wtp.sofic", None, "sofic_weighted_entropy_closed_form", "sofic.closed_form", None),
    ("wtp.cli", None, "sofic_dimension_report", "sofic.dimension_report", None),
    ("wtp.sofic", None, "build_count_matrices", "sofic.build_count_matrices", None),
    ("wtp.checks", None, "build_count_matrices", "sofic.build_count_matrices", None),
    ("wtp.sofic", None, "detect_alignment", "sofic.detect_alignment", None),
    ("wtp.checks", None, "detect_alignment", "sofic.detect_alignment", None),
    ("wtp.cli", None, "kp_recursion", "sponge.kp_recursion", None),
    ("wtp.sponge", None, "kp_recursion", "sponge.kp_recursion", None),
    ("wtp.variational", None, "kp_recursion", "sponge.kp_recursion", None),
    ("wtp.cli", None, "hausdorff_dimension", "sponge.dimensions", None),
    ("wtp.cli", None, "minkowski_dimension", "sponge.dimensions", None),
    ("wtp.cli", None, "entropy_estimate", "estimator.entropy_estimate", None),
    ("wtp.estimator", None, "entropy_estimate", "estimator.entropy_estimate", None),
    ("wtp.estimator", None, "nested_count", "estimator.nested_count", "nested_count"),
    ("wtp.checks", None, "nested_count", "estimator.nested_count", "nested_count"),
    ("wtp.estimator", None, "_bottom_matrices", "estimator.bottom_matrices", "bottom_matrices"),
    ("wtp.estimator", None, "submultiplicativity_check", "estimator.submultiplicativity_check", None),
    ("wtp.checks", None, "submultiplicativity_check", "estimator.submultiplicativity_check", None),
    ("wtp.cli", None, "maximize_bernoulli", "variational.maximize_bernoulli", "maximize_bernoulli"),
    ("wtp.variational", None, "maximize_bernoulli", "variational.maximize_bernoulli", "maximize_bernoulli"),
    ("wtp.cli", None, "run_all_checks", "checks.run_all_checks", None),
]

# Per-layer metrics: (name, unit, kind, source).  "time" is the mean inclusive
# time per operation of the spans named by `source`; "count" is a counter's
# total per operation; "max" is the largest value a counter took.
PER_LAYER = [
    ("startup.import_s", "s", "startup", None),
    ("cli.parse_config_s", "s", "time", "cli.parse_config"),
    ("cli.run_s", "s", "time", "cli.run"),
    ("cli.report_json_s", "s", "time", "cli.report_json"),
    ("symbolic.determinize_s", "s", "time", "symbolic.determinize"),
    ("symbolic.automaton_states", "count", "count", "automaton_states"),
    ("sofic.build_count_matrices_s", "s", "time", "sofic.build_count_matrices"),
    ("sofic.detect_alignment_s", "s", "time", "sofic.detect_alignment"),
    ("sponge.kp_recursion_s", "s", "time", "sponge.kp_recursion"),
    ("sponge.dimensions_s", "s", "time", "sponge.dimensions"),
    ("estimator.nested_count_s", "s", "time", "estimator.nested_count"),
    ("estimator.bottom_matrices_s", "s", "time", "estimator.bottom_matrices"),
    ("estimator.words", "count", "count", "words"),
    ("estimator.dp_states", "count", "max", "dp_states"),
    ("estimator.dp_bytes_computed", "B", "count", "dp_bytes_computed"),
    ("estimator.traced_peak_mb", "MB", "max", "traced_peak_mb"),
    ("variational.maximize_bernoulli_s", "s", "time", "variational.maximize_bernoulli"),
    ("variational.ascent_iters", "count", "count", "ascent_iters"),
    ("variational.marginal_bytes_computed", "B", "count", "marginal_bytes_computed"),
    ("checks.run_all_checks_s", "s", "time", "checks.run_all_checks"),
]

FLOAT_BYTES = 8
TRACE_PREFIX = "BENCH-TRACE "  # marks a traced child's export on its standard error


class Tracer:
    """With `memory`, each nested_count call also runs under tracemalloc for
    its peak; that slows allocation-heavy calls, so timed rounds run without it."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index, operation index]
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.missing = []
        self.op = -1
        self._stack = []
        self._restore = []
        self._dp_states = 0

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add_child_trace(self, exported: dict) -> None:
        """Attach the spans and counters a traced child process exported."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, _op in exported["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else base + p, self.op])
        for key, value in exported["counters"].items():
            self.counters[key] += value
        for key, value in exported["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "maxima": dict(self.maxima)}

    # -- wrappers ------------------------------------------------------------
    def install(self) -> None:
        for module_name, class_name, attr, span, hook in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
                continue
            setattr(owner, attr, self._wrap(original, span, hook))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, span: str, hook: str | None):
        signature = inspect.signature(fn)
        before = getattr(self, f"_before_{hook}", None)
        after = getattr(self, f"_after_{hook}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if hook else None
            if bound is not None and before is not None:
                before(bound)
            index = self.begin(span)
            result = None
            try:
                result = fn(*bound.args, **bound.kwargs) if bound is not None else fn(*args, **kwargs)
            finally:
                self.end(index)
                if after is not None:
                    after(bound, result)
            return result

        return wrapper

    # -- counter hooks -------------------------------------------------------
    # `after` hooks also run when the call raised; `result` is then None.
    def _after_determinize(self, bound, result) -> None:
        if result is not None:
            self.counters["automaton_states"] += len(result.states)

    def _after_bottom_matrices(self, bound, result) -> None:
        if result is not None:
            self._dp_states = len(result[0])

    def _before_nested_count(self, bound) -> None:
        self._dp_states = 0
        if self.memory:
            tracemalloc.start()

    def _after_nested_count(self, bound, result) -> None:
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.maxima["traced_peak_mb"] = max(self.maxima["traced_peak_mb"], peak / 2**20)
        if result is None:
            return
        args = bound.arguments
        n = args.get("n", 1)
        letters = len(args["chain"].alphabet(2))
        states = self._dp_states
        self.counters["words"] += letters**n
        self.counters["dp_bytes_computed"] += sum(letters**k for k in range(1, n + 1)) * states * FLOAT_BYTES
        self.maxima["dp_states"] = max(self.maxima["dp_states"], states)

    def _before_maximize_bernoulli(self, bound) -> None:
        if "trace" in bound.signature.parameters and bound.arguments.get("trace") is None:
            bound.arguments["trace"] = []

    def _after_maximize_bernoulli(self, bound, result) -> None:
        trace = bound.arguments.get("trace")
        if result is None or trace is None:
            return
        iters = len(trace) - 1
        digits = bound.arguments["sys"].digits
        rank = len(next(iter(digits)))
        # dense 0/1 marginal matrices: one (|D_j| x |D|) matrix per level
        matrix_bytes = sum(len({d[:j] for d in digits}) for j in range(1, rank + 1)) * len(digits) * FLOAT_BYTES
        self.counters["ascent_iters"] += iters
        # one product per level for the objective and two for the gradient
        self.counters["marginal_bytes_computed"] += matrix_bytes * (3 * iters + 1)


def summarize(tracer: Tracer, ops: int, import_s: float) -> dict:
    """Per-layer metrics per operation, plus self times by span and by layer."""
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    spans = tracer.spans
    for name, start, end, parent, _op in spans:
        duration = end - start
        if parent >= 0:
            child_time[parent] += duration
        # a span nested in one of the same name is already inside its total
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += duration
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
    per_op = max(ops, 1)
    metrics = {}
    for name, unit, kind, source in PER_LAYER:
        if kind == "startup":
            value = import_s
        elif kind == "time":
            value = inclusive[source] / per_op
        elif kind == "count":
            value = tracer.counters[source] / per_op
        else:
            value = tracer.maxima[source]
        metrics[name] = {"value": value, "unit": unit}
    layer_self = defaultdict(float)
    for name, value in self_time.items():
        layer_self[name.split(".")[0]] += value / per_op
    return {
        "per_layer": metrics,
        "self_s_per_op": {k: v / per_op for k, v in sorted(self_time.items())},
        "layer_self_s_per_op": dict(sorted(layer_self.items())),
    }
