"""One workload in one process: set up, warm up, time whole rounds, check.

Started by run.py, never by hand.  The first line on standard output says
that set-up is done; the last line is the run's result as JSON.  With
--setup-only the process stops after the first line (run.py uses this to
time set-up several times).
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def cache_clearers(wtp) -> list:
    """cache_clear of every functools cache in wtp.

    Each in-process operation stands for one CLI call, and a CLI process
    starts with empty caches, so they are emptied before every operation.
    """
    clearers = []
    for name, module in list(sys.modules.items()):
        if name == "wtp" or name.startswith("wtp."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    clearers.append(obj.cache_clear)
    return clearers


class Phase:
    """Whole rounds of operations, timed one by one."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.elapsed = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed

    def add(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.failed += other.failed
        self.errors += other.errors
        self.elapsed += other.elapsed


def run_rounds(ops, clearers, seconds, min_ops, deadline, reference, tracer=None) -> Phase:
    """Run rounds until `seconds` and `min_ops` are both reached (or the deadline).

    The first output of each operation goes into `reference`; every later
    output must equal it.
    """
    phase = Phase()
    differs = set()
    t0 = time.perf_counter()
    while True:
        for label, fn in ops:
            for clear in clearers:
                clear()
            if tracer is not None:
                tracer.op += 1
                span = tracer.begin("op")
            t = time.perf_counter()
            try:
                out = fn()
            except Exception:
                out = None
                phase.failed += 1
                if len(phase.errors) < 3:
                    phase.errors.append(f"{label}: {traceback.format_exc()}")
            phase.latencies.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.end(span)
            if out is not None and reference.setdefault(label, out) != out and label not in differs:
                differs.add(label)
                phase.errors.append(f"{label}: output differs from its first run")
        pause = time.perf_counter()
        phase.elapsed = pause - t0
        # run.py times its reference kernel in this pause, which is left out
        print("tick", flush=True)
        sys.stdin.readline()
        t0 += time.perf_counter() - pause
        if (phase.elapsed >= seconds and len(phase.latencies) >= min_ops) or time.time() >= deadline:
            return phase


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--deadline", type=float, default=time.time() + 150)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    t = time.perf_counter()
    import wtp
    import wtp.cli
    import_s = time.perf_counter() - t
    if not Path(wtp.__file__).resolve().is_relative_to(root / "src"):
        print(f"wtp was imported from {wtp.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](root, wtp)
    workload.setup(args.seed)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    in_process = args.workload != "cli-cold"
    clearers = cache_clearers(wtp) if in_process else []
    ops = workload.ops()
    # warm-up: one whole round, not timed
    reference = {}
    warm = run_rounds(ops, clearers, 0, 0, args.deadline, reference)
    untimed = [warm]  # rounds whose outputs are checked but which are not counted
    result = {}
    if not args.trace:
        phases = [run_rounds(ops, clearers, args.seconds, workload.min_ops, args.deadline, reference)]
        lat = phases[0].latencies
        usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
        quantiles = statistics.quantiles(lat, n=100, method="inclusive")
        result["metrics"] = {
            "ops_per_s": phases[0].ops_per_s,
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": quantiles[workload.tail_pct - 1],
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        result["tail_pct"] = workload.tail_pct
        result["latencies"] = lat
    else:
        from tracer import Tracer, summarize

        if in_process:
            # one round under tracemalloc for estimator.traced_peak_mb; the
            # cli-cold children measure it on every operation themselves
            memory = Tracer(memory=True)
            memory.install()
            try:
                untimed.append(run_rounds(workload.ops(memory), clearers, 0, 0, args.deadline, reference, memory))
            finally:
                memory.uninstall()
        # plain and traced rounds alternate, so that both see the same machine
        plain, traced, tracer = Phase(), Phase(), Tracer()
        traced_ops = workload.ops(tracer)
        while plain.elapsed + traced.elapsed < args.seconds and time.time() < args.deadline:
            plain.add(run_rounds(ops, clearers, 0, 0, args.deadline, reference))
            tracer.install()
            try:
                traced.add(run_rounds(traced_ops, clearers, 0, 0, args.deadline, reference, tracer))
            finally:
                tracer.uninstall()
        if in_process:
            tracer.maxima["traced_peak_mb"] = memory.maxima["traced_peak_mb"]
        phases = [plain, traced]
        result["trace"] = {
            "untraced_ops_per_s": plain.ops_per_s,
            "traced_ops_per_s": traced.ops_per_s,
            "overhead_pct": (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0,
            "traced_ops": len(traced.latencies),
            "missing_hooks": tracer.missing,
            **summarize(tracer, len(traced.latencies), import_s),
            "spans": tracer.spans,
        }

    errors = [e for ph in untimed + phases for e in ph.errors]
    failures = workload.check(reference)
    for message in errors + failures:
        print(message, file=sys.stderr)
    result.update(
        correct=not errors and not failures and bool(reference),
        attempted=sum(len(ph.latencies) for ph in phases),
        failed=sum(ph.failed for ph in phases),
        import_s=import_s,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
