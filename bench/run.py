"""Benchmark of wtp: one workload per call, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sofic-estimate, sponge-estimate, variational-certify, cli-cold
(see bench/README.md).  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it runs the workload once plain and once with the layer tracer
installed, and reports the per-layer metrics and the tracing overhead.  The
last line on standard output is the result as one JSON object; the full
result (and with --trace 1 every span) goes to bench/out/.

Run from anywhere; wtp is imported from src/ of the checkout that holds this
file, and nothing outside that checkout is read or written.

Times are reported at reference speed.  The machines this runs on share
their cores: the same code on the same inputs runs about 1.3 times slower
for minutes at a time.  So this process, which never imports wtp, times a
fixed reference kernel before each set-up and after each round of
operations.  Each set-up time is scaled by REF_NOMINAL_S over the kernel
time just before it; the operations' times by REF_NOMINAL_S over the
kernel's median in the run (operations per second by the inverse).  A
change in wtp moves the operations and not the kernel.  The raw values are
kept in the result file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# One BLAS thread in every process: operations run one at a time, their
# matrices are small or thin, and a two-thread pool on a two-core machine
# adds a ~1 s first-call cost and contends with whatever else runs there.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, for the reference kernel too
import numpy as np  # noqa: E402

# Set-up is timed in fresh processes before and after the worker, and in the
# worker itself, so that its median spans the whole run.
PROBES_BEFORE, PROBES_AFTER = 3, 3
RUN_BUDGET_S = 165  # a run must end within 180 s, checks included
REF_NOMINAL_S = 0.035  # the reference kernel's typical time on the tuning machine
REF_MATRIX = np.random.default_rng(0).random((1024, 1024)) / 1024
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]
SPEED_POWER = {"setup_s": 1, "ops_per_s": -1, "latency_p50_s": 1, "latency_tail_s": 1, "peak_rss_mb": 0}
WORKLOADS = ("sofic-estimate", "sponge-estimate", "variational-certify", "cli-cold")


def reference() -> float:
    """Seconds for fixed interpreter work, fresh-array streaming and a cached matvec."""
    t = time.perf_counter()
    counts = {}
    for i in range(30_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    a = np.ones(2_000_000)
    for _ in range(4):
        a = a * 1.0001 + 0.5
    x = np.ones(1024)
    for _ in range(10):
        x = REF_MATRIX @ x
    float(a.sum() + x.sum())
    return time.perf_counter() - t


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A worker process, timed from its start to its set-up-done line.

    After each round of operations the worker prints "tick" and waits for a
    reply; the reference kernel runs in that pause, outside the timed rounds.
    """

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--deadline", repr(deadline),
        ] + (["--setup-only"] if setup_only else [])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.watchdog = threading.Timer(max(5.0, deadline - time.time() + 10.0), self.proc.kill)
        self.watchdog.start()
        first = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        try:
            self.ready = json.loads(first)
        except json.JSONDecodeError:
            self.finish([])
            raise RuntimeError("worker failed during set-up")

    def finish(self, refs: list) -> str:
        """Time the kernel at every tick until the worker ends; return its last line."""
        last = ""
        for line in self.proc.stdout:
            if line == "tick\n":
                refs.append(reference())
                self.proc.stdin.write("\n")
                self.proc.stdin.flush()
            else:
                last = line
        self.proc.wait()
        self.watchdog.cancel()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return last


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "wtp" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no wtp sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.time() + RUN_BUDGET_S - 15

    setup_refs, refs = [], []

    def start(setup_only: bool) -> Worker:
        setup_refs.append(reference())
        return Worker(args, deadline, setup_only)

    try:
        timed = []
        for _ in range(PROBES_BEFORE):
            timed.append(start(setup_only=True))
            timed[-1].finish(refs)
        timed.append(start(setup_only=False))
        result = json.loads(timed[-1].finish(refs))
        for _ in range(PROBES_AFTER):
            timed.append(start(setup_only=True))
            timed[-1].finish(refs)
    except (RuntimeError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    setup_samples = [w.setup_s for w in timed]
    setup_s = statistics.median(t * REF_NOMINAL_S / r for t, r in zip(setup_samples, setup_refs))
    speed = REF_NOMINAL_S / statistics.median(refs)  # below 1 while the machine runs slow
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "blas_threads": int(BLAS_THREADS), "setup_samples_s": setup_samples,
              "setup_reference_s": setup_refs, "reference_s": refs, "speed_factor": speed}
    if args.trace:
        trace = result.pop("trace")
        metrics = trace["per_layer"]
        metrics["startup.import_s"]["value"] = statistics.median(w.ready["import_s"] for w in timed)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        record.update(result, **trace)
        print(f"tracing overhead: {trace['overhead_pct']:.1f} % "
              f"({trace['untraced_ops_per_s']:.3f} 1/s untraced, {trace['traced_ops_per_s']:.3f} 1/s traced)")
    else:
        raw = dict(result.pop("metrics"), setup_s=statistics.median(setup_samples))
        values = {name: raw[name] * speed ** SPEED_POWER[name] for name in raw}
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        path = OUT / f"result-{args.workload}-seed{args.seed}.json"
        record.update(result, metrics=metrics, raw_metrics=raw)
        print(f"latency_tail_s is p{result['tail_pct']} of {len(result['latencies'])} operations")
    path.write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}; details in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
