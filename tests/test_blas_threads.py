"""Weighted multi-state counts do not depend on the BLAS thread count.

Core claims:
    - `tests/weighted_thread_reprs.py`, which prints repr(log S_N) of
      weighted nested counts whose level-2 weights are BLAS products, prints
      the same bytes under 1 and under 2 OpenBLAS threads
"""
import os
import subprocess
import sys

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, "..", "src")


def _reprs(threads: int) -> str:
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "weighted_thread_reprs.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_weighted_counts_independent_of_blas_threads():
    one = _reprs(1)
    assert one
    assert _reprs(2) == one
