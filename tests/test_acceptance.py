"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria, with their stated tolerances and runtime limits:
    1. carpet Hausdorff dimension (1e-3 of 1.349, 1e-12 internal, < 10 ms)
    2. carpet Minkowski dimension (1e-3 of 1.369, < 10 ms)
    3. sofic headline value (5e-5 of 1.4598 nats, both dimension readings,
       ambiguity warning, < 100 ms)
    4. count matrices equal the pinned integers, with the power identities
    5. estimator vs closed form on 50 random sponges (1e-10, N <= 6) and the
       carpet (relative 1e-12, N <= 8), < 30 s
    6. sofic estimate within 0.05 of the closed form at N = 12, Fekete
       bounds nonincreasing, < 60 s
    7. the recursion maximizer's objective reaches the closed form on 20
       random sponges (1e-6, overshoot < 1e-9), < 60 s
    8. `wtp check` passes on each shipped config: every claim that applies
       to its chain holds (submultiplicativity, closed form at most the
       Fekete bound, degenerate exponents count words, pressure shift,
       variational witness, weight formulas)

A final strictly-expected-failure records that the literal per-word
path-per-word bound |V| cannot hold on the frozen chain: its matrices are
pinned, and they force more paths than distinct labels exist.
"""
import math
import os
import time

import numpy as np
import pytest

from wtp.checks import run_all_checks
from wtp.cli import parse_config, run
from wtp.estimator import entropy_estimate, nested_count
from wtp.sofic import build_count_matrices, golden_mean_chain
from wtp.sponge import closed_form, kp_recursion
from wtp.symbolic import SpongeChain
from wtp.variational import bernoulli_objective, optimal_measure_from_recursion
from wtp.weights import Exponents, exponents_from_bases

from chain_tools import golden_word_and_path_counts, random_sponge

L32 = math.log(2) / math.log(3)
PHI = (1 + math.sqrt(5)) / 2
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _load(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return parse_config(fh.read())


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_carpet_hausdorff():
    config = _load("carpet.json")
    run(config, "dimension")  # warm up import-time costs
    report, elapsed = _timed(lambda: run(config, "dimension"))
    dim = report.closed_form["hausdorff_dimension"]
    exact = math.log2(1.0 + 2.0**L32)
    assert abs(dim - exact) <= 1e-12
    assert abs(dim - 1.349) <= 1e-3
    assert elapsed < 0.010
    print(f"\nPASS criterion 1: hausdorff {dim:.12f} (exact gap {abs(dim - exact):.1e}, {elapsed * 1e3:.2f} ms)")


def test_criterion_2_carpet_minkowski():
    config = _load("carpet.json")
    run(config, "dimension")
    report, elapsed = _timed(lambda: run(config, "dimension"))
    dim = report.closed_form["minkowski_dimension"]
    exact = 1.0 + math.log(1.5) / math.log(3)
    assert abs(dim - exact) <= 1e-12
    assert abs(dim - 1.369) <= 1e-3
    assert elapsed < 0.010
    print(f"\nPASS criterion 2: minkowski {dim:.12f} ({elapsed * 1e3:.2f} ms)")


def test_criterion_3_sofic_headline():
    config = _load("golden_sofic.json")
    run(config, "dimension")
    report, elapsed = _timed(lambda: run(config, "dimension"))
    h = report.closed_form["h_a_nats"]
    a1 = math.log(3) / math.log(4)
    a2 = math.log(2) / math.log(3)
    bracket = (PHI**a1 + PHI ** (2 * a1)) ** a2 + PHI ** (3 * a1 * a2)
    assert abs(3 * a1 * a2 - 1.5) <= 1e-14  # the exponent product is exactly 1/2
    assert abs(report.closed_form["bracket_value"] - bracket) <= 1e-12
    assert abs(h - 1.4598) <= 5e-5
    assert abs(report.closed_form["h_over_log_m1"] - 2.1062) <= 1e-3
    assert any("ambiguity" in w for w in report.warnings)
    assert elapsed < 0.100
    print(f"\nPASS criterion 3: h {h:.10f} nats, h/log2 {report.closed_form['h_over_log_m1']:.6f} ({elapsed * 1e3:.2f} ms)")


def test_criterion_4_matrix_fidelity():
    mats = build_count_matrices(golden_mean_chain().graph)
    a = np.array(((0, 1, 1), (0, 0, 1), (1, 1, 0)))
    assert mats[(0, 0)].tolist() == [[0, 1, 1], [0, 0, 1], [1, 1, 0]]
    assert mats[(0, 1)].tolist() == [[1, 1, 1], [1, 1, 0], [0, 1, 2]]
    assert mats[(1, 0)].tolist() == [[1, 2, 2], [0, 1, 2], [2, 2, 1]]
    assert mats[(1, 1)].tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert np.array_equal(a @ a, mats[(0, 1)])
    assert np.array_equal(a @ a @ a, mats[(1, 0)])
    print("\nPASS criterion 4: count matrices and power identities exact")


@pytest.mark.slow
def test_criterion_5_estimator_oracle():
    def body():
        rng = np.random.default_rng(5)
        worst = 0.0
        for trial in range(50):
            if trial % 2:
                # wide two-level systems reach the |D| <= 36 bound
                sys = random_sponge(rng, max_rank=2, max_base=6, max_digits=36)
            else:
                sys = random_sponge(rng)
            chain = SpongeChain(sys)
            a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
            h = closed_form(chain, a).h_a_nats
            for n in range(1, 7):
                worst = max(worst, abs(nested_count(chain, a, n=n).per_symbol - h))
        assert worst <= 1e-10
        carpet = _load("carpet.json").chain
        a = exponents_from_bases((2, 3))
        log_z0 = math.log(kp_recursion(carpet.system, a).z0)
        for n in range(1, 9):
            rel = abs(nested_count(carpet, a, n=n).log_value / (n * log_z0) - 1.0)
            assert rel <= 1e-12
        return worst

    worst, elapsed = _timed(body)
    assert elapsed < 30.0
    print(f"\nPASS criterion 5: 50 sponges, max |est - closed| = {worst:.2e} ({elapsed:.1f} s)")


@pytest.mark.slow
def test_criterion_6_sofic_estimator_convergence():
    def body():
        chain = golden_mean_chain()
        a = exponents_from_bases((2, 3, 4))
        h = closed_form(chain, a).h_a_nats
        series = entropy_estimate(chain, a, n_max=12)
        values = [v for _n, v in series.entries]
        assert series.fekete_bounds == sorted(series.fekete_bounds, reverse=True)
        assert abs(values[-1] - h) <= 0.05
        return values[-1] - h

    gap, elapsed = _timed(body)
    assert elapsed < 60.0
    print(f"\nPASS criterion 6: N=12 estimate gap {gap:+.5f} (<= 0.05, {elapsed:.1f} s)")


@pytest.mark.slow
def test_criterion_7_variational_principle():
    def body():
        rng = np.random.default_rng(7)
        worst_gap = 0.0
        for _ in range(20):
            sys = random_sponge(rng, max_rank=4, max_base=4, max_digits=8)
            a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
            closed = math.log(kp_recursion(sys, a).z0)
            value = bernoulli_objective(sys, a, optimal_measure_from_recursion(sys, a)).value
            assert value <= closed + 1e-9
            assert abs(value - closed) <= 1e-6
            worst_gap = max(worst_gap, abs(value - closed))
        return worst_gap

    worst, elapsed = _timed(body)
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: 20 sponges, max witness gap {worst:.2e} ({elapsed:.1f} s)")


@pytest.mark.slow
@pytest.mark.parametrize("name", ["carpet.json", "carpet_pressure.json", "golden_sofic.json"])
def test_criterion_8_property_suites(name):
    config = _load(name)
    results, elapsed = _timed(lambda: run_all_checks(config))
    for r in results:
        print(f"\n{r.line()}")
    assert results and all(r.passed for r in results), [r.name for r in results if not r.passed]
    print(f"PASS criterion 8: {name}, {len(results)} claims ({elapsed:.1f} s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as literally stated: the pinned matrices give 13 paths "
        "for the single-letter word class (1,0) while at most 4 = m_3 distinct "
        "labels project to it, so paths/words = 3.25 > |V| = 3 at N = 1 for "
        "every faithful presentation; the enforced growth-sandwich form lives "
        "in test_golden_growth_sandwich (tests/test_sofic.py)"
    ),
)
def test_pathword_ratio_at_most_vertex_count_literal():
    for _n, wc, paths, _lam, _alignment in golden_word_and_path_counts(10):
        assert (paths <= 3 * wc).all()
