"""Always-on invariant suite behind the `check` command.

Each check returns a CheckResult; randomized checks use a fixed seed so runs
are reproducible.  The golden-mean chain checks compare word counts against
per-symbol eigenvalue products with the constant |V| * (max v / min v); the
path-per-word upper bound |V| itself holds only for right-resolving
presentations and is asserted on those.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .estimator import _bottom_matrices, nested_count, submultiplicativity_check
from .sofic import build_count_matrices, detect_alignment, golden_mean_chain
from .sponge import Potential, closed_form, m_fold_potential, m_fold_system
from .symbolic import DigitSystem, SpongeChain, validate_digit_system
from .weights import (
    Exponents,
    bowen_weights_from_bases,
    exponents_from_bases,
    weights_from_exponents,
)

SHIFT_TOL = 1e-9
COLLAPSE_TOL = 1e-12
WEIGHTS_TOL = 1e-12
SUBMULT_SLACK = 1e-9
MONOTONE_TRIALS = 200


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def random_sponge(rng, max_rank=4, max_base=5, max_digits=10) -> DigitSystem:
    r = int(rng.integers(2, max_rank + 1))
    bases = tuple(sorted(int(rng.integers(2, max_base + 1)) for _ in range(r)))
    pool = list(itertools.product(*(range(m) for m in bases)))
    k = int(rng.integers(1, min(max_digits, len(pool)) + 1))
    picked = rng.choice(len(pool), size=k, replace=False)
    return validate_digit_system(bases, [pool[i] for i in picked])


def random_exponents(rng, r) -> Exponents:
    return Exponents(tuple(float(rng.uniform(0.0, 1.0)) for _ in range(r - 1)))


def check_pressure_shift(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        sys = random_sponge(rng)
        chain = SpongeChain(sys)
        a = random_exponents(rng, sys.rank)
        w1 = weights_from_exponents(a)[0]
        f = Potential(
            window=1,
            table={(d,): float(rng.normal()) for d in sys.sorted_digits},
        )
        c = float(rng.normal())
        shifted = Potential(window=1, table={k: v + c for k, v in f.table.items()})
        err = abs(
            closed_form(chain, a, shifted).h_a_nats
            - closed_form(chain, a, f).h_a_nats
            - w1 * c
        )
        worst = max(worst, err)
        # estimator route: f == c against f == 0 is exact
        const = Potential(window=1, table={(d,): c for d in sys.sorted_digits})
        lhs = nested_count(chain, a, const, n=3).per_symbol
        rhs = nested_count(chain, a, None, n=3).per_symbol + w1 * c
        worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        "pressure-shift", worst <= SHIFT_TOL, f"max |P(f+c) - P(f) - w1*c| = {worst:.3e}"
    )


def check_monotonicity(rng) -> CheckResult:
    min_increase = math.inf
    for _ in range(MONOTONE_TRIALS):
        sys = random_sponge(rng)
        chain = SpongeChain(sys)
        a = random_exponents(rng, sys.rank)
        i = int(rng.integers(0, sys.rank - 1))
        bumped = list(a.values)
        bumped[i] = float(rng.uniform(bumped[i], 1.0))
        low = closed_form(chain, a).h_a_nats
        high = closed_form(chain, Exponents(tuple(bumped))).h_a_nats
        min_increase = min(min_increase, high - low)
    return CheckResult(
        "entropy-monotone-in-a",
        min_increase >= -COLLAPSE_TOL,
        f"min increase over {MONOTONE_TRIALS} trials = {min_increase:.3e}",
    )


def check_degenerate_collapses(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        sys = random_sponge(rng)
        chain = SpongeChain(sys)
        r = sys.rank
        ones = Exponents((1.0,) * (r - 1))
        err = abs(closed_form(chain, ones).h_a_nats - math.log(len(sys.digits)))
        worst = max(worst, err)
        zero_top = list(random_exponents(rng, r).values)
        zero_top[-1] = 0.0
        err = abs(
            closed_form(chain, Exponents(tuple(zero_top))).h_a_nats
            - math.log(len(sys.prefixes(1)))
        )
        worst = max(worst, err)
        # estimator collapse: all-zero exponents count admissible top words
        zeros = Exponents((0.0,) * (r - 1))
        count = nested_count(chain, zeros, n=2).log_value
        err = abs(count - 2 * math.log(len(sys.prefixes(1))))
        worst = max(worst, err)
    golden = golden_mean_chain()  # several bottom states, so S_N is enumerated; no rng draws
    for n in (2, 3):
        count = nested_count(golden, Exponents((0.0, 0.0)), n=n).log_value
        worst = max(worst, abs(count - math.log(golden.automaton(3).count_words(n))))
    return CheckResult("degenerate-collapses", worst <= COLLAPSE_TOL, f"max error = {worst:.3e}")


def check_weights_consistency(rng) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        r = int(rng.integers(2, 6))
        bases = tuple(sorted(int(rng.integers(2, 12)) for _ in range(r)))
        via_exponents = weights_from_exponents(exponents_from_bases(bases))
        direct = bowen_weights_from_bases(bases)
        worst = max(
            worst, max(abs(x - y) for x, y in zip(via_exponents.values, direct.values))
        )
    return CheckResult("weights-consistency", worst <= WEIGHTS_TOL, f"max gap = {worst:.3e}")


def _window2_potential(sys: DigitSystem) -> Potential:
    """f(x, y) = ((i + 2 j) mod 3) / 4 for the i-th and j-th sorted digits, no rng:
    its DP states keep the last digit, so a sponge's S_N is enumerated, not S_1^N."""
    ranked = enumerate(sys.sorted_digits)
    table = {(x, y): ((i + 2 * j) % 3) / 4 for (i, x), (j, y) in itertools.product(ranked, repeat=2)}
    return Potential(2, table)


def check_submultiplicativity(rng) -> CheckResult:
    cases = []
    carpet = validate_digit_system((2, 3), [(0, 0), (1, 1), (0, 2)])
    cases.append((SpongeChain(carpet), exponents_from_bases(carpet.bases), 2, 3, _window2_potential(carpet)))
    golden = golden_mean_chain()
    cases.append((golden, exponents_from_bases(golden.system.bases), 3, 4, None))
    sys = random_sponge(rng, max_rank=3, max_base=4, max_digits=6)
    cases.append((SpongeChain(sys), random_exponents(rng, sys.rank), 2, 2, _window2_potential(sys)))
    ok = all(
        submultiplicativity_check(chain, a, n, m, potential, slack=SUBMULT_SLACK)
        for chain, a, n, m, potential in cases
    )
    return CheckResult("submultiplicativity", ok, f"{len(cases)} chains, slack {SUBMULT_SLACK}")


def _golden_word_and_path_counts(n_max=10):
    """Word counts, eigenvalue products, and path totals for every admissible
    level-2 word of the golden-mean chain up to length n_max."""
    chain = golden_mean_chain()
    mats = build_count_matrices(chain.graph)
    alignment = detect_alignment(mats)
    labels = sorted(alignment.eigenvalues)
    start, bottom, _tail, _exact = _bottom_matrices(chain, None, 1)
    transfer = dict(zip(chain.alphabet(2), (m.astype(float) for m in bottom)))

    words = start.astype(float)[None, :]
    paths = np.ones((1, len(chain.graph.vertices)))
    lam = np.ones(1)
    for n in range(1, n_max + 1):
        words = np.concatenate([words @ transfer[lab].T for lab in labels], axis=0)
        # rows are P 1 for the path-count matrix P = A_{k_n} ... A_{k_1}:
        # appending a letter left-multiplies P, so the pairing with `words` is
        # positionwise exact, and the entry sum of P is that of P 1
        paths = np.concatenate([paths @ mats[lab].T for lab in labels], axis=0)
        lam = np.concatenate([lam * alignment.eigenvalues[lab] for lab in labels])
        yield n, words.sum(axis=1), paths.sum(axis=1), lam, alignment


def check_golden_growth_sandwich(n_max=10) -> CheckResult:
    chain = golden_mean_chain()
    nv = len(chain.graph.vertices)
    lo, hi = math.inf, 0.0
    paths_ok = True
    c = None
    for _n, wc, paths, lam, alignment in _golden_word_and_path_counts(n_max):
        vec = np.array(alignment.vector)
        c = nv * float(vec.max() / vec.min())
        if wc.min() <= 0:
            return CheckResult("golden-growth-sandwich", False, "inadmissible word found")
        ratio = wc / lam
        lo, hi = min(lo, float(ratio.min())), max(hi, float(ratio.max()))
        if (paths < wc - 1e-9).any():
            paths_ok = False
    ok = paths_ok and lo >= 1.0 / c and hi <= c
    return CheckResult(
        "golden-growth-sandwich",
        ok,
        f"word/eigen ratios in [{lo:.4f}, {hi:.4f}] within [1/{c:.3f}, {c:.3f}]; paths >= words: {paths_ok}",
    )


def check_power_scaling(rng) -> CheckResult:
    worst = 0.0
    for _ in range(6):
        sys = random_sponge(rng, max_rank=3, max_base=3, max_digits=4)
        a = random_exponents(rng, sys.rank)
        f = Potential(window=1, table={(d,): float(rng.normal()) for d in sys.sorted_digits})
        base_value = closed_form(SpongeChain(sys), a, f).h_a_nats
        for m in (2, 3):
            folded = m_fold_system(sys, m)
            folded_f = m_fold_potential(sys, f, m)
            err = abs(closed_form(SpongeChain(folded), a, folded_f).h_a_nats - m * base_value)
            worst = max(worst, err)
            # estimator at matched total length
            lhs = nested_count(SpongeChain(folded), a, folded_f, n=2).log_value
            rhs = nested_count(SpongeChain(sys), a, f, n=2 * m).log_value
            worst = max(worst, abs(lhs - rhs))
    return CheckResult("power-scaling", worst <= SHIFT_TOL, f"max error = {worst:.3e}")


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_pressure_shift(rng),
        check_monotonicity(rng),
        check_degenerate_collapses(rng),
        check_weights_consistency(rng),
        check_submultiplicativity(rng),
        check_golden_growth_sandwich(),
        check_power_scaling(rng),
    ]
