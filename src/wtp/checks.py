"""Claims against claims on the chain of one config: the `check` command.

The paper defines weighted entropy and pressure through nested counts S_N
and proves a variational principle for them, so every value `wtp` reports
for a chain can be tested against that same chain's other routes.
`run_all_checks(config)` takes the config's chain, exponents, potential,
n_max and budget, and each line names the claim it tests:

    submultiplicativity       log S_(n+m) <= log S_n + log S_m on the
                              series that `wtp estimate` prints
    closed-form-below-fekete  the closed form is at most the last Fekete
                              bound; on a sponge route, where S_N = S_1^N,
                              the two agree
    degenerate-collapses      at a = 0 and a = 1, S_N counts the top and
                              the bottom words (the automaton DP of
                              `wtp.symbolic`), N <= 3
    pressure-shift            P(f + 0.5) = P(f) + 0.5 w_1, on S_N at
                              N = min(3, n_max) and on the closed form
    variational-witness       the Bernoulli measure read off the sponge
                              recursion reaches log Z_0
    weights-consistency       the two formulas for the base-derived weights

A claim that does not apply to the chain (no closed form, no pair in the
series, a potential wider than one letter) prints no line.  Errors are
those of the routes: a budget overflow exits 2, as `estimate` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ClosedFormUnavailable
from .estimator import entropy_estimate, nested_count
from .sponge import ClosedForm, Potential, closed_form
from .variational import bernoulli_objective, optimal_measure_from_recursion
from .weights import Exponents, bowen_weights_from_bases, exponents_from_bases, weights_from_exponents

SLACK = 1e-9  # two float routes to one value; times max(1, |h|) against a closed form h
EXACT_TOL = 1e-12  # two routes to one exact count or weight
SHIFT = 0.5  # added to the potential on every bottom letter
COLLAPSE_N = 3  # longest N of the count and shift lines


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _tolerance(value: float) -> float:
    return SLACK * max(1.0, abs(value))


def _closed_form(chain, a: Exponents, potential: Potential | None) -> ClosedForm | None:
    try:
        return closed_form(chain, a, potential)
    except ClosedFormUnavailable:
        return None


def _submultiplicativity(series) -> CheckResult | None:
    logs = {n: n * value for n, value in series.entries}
    excess = [logs[n + m] - logs[n] - logs[m] for n in logs for m in logs if n <= m and n + m in logs]
    if not excess:
        return None
    worst = max(excess)
    return CheckResult(
        "submultiplicativity",
        worst <= math.log1p(SLACK),
        f"max log S_(n+m) - log S_n - log S_m = {worst:.3e} over {len(excess)} pairs",
    )


def _below_fekete(closed: ClosedForm, series) -> CheckResult:
    h, bound = closed.h_a_nats, series.fekete_bounds[-1]
    tol = _tolerance(h)
    equal = closed.route == "sponge"  # one bottom state: every entry is log S_1
    passed = h <= bound + tol and (not equal or abs(h - bound) <= tol)
    relation = "=" if equal else "<="
    return CheckResult(
        "closed-form-below-fekete",
        passed,
        f"h_a_nats {h!r} {relation} Fekete bound {bound!r} within {tol:.1e}",
    )


def _degenerate_collapses(chain, n_max: int, budget: int) -> CheckResult:
    r, top = chain.rank, min(COLLAPSE_N, n_max)
    worst = 0.0
    for n in range(1, top + 1):
        for exponent, level in ((0.0, r), (1.0, 1)):
            count = nested_count(chain, Exponents((exponent,) * (r - 1)), n=n, budget=budget).log_value
            exact = math.log(chain.automaton(level).count_words(n))
            worst = max(worst, abs(count - exact) / max(1.0, abs(exact)))
    return CheckResult(
        "degenerate-collapses",
        worst <= EXACT_TOL,
        f"max relative error of log S_N against word counts at N <= {top}: {worst:.3e}",
    )


def _pressure_shift(chain, a, potential, closed, n_max: int, budget: int) -> CheckResult | None:
    if potential is not None and potential.window != 1:
        return None
    letters = chain.alphabet(1)
    values = potential.letter_values(letters) if potential is not None else [0.0] * len(letters)
    shifted = Potential(window=1, table={(x,): v + SHIFT for x, v in zip(letters, values)})
    n = min(COLLAPSE_N, n_max)
    pairs = [(nested_count(chain, a, potential, n, budget).per_symbol,
              nested_count(chain, a, shifted, n, budget).per_symbol)]
    closed_shifted = _closed_form(chain, a, shifted)
    if closed is not None and closed_shifted is not None:
        pairs.append((closed.h_a_nats, closed_shifted.h_a_nats))
    expected = weights_from_exponents(a)[0] * SHIFT
    worst = max(abs(high - low - expected) for low, high in pairs)
    routes = "S_N and closed form" if len(pairs) == 2 else "S_N"
    detail = f"max |P(f+{SHIFT}) - P(f) - w1*{SHIFT}| = {worst:.3e} ({routes}, N = {n})"
    return CheckResult("pressure-shift", worst <= SLACK, detail)


def _variational_witness(chain, a, potential, closed: ClosedForm) -> CheckResult:
    dist = optimal_measure_from_recursion(chain.system, a, potential, closed)
    gap = closed.h_a_nats - bernoulli_objective(chain.system, a, dist, potential).value
    return CheckResult(
        "variational-witness",
        abs(gap) <= _tolerance(closed.h_a_nats),
        f"log Z_0 - objective of the recursion's measure = {gap:.3e}",
    )


def _weights_consistency(bases) -> CheckResult:
    via_exponents = weights_from_exponents(exponents_from_bases(bases))
    direct = bowen_weights_from_bases(bases)
    gap = max(abs(x - y) for x, y in zip(via_exponents.values, direct.values))
    return CheckResult("weights-consistency", gap <= EXACT_TOL, f"max gap = {gap:.3e} at bases {list(bases)}")


def run_all_checks(config) -> list[CheckResult]:
    """The claims that apply to the chain of `config` (a `wtp.cli.RunConfig`), in a fixed order."""
    chain, a, potential = config.chain, config.exponents, config.potential
    series = entropy_estimate(chain, a, potential, n_max=config.n_max, budget=config.budget)
    closed = _closed_form(chain, a, potential)
    sponge_route = closed is not None and closed.route == "sponge"
    results = [
        _submultiplicativity(series),
        _below_fekete(closed, series) if closed is not None else None,
        _degenerate_collapses(chain, config.n_max, config.budget),
        _pressure_shift(chain, a, potential, closed, config.n_max, config.budget),
        _variational_witness(chain, a, potential, closed) if sponge_route else None,
        _weights_consistency(chain.system.bases),
    ]
    return [result for result in results if result is not None]
