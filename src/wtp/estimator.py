"""Exact finite-N evaluation of the nested weighted count S_N.

On symbolic chains the cylinder partition is an optimal separated cover, so
the infimum in the nested count is attained and S_N is computed exactly:

    S_N = sum over level-r words u of ( ... ( sum over level-2 words v
          above u of  G(v)^{a_1} )^{a_2} ... )^{a_{r-1}},

where G(v) is the number of bottom words over v (full shifts: a per-letter
product of fiber sizes; sofic bottoms: follower-automaton dynamic
programming), or their exp(sup S_N f) weights when a potential is present.
The series starts at N = k for a window-k potential, the first length
holding a window.

Over one bottom state (a full-shift bottom, such as every sponge or a
sofic chain whose follower automaton has one state, with no potential or a
window-1 one) every level is a full shift, and a word's count, or its
weight, is the product of its letters'.  The nested sums then factor
position by position, S_N = S_1^N exactly, and S_1 is the nested sum over
the edge labels that the sponge recursion contracts: log S_1 is
`kp_recursion`'s log Z_0, in Python floats, with nothing enumerated and no
transfer matrix built.  log S_N is N log S_1, and log S_1 itself is each
N's value per symbol and its Fekete bound.  A Z_0 of 0 or inf is the
recursion's ComputationError, and no S_N overflows that S_1 does not.
This route loads no numpy.

Over several states every level-2 word is enumerated, in one pass over the
series, by `wtp.enumeration`, which loads numpy; it is imported at the
first multi-state call.  nested_count is the one-N case of that series.  A
budget caps the number of enumerated words; over one bottom state it is
charged the |A_2| letters of S_1 at every N.  A series checks it for every
N before it counts the first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import sponge
from .defaults import DEFAULT_BUDGET, DEFAULT_N_MAX
from .errors import ComplexityBudgetExceeded, EmptyDigits, PotentialWindowTooLarge, ValidationError
from .sponge import Potential
from .symbolic import SoficChain
from .weights import Exponents, check_exponents


@dataclass(frozen=True)
class NestedCount:
    """S_N held in the log domain (raw counts overflow floats quickly).

    per_symbol is log S_N / N; where S_N = S_1^N it is log S_1 itself.
    """

    n: int
    log_value: float
    per_symbol: float


@dataclass
class EstimateSeries:
    """Entries (N, log S_N / N) plus the running Fekete upper bound.

    For submultiplicative chains each entry bounds the limit from above, so
    the running minimum is a certified upper bound.
    """

    entries: list = field(default_factory=list)
    fekete_bounds: list = field(default_factory=list)

    def append(self, n: int, value: float) -> None:
        self.entries.append((n, value))
        prev = self.fekete_bounds[-1] if self.fekete_bounds else math.inf
        self.fekete_bounds.append(min(prev, value))


def _check_budget(chain: SoficChain, one_state: bool, first: int, last: int, budget: int) -> None:
    """ComplexityBudgetExceeded at the first N in first..last whose count
    enumerates more than `budget` level-2 words: |A_2|**N, or |A_2| over one
    bottom state, where only S_1 is computed.  Decided before anything is built."""
    base = len(chain.alphabet(2))
    if one_state:
        first = last = 1
    over = next((n for n in range(first, last + 1) if base**n > budget), None)
    if over is not None:
        raise ComplexityBudgetExceeded(base**over, budget)


def _nested_counts(chain: SoficChain, a: Exponents, potential: Potential | None, first: int, last: int,
                   budget: int) -> list:
    """NestedCount for N = first..last, the budget checked for every N
    before anything is built.  Over one bottom state (a full-shift bottom
    and a window of at most 1) log S_N is N log S_1, with log S_1 the sponge
    recursion's log Z_0 over the edge labels; otherwise one pass of
    `wtp.enumeration` over the bottom DP, imported here at its first call."""
    avals = check_exponents(a, chain.rank)
    if not chain.graph.edges:
        raise EmptyDigits("the chain's graph has no edges, so it has no words")
    one_state = (potential is None or potential.window == 1) and chain.is_full_shift(1)
    _check_budget(chain, one_state, first, last, budget)
    if one_state:
        log_s1 = sponge.kp_recursion(chain._labels, a, potential).h_a_nats
        return [NestedCount(n, n * log_s1, log_s1) for n in range(first, last + 1)]
    from . import enumeration  # loads numpy

    bottom = enumeration._bottom_matrices(chain, potential, first)
    logs = enumeration._log_counts(chain, avals, bottom, first, last, potential)
    return [NestedCount(n, log_value, log_value / n) for n, log_value in enumerate(logs, first)]


def nested_count(
    chain: SoficChain,
    a: Exponents,
    potential: Potential | None = None,
    n: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> NestedCount:
    """S_N from its level-2 words, nested exponent sums above: the one-N
    series.  Over one bottom state it is S_1^N, with log S_1 from the sponge
    recursion over the edge labels, and per_symbol is log S_1 itself."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return _nested_counts(chain, a, potential, n, n, budget)[0]


def entropy_estimate(
    chain: SoficChain,
    a: Exponents,
    potential: Potential | None = None,
    n_max: int = DEFAULT_N_MAX,
    budget: int = DEFAULT_BUDGET,
) -> EstimateSeries:
    """log S_N / N for N = window..n_max with running Fekete upper bounds.

    S_N needs a whole window inside the word, so the series starts at the
    potential's window (N = 1 without a potential or with window 1).  Each
    entry is nested_count(N).per_symbol, from one pass over the series; the
    budget is checked for every N before anything is built or counted.
    """
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got {n_max}")
    window = potential.window if potential is not None else 1
    if n_max < window:
        raise PotentialWindowTooLarge(f"window {window} exceeds n_max {n_max}")
    series = EstimateSeries()
    for count in _nested_counts(chain, a, potential, window, n_max, budget):
        series.append(count.n, count.per_symbol)
    return series
