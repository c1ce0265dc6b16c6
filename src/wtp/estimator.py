"""Exact finite-N evaluation of the nested weighted count S_N.

On symbolic chains the cylinder partition is an optimal separated cover, so
the infimum in the nested count is attained and S_N is computed exactly:

    S_N = sum over level-r words u of ( ... ( sum over level-2 words v
          above u of  G(v)^{a_1} )^{a_2} ... )^{a_{r-1}},

where G(v) is the number of bottom words over v (full shifts: a per-letter
product of fiber sizes; sofic bottoms: follower-automaton dynamic
programming), or their exp(sup S_N f) weights when a potential is present.

Every level-2 word is enumerated; per-word quantities and the nested
groupings run as vectorized array passes in a fixed order, so results are
independent of any worker scheduling.  A budget caps the number of
enumerated words (memory additionally scales with the bottom DP state
count).  Counts stay integer-exact: float64 carries them while the largest
possible count fits a 52-bit mantissa, otherwise exact big-integer arrays
are used until the first exponentiation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComplexityBudgetExceeded,
    ExponentLengthMismatch,
    PotentialWindowTooLarge,
    ValidationError,
)
from .sponge import Potential
from .symbolic import Chain, SoficChain
from .weights import Exponents

DEFAULT_BUDGET = 10**7
DEFAULT_N_MAX = 12


@dataclass(frozen=True)
class NestedCount:
    """S_N held in the log domain (raw counts overflow floats quickly)."""

    n: int
    log_value: float
    potential: Potential | None = None

    @property
    def per_symbol(self) -> float:
        return self.log_value / self.n


@dataclass
class EstimateSeries:
    """Entries (N, log S_N / N) plus the running Fekete upper bound.

    For submultiplicative chains each entry bounds the limit from above, so
    the running minimum is a certified upper bound.
    """

    entries: list = field(default_factory=list)
    fekete_bounds: list = field(default_factory=list)
    closed_form: float | None = None

    def append(self, n: int, value: float) -> None:
        self.entries.append((n, value))
        prev = self.fekete_bounds[-1] if self.fekete_bounds else math.inf
        self.fekete_bounds.append(min(prev, value))


def _check_exponents(chain: Chain, a: Exponents) -> tuple[float, ...]:
    if len(a) != chain.rank - 1:
        raise ExponentLengthMismatch(f"need {chain.rank - 1} exponents, got {len(a)}")
    return a.values


def _bottom_is_sofic(chain: Chain) -> bool:
    return isinstance(chain, SoficChain) and not chain.is_full_shift(1)


def _bottom_matrices(chain: Chain, potential: Potential | None, n: int):
    """Per level-2 letter: transfer matrix over bottom DP states.

    States are trivial for full-shift bottoms with window-1 weights; sofic
    bottoms use follower-automaton states; window-k potentials extend the
    state with the last k-1 bottom letters.  Returns (start vector, matrices
    in level-2 alphabet order, tail weights, exact-integers flag).
    """
    alphabet2 = chain.alphabet(2)
    fibers = chain.fibers(1)
    window = potential.window if potential is not None else 1
    if window > n:
        raise PotentialWindowTooLarge(f"window {window} exceeds word length {n}")

    if _bottom_is_sofic(chain):
        aut = chain.automaton(1)
        step = lambda s, letter: aut.transitions.get((s, letter))
        start_aut = aut.initial
    else:
        step = lambda s, letter: 0
        start_aut = 0

    # state = (automaton state, last window-1 bottom letters), found depth
    # first; with window 1 this is the follower automaton's own state order
    memory = window - 1
    exact = potential is None
    states = [(start_aut, ())]
    index = {states[0]: 0}
    entries = []  # (level-2 letter index, target, source, weight)
    frontier = [states[0]]
    while frontier:
        src = frontier.pop()
        s, hist = src
        for k, letter2 in enumerate(alphabet2):
            for letter in fibers.get(letter2, ()):
                t = step(s, letter)
                if t is None:
                    continue
                full = hist + (letter,)
                dst = (t, full[-memory:] if memory else ())
                if dst not in index:
                    index[dst] = len(states)
                    states.append(dst)
                    frontier.append(dst)
                # a window is complete once the history has filled up
                w = 1 if exact or len(full) < window else potential.weight(full)
                entries.append((k, index[dst], index[src], w))
    dtype = object if exact else float
    mats = [np.zeros((len(states), len(states)), dtype=dtype) for _ in alphabet2]
    for k, i, j, w in entries:
        mats[k][i, j] += w
    start = np.zeros(len(states), dtype=dtype)
    start[0] = 1
    tail = np.array(
        [1 if window == 1 else _tail_weight(chain, potential, s, hist) for s, hist in states],
        dtype=dtype,
    )
    return start, mats, tail, exact


def _tail_weight(chain: Chain, potential: Potential, aut_state, hist) -> float:
    """exp(max over admissible extensions of the windows overhanging the word end)."""
    window = potential.window
    memory = window - 1
    if len(hist) < memory:
        return 1.0  # only reachable before the history fills; never weighted
    letters = [x for f in chain.fibers(1).values() for x in f]
    aut = chain.automaton(1) if _bottom_is_sofic(chain) else None

    best = -math.inf

    def rec(state, tail_hist, acc, remaining):
        nonlocal best
        if remaining == 0:
            best = max(best, acc)
            return
        for letter in letters:
            if aut is not None:
                nxt = aut.transitions.get((state, letter))
                if nxt is None:
                    continue
            else:
                nxt = state
            full = tail_hist + (letter,)
            rec(nxt, full[-memory:] if memory else (), acc + potential.value(full[-window:]), remaining - 1)

    rec(aut_state, tuple(hist), 0.0, memory)
    return math.exp(best) if best > -math.inf else 0.0


def _projection_codes(letter_proj: np.ndarray, size_hi: int, n: int) -> np.ndarray:
    """Length-n word codes over the finer alphabet -> codes of their projections.

    Codes are big-endian in position order; both encodings use that scheme.
    """
    codes = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        codes = (codes[:, None] * size_hi + letter_proj[None, :]).reshape(-1)
    return codes


def nested_count(
    chain: Chain,
    a: Exponents,
    potential: Potential | None = None,
    n: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> NestedCount:
    """S_N by full enumeration of level-2 words, nested exponent sums above."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    avals = _check_exponents(chain, a)
    r = chain.rank
    alphabets = {lvl: chain.alphabet(lvl) for lvl in range(2, r + 1)}
    base = len(alphabets[2])
    if base**n > budget:
        raise ComplexityBudgetExceeded(base**n, budget)

    start, mats, tail, exact = _bottom_matrices(chain, potential, n)
    if exact:
        max_fiber = max((len(f) for f in chain.fibers(1).values()), default=1)
        if max_fiber**n <= 2**52:
            start = start.astype(float)
            mats = [m.astype(float) for m in mats]
            tail = tail.astype(float)
            exact = False

    # letter-index projections between consecutive alphabets
    proj = {}
    for lvl in range(2, r):
        coarse = {x: k for k, x in enumerate(alphabets[lvl + 1])}
        j = chain.prefix_length(lvl)
        proj[lvl] = np.array([coarse[x[: j - 1]] for x in alphabets[lvl]], dtype=np.int64)

    # enumerate level-2 words: DP vectors plus the level-3 projected word code
    vectors = start[None, :].copy()
    size3 = len(alphabets[3]) if r >= 3 else 1
    code3 = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        vectors = np.concatenate([vectors.dot(m.T) for m in mats], axis=0)
        if r >= 3:
            code3 = np.concatenate([code3 * size3 + proj[2][k] for k in range(base)])
    weights = vectors.dot(tail)
    if exact:
        weights = np.array([float(x) for x in weights])

    # fold upward: a_1 groups level-2 under level-3 words, ..., a_{r-1} tops out
    if r == 2:
        mask = weights > 0
        total = float(np.sum(weights[mask] ** avals[0]))
        return NestedCount(n=n, log_value=math.log(total), potential=potential)
    mask = weights > 0
    current = np.bincount(code3[mask], weights=weights[mask] ** avals[0], minlength=size3**n)
    for lvl in range(3, r):
        size_hi = len(alphabets[lvl + 1])
        upcodes = _projection_codes(proj[lvl], size_hi, n)
        mask = current > 0
        current = np.bincount(
            upcodes[mask], weights=current[mask] ** avals[lvl - 2], minlength=size_hi**n
        )
    mask = current > 0
    total = float(np.sum(current[mask] ** avals[-1]))
    return NestedCount(n=n, log_value=math.log(total), potential=potential)


def entropy_estimate(
    chain: Chain,
    a: Exponents,
    potential: Potential | None = None,
    n_max: int = DEFAULT_N_MAX,
    budget: int = DEFAULT_BUDGET,
    closed_form: float | None = None,
) -> EstimateSeries:
    """log S_N / N for N = 1..n_max with running Fekete upper bounds."""
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got {n_max}")
    series = EstimateSeries(closed_form=closed_form)
    for n in range(1, n_max + 1):
        count = nested_count(chain, a, potential, n, budget)
        series.append(n, count.per_symbol)
    return series


def submultiplicativity_check(
    chain: Chain,
    a: Exponents,
    n: int,
    m: int,
    potential: Potential | None = None,
    budget: int = DEFAULT_BUDGET,
    slack: float = 1e-9,
) -> bool:
    """True iff S_{n+m} <= S_n * S_m * (1 + slack)."""
    if n < 1 or m < 1:
        raise ValidationError("need n, m >= 1")
    log_nm = nested_count(chain, a, potential, n + m, budget).log_value
    log_n = nested_count(chain, a, potential, n, budget).log_value
    log_m = nested_count(chain, a, potential, m, budget).log_value
    return log_nm <= log_n + log_m + math.log1p(slack)
