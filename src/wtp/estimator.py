"""Exact finite-N evaluation of the nested weighted count S_N.

On symbolic chains the cylinder partition is an optimal separated cover, so
the infimum in the nested count is attained and S_N is computed exactly:

    S_N = sum over level-r words u of ( ... ( sum over level-2 words v
          above u of  G(v)^{a_1} )^{a_2} ... )^{a_{r-1}},

where G(v) is the number of bottom words over v (full shifts: a per-letter
product of fiber sizes; sofic bottoms: follower-automaton dynamic
programming), or their exp(sup S_N f) weights when a potential is present.
One walk over the bottom automaton builds the transfer matrices and, for
window-k potentials, the max-plus tails of the windows that overhang the
word end.  The series starts at N = k, the first length holding a window.

Every level-2 word is enumerated, by a route chosen from the input.  Without
a potential a word's weight is its count of bottom words, an exact integer,
and so is every product and partial sum on the way: any grouping of the
products gives the same bits.  So all counts come from one product of the
prefix DP vectors of the first N // 2 positions with the suffix vectors of
the others, about 2 |A_2|^N states flops in one matrix product.  When the
bottom DP has one state (every sponge, and a sofic chain whose follower
automaton has one state) a count is a scalar prefix count times a scalar
suffix count, and both sides repeat a handful of values: each distinct
product is formed, rounded and raised to a_1 once, and the powers are laid
out by word.  That keeps the bits of the general route because each distinct
product is the same exact integer, rounded once by the same blocked product,
and numpy's `**` gives one value for one input wherever it sits in an array.
Float weights of a potential take the same prefix x suffix product when the
bottom DP has several states; a BLAS product fixes no order of its sums, so
such a weight may differ from another grouping's in its last bits (each lies
within the forward error bound of nonnegative sums).  Over one state a
weight is the left-to-right product of per-letter scalars, each step rounded
once, built in place in the output array.  Only the per-word weights are
held whole, so memory is about 8 bytes per level-2 word, plus
O(|A_2|^ceil(N/2) * states) for the prefix and suffix vectors.  The nested
groupings then run over those weights in chunks, in word order, so results
are independent of block sizes and of any worker scheduling.  A budget caps
the number of enumerated words; a series checks it for every N before it
counts the first.  Counts stay integer-exact: float64 carries them while the
largest possible count fits a 52-bit mantissa, otherwise Python ints are,
about BLOCK at a time, until each is rounded to a float for the first
exponentiation; a count past float range is a ComputationError naming N.
Float weights that overflow are not dropped (NaN ** 0 still counts a word);
an S_N that is not finite is a ComputationError naming N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import DEFAULT_BUDGET, DEFAULT_N_MAX
from .errors import (
    ComplexityBudgetExceeded,
    ComputationError,
    ExponentLengthMismatch,
    PotentialWindowTooLarge,
    ValidationError,
)
from .sponge import Potential
from .symbolic import SoficChain
from .weights import Exponents

BLOCK = 2**16  # entries formed as one array: fold chunks, big-integer count blocks


@dataclass(frozen=True)
class NestedCount:
    """S_N held in the log domain (raw counts overflow floats quickly)."""

    n: int
    log_value: float

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

    def append(self, n: int, value: float) -> None:
        self.entries.append((n, value))
        prev = self.fekete_bounds[-1] if self.fekete_bounds else math.inf
        self.fekete_bounds.append(min(prev, value))


def _check_exponents(chain: SoficChain, a: Exponents) -> tuple[float, ...]:
    if len(a) != chain.rank - 1:
        raise ExponentLengthMismatch(f"need {chain.rank - 1} exponents, got {len(a)}")
    return a.values


def _bottom_matrices(chain: SoficChain, potential: Potential | None, n: int):
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

    if chain.is_full_shift(1):
        step = lambda s, letter: 0
        start_aut = 0
    else:
        aut = chain.automaton(1)
        step = lambda s, letter: aut.transitions.get((s, letter))
        start_aut = aut.initial

    # state = (automaton state, last window-1 bottom letters), found depth
    # first; with window 1 this is the follower automaton's own state order
    memory = window - 1
    exact = potential is None
    states = [(start_aut, ())]
    index = {states[0]: 0}
    entries = []  # (level-2 letter index, target, source, weight)
    windows = {}  # full-history source -> [(target, window value)]
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
                w = 1
                if not exact and len(full) == window:
                    w = potential.weight(full)
                    windows.setdefault(index[src], []).append((index[dst], potential.value(full)))
                entries.append((k, index[dst], index[src], w))
    dtype = object if exact else float
    mats = [np.zeros((len(states), len(states)), dtype=dtype) for _ in alphabet2]
    with np.errstate(over="ignore"):  # an infinite S_N is reported as a ComputationError
        for k, i, j, w in entries:
            mats[k][i, j] += w
    start = np.zeros(len(states), dtype=dtype)
    start[0] = 1
    if window == 1:
        tail = [1] * len(states)
    else:
        tail = [
            _tail_weight(i, windows, memory) if len(hist) == memory else 1.0
            for i, (_s, hist) in enumerate(states)
        ]
    return start, mats, np.array(tail, dtype=dtype), exact


def _tail_weight(state: int, windows, steps: int) -> float:
    """exp(max over admissible extensions of the windows overhanging the word end).

    A forward max-plus pass over the transitions in `windows`, `steps` long,
    from `state`.  Each path's values are summed left to right, and as
    rounding is monotone, keeping only the best sum per state gives the bits
    of the best path.  A state with no extension of `steps` letters weighs 0.
    """
    best = {state: 0.0}
    for _ in range(steps):
        nxt = {}
        for src, acc in best.items():
            for dst, value in windows.get(src, ()):
                total = acc + value
                if dst not in nxt or total > nxt[dst]:
                    nxt[dst] = total
        best = nxt
    if not best:
        return 0.0
    top = max(best.values())
    try:
        return math.exp(top)
    except OverflowError:
        raise ComputationError(f"exp of potential value {top} past the word end overflows a float") from None


def _prefix_vectors(start, mats, q: int) -> np.ndarray:
    """DP row vectors of all base**q words of length q, first position least significant."""
    block = start[None, :]
    for _ in range(q):
        block = np.concatenate([block.dot(m.T) for m in mats], axis=0)
    return block


def _count_factors(start, mats, tail, n: int):
    """Prefix row vectors of the first n // 2 positions and suffix vectors of the others.

    Suffix j is tail . M_{k_n} ... M_{k_(h+1)}, position h+1 least
    significant, so word (prefix i, suffix j) sits in row i + j * base**h:
    the first position is the least significant.
    """
    prefix = _prefix_vectors(start, mats, n // 2)
    suffix = tail[None, :]
    for _ in range(n - n // 2):
        suffix = np.stack([suffix.dot(m) for m in mats], axis=1).reshape(-1, len(tail))
    return prefix, suffix


def _count_weights(start, mats, tail, n: int) -> np.ndarray:
    """Weight of every level-2 word of length n, as one prefix x suffix product."""
    prefix, suffix = _count_factors(start, mats, tail, n)
    return _count_products(suffix, prefix, n).reshape(-1)


def _count_products(suffix, prefix, n: int) -> np.ndarray:
    """suffix . prefix.T rounded to float64, one row per suffix.

    Every product and partial sum of a count is an exact integer, so any
    grouping, BLAS kernel or thread count gives the same bits; float
    weights of a potential take the BLAS product as it rounds.  Python-int
    counts are multiplied in blocks of suffixes, about BLOCK counts each,
    and each block is rounded to floats at once, so only one block of
    products is alive at a time.
    """
    if suffix.dtype != object:
        return suffix.dot(prefix.T)
    width = len(prefix)
    step = max(1, BLOCK // width)
    out = np.empty((len(suffix), width))
    for j in range(0, len(suffix), step):
        out[j : j + step] = _floats(suffix[j : j + step].dot(prefix.T), n)
    return out


def _one_state_weights(mats, n: int) -> np.ndarray:
    """Float weight of every level-2 word of length n over a one-state bottom.

    The weight of (k_1, ..., k_n) is m_{k_1} * ... * m_{k_n}, multiplied
    left to right, each product rounded once (the tail is 1: one state
    holds no window history).  A letter of weight 0 zeroes the word even
    after an overflow to inf, as a BLAS matrix-vector product skips a zero
    entry, rather than making inf * 0 = NaN.  Words of length t - 1 fill the
    front of the output; word (prefix, k) of length t goes to block k, the
    front block last, so the array is extended in place.
    """
    scalars = [m[0, 0] for m in mats]
    base = width = len(scalars)
    out = np.empty(base**n)
    out[:base] = scalars
    for _ in range(n - 1):
        for k in reversed(range(base)):
            block = out[k * width : (k + 1) * width]
            if scalars[k]:
                np.multiply(out[:width], scalars[k], out=block)
            else:
                block[:] = 0.0
        width *= base
    return out


def _one_state_powers(start, mats, tail, n: int, exponent: float) -> np.ndarray:
    """Count ** exponent of every level-2 word of length n over a one-state bottom.

    A count is then the product of a scalar prefix and a scalar suffix
    count, and both sides hold few distinct values.  Each distinct product
    is rounded to a float once and raised once, with numpy's `**` as in
    `_fold`, and the powers are laid out in the row order of
    `_count_weights`.  numpy gives one value for one input wherever it sits
    in an array, so every power has the bits that the general route
    computes for it.  Zero counts stay 0 and, as a_1 >= 0, every other
    power is at least 1, so the sums above skip the same words.
    """
    prefix, suffix = _count_factors(start, mats, tail, n)
    p_vals, pinv = np.unique(prefix[:, 0], return_inverse=True)
    s_vals, sinv = np.unique(suffix[:, 0], return_inverse=True)
    table = _count_products(s_vals[:, None], p_vals[:, None], n)
    nonzero = table != 0
    table[nonzero] **= exponent
    # row gathers: 2-D fancy indexing is slower
    return table[:, pinv][sinv].reshape(-1)


def _floats(counts: np.ndarray, n: int) -> np.ndarray:
    """Counts rounded to float64; a count past float range is a ComputationError."""
    try:
        return counts.astype(float, copy=False)
    except OverflowError:
        raise ComputationError(f"a word count at N = {n} overflows a float") from None


def _digit_codes(letter_proj: np.ndarray, multipliers) -> np.ndarray:
    """Projected codes sum(letter_proj[d] * multiplier) over all digit strings.

    Digits run from the most significant (first multiplier) to the least.
    """
    codes = np.zeros(1, dtype=np.int64)
    for mult in multipliers:
        codes = (codes[:, None] + letter_proj[None, :] * mult).reshape(-1)
    return codes


def _fold(
    values: np.ndarray, letter_proj: np.ndarray, multipliers, exponent: float | None, bins: int
) -> np.ndarray:
    """out[code(i)] += values[i] ** exponent over nonzero values, in index order.

    With exponent None the values are already powers, added as they are.
    `multipliers` gives each index digit's weight in the projected code,
    most significant digit first.  Chunks of consecutive indices share their
    high digits; adding each chunk in index order keeps every bin's
    summation order that of one bincount over the whole array, without
    whole-array masked copies or code arrays; a chunk without zeros is
    added without a masked copy.
    """
    n = len(multipliers)
    p = n
    while p > 1 and len(letter_proj) ** p > BLOCK:
        p -= 1
    low = _digit_codes(letter_proj, multipliers[n - p :])
    high = _digit_codes(letter_proj, multipliers[: n - p])
    out = np.zeros(bins)
    width = len(low)
    for h, code in enumerate(high):
        chunk = values[h * width : (h + 1) * width]
        codes = low
        mask = chunk != 0
        if not mask.all():
            chunk, codes = chunk[mask], low[mask]
        if exponent is not None:
            chunk = chunk ** exponent
        np.add.at(out, codes + code, chunk)
    return out


def _admissible(chain: SoficChain, window: int, n: int) -> bool:
    """Whether a level-2 word of length n has a positive weight in exact arithmetic.

    Potential values are finite, so this asks only for an admissible word
    whose windows past the end extend: the transfer matrices of a potential
    that is 0 everywhere, their products reduced to 0/1 at each position.
    """
    start, mats, tail, _exact = _bottom_matrices(chain, Potential(window, {}), n)
    step, reach = sum(mats), start
    for _ in range(n):
        reach = (step.dot(reach) > 0) * 1.0
    return bool(reach.dot(tail) > 0)


def _count_operands(chain: SoficChain, bottom, n: int):
    """start, mats, tail of a count bottom: floats while the largest possible
    count fits a 52-bit mantissa, Python ints otherwise."""
    start, mats, tail, _exact = bottom
    max_fiber = max((len(f) for f in chain.fibers(1).values()), default=1)
    if max_fiber**n <= 2**52:
        start, tail = start.astype(float), tail.astype(float)
        mats = [m.astype(float) for m in mats]
    return start, mats, tail


def _word_weights(chain: SoficChain, bottom, n: int) -> np.ndarray:
    """Float weight of every level-2 word of length n from `_bottom_matrices`' output.

    Potential weights over a one-state bottom are left-to-right products of
    scalars; word counts and multi-state potential weights take the prefix x
    suffix product.
    """
    start, mats, tail, exact = bottom
    if exact:
        start, mats, tail = _count_operands(chain, bottom, n)
    elif len(start) == 1:
        return _one_state_weights(mats, n)
    return _count_weights(start, mats, tail, n)


def _log_nested(chain: SoficChain, avals, bottom, n: int, potential: Potential | None = None) -> float:
    """log S_N: the level-2 weights, folded upward through the exponents.

    Counts over a one-state bottom are raised to a_1 as distinct values
    (`_one_state_powers`); other weights come from `_word_weights`.
    `potential` is the one `bottom` was built with; it only names the cause
    of an S_N of 0.
    """
    r = chain.rank
    exponents = list(avals)
    start, _mats, _tail, exact = bottom
    # an overflow surfaces as a non-finite S_N, raised below as a
    # ComputationError; numpy's warnings would only print ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        if exact and len(start) == 1:
            current = _one_state_powers(*_count_operands(chain, bottom, n), n, exponents[0])
            exponents[0] = None  # a_1 is spent: the first grouping adds the powers as they are
        else:
            current = _word_weights(chain, bottom, n)

        # fold upward: a_1 groups level-2 under level-3 words, ..., a_{r-1} tops out.
        # Level-2 rows put the first position least significant; the codes of
        # level 3 and above put it most significant.
        for lvl in range(2, r):
            coarse = {x: k for k, x in enumerate(chain.alphabet(lvl + 1))}
            j = chain.prefix_length(lvl)
            letter_proj = np.array([coarse[x[: j - 1]] for x in chain.alphabet(lvl)], dtype=np.int64)
            size_hi = len(coarse)
            powers = [size_hi**e for e in range(n)]
            multipliers = powers if lvl == 2 else powers[::-1]
            current = _fold(current, letter_proj, multipliers, exponents[lvl - 2], size_hi**n)
        # pairwise sum of the top powers over nonzero values
        top = current[current != 0]
        if exponents[-1] is not None:
            top **= exponents[-1]
        total = float(np.sum(top))
    if total == 0:
        if potential is not None and _admissible(chain, potential.window, n):
            raise ComputationError(
                f"S_N = 0 at N = {n}: admissible level-2 words of length {n} exist, "
                "but their weights underflow a float"
            )
        raise ComputationError(
            f"S_N = 0 at N = {n}: no admissible level-2 word of length {n} has a positive weight"
        )
    if not math.isfinite(total):
        raise ComputationError(f"S_N at N = {n} is {total}: the weights overflow a float")
    return math.log(total)


def nested_count(
    chain: SoficChain,
    a: Exponents,
    potential: Potential | None = None,
    n: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> NestedCount:
    """S_N by full enumeration of level-2 words, nested exponent sums above."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    avals = _check_exponents(chain, a)
    base = len(chain.alphabet(2))
    if base**n > budget:
        raise ComplexityBudgetExceeded(base**n, budget)
    bottom = _bottom_matrices(chain, potential, n)
    return NestedCount(n=n, log_value=_log_nested(chain, avals, bottom, n, potential))


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
    entry is the nested_count(N) value; the budget is checked for every N,
    and the transfer matrices built once, before the first N is counted.
    """
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got {n_max}")
    window = potential.window if potential is not None else 1
    if n_max < window:
        raise PotentialWindowTooLarge(f"window {window} exceeds n_max {n_max}")
    avals = _check_exponents(chain, a)
    base = len(chain.alphabet(2))
    over = next((n for n in range(window, n_max + 1) if base**n > budget), None)
    if over is not None:
        raise ComplexityBudgetExceeded(base**over, budget)
    bottom = _bottom_matrices(chain, potential, window)
    series = EstimateSeries()
    for n in range(window, n_max + 1):
        series.append(n, _log_nested(chain, avals, bottom, n, potential) / n)
    return series


def submultiplicativity_check(
    chain: SoficChain,
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
