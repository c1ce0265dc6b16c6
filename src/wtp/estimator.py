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

Over several states every level-2 word is enumerated.  Without a potential a
word's weight is its count of bottom words, an exact integer, and so is
every product and partial sum on the way: any grouping of the products
gives the same bits.  So all counts come from one product of the prefix DP
vectors of the first N // 2 positions with the suffix vectors of the others,
about 2 |A_2|^N states flops in one matrix product.  Float weights of a
potential take the same product; a BLAS product fixes no order of its sums,
so such a weight may differ from another grouping's in its last bits (each
lies within the forward error bound of nonnegative sums).  One pass counts
a whole series, and nested_count is its one-N case: the transfer matrices,
the letter projections of each level and the fold's low-digit code tables
are built once, and each N grows the prefix or the suffix vectors by one
position, with the dot products of a fresh build in the same order, so
every S_N keeps its bits.  Across N a series holds only the current prefix
and suffix vectors, in one dtype.  Only the per-word weights are held
whole, so memory is about 8 bytes per level-2 word, plus
O(|A_2|^ceil(N/2) * states) for the prefix and suffix vectors.  The nested
groupings then run over those weights in chunks, in word order, so results
are independent of block sizes and of any worker scheduling.  A budget caps
the number of enumerated words; over one bottom state it is charged the
|A_2| letters of S_1 at every N.  A series checks it for every N before it
counts the first.
Counts stay integer-exact: float64 carries them while the largest possible
count fits a 52-bit mantissa, and Python ints, switched to once, after that,
about BLOCK at a time, until each is rounded to a float for the first
exponentiation; a count past float range is a ComputationError naming N.
Float weights that overflow are not dropped (NaN ** 0 still counts a word);
an S_N that is not finite is a ComputationError naming N.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import sponge
from .defaults import DEFAULT_BUDGET, DEFAULT_N_MAX
from .errors import (
    ComplexityBudgetExceeded,
    ComputationError,
    EmptyDigits,
    PotentialWindowTooLarge,
    ValidationError,
)
from .sofic import _transfer_matrices
from .sponge import Potential
from .symbolic import SoficChain
from .weights import Exponents, check_exponents

BLOCK = 2**16  # entries formed as one array: fold chunks, big-integer count blocks


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


def _bottom_matrices(chain: SoficChain, potential: Potential | None, n: int):
    """Per level-2 letter: transfer matrix over bottom DP states.

    States are trivial for full-shift bottoms with window-1 weights; sofic
    bottoms use follower-automaton states; window-k potentials extend the
    state with the last k-1 bottom letters.  Returns (start vector, matrices
    in level-2 alphabet order, tail weights, exact-integers flag).
    """
    letters = tuple(zip(chain.alphabet(1), chain.projection(1)))  # with each one's level-2 index
    window = potential.window if potential is not None else 1
    if window > n:
        raise PotentialWindowTooLarge(f"window {window} exceeds word length {n}")

    if chain.is_full_shift(1):
        step = lambda s, letter: 0
    else:
        aut = chain.automaton(1)
        step = lambda s, letter: aut.transitions.get((s, letter))

    # state = (automaton state, last window-1 bottom letters), found depth first
    # from state 0; with window 1 this is the follower automaton's own state order
    memory = window - 1
    exact = potential is None
    states = [(0, ())]
    index = {states[0]: 0}
    transitions = []  # (source, target, level-2 letter index, weight)
    windows = {}  # full-history source -> [(target, window value)]
    frontier = [states[0]]
    while frontier:
        src = frontier.pop()
        s, hist = src
        for letter, k in letters:
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
            transitions.append((index[src], index[dst], k, w))
    dtype = object if exact else float
    mats = list(_transfer_matrices(transitions, len(states), range(len(chain.alphabet(2))), dtype).values())
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


def _grow(vectors: np.ndarray, mats, axis: int) -> np.ndarray:
    """DP row vectors of one more position: vectors . m for each letter's m,
    stacked along `axis`.  Prefix vectors take the transposed matrices and
    axis 0, so the new position is the most significant; suffix vectors take
    axis 1, so it is the least significant."""
    return np.stack([vectors.dot(m) for m in mats], axis=axis).reshape(-1, vectors.shape[1])


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


def _fold(values: np.ndarray, level: list, n: int, exponent: float, level2: bool) -> np.ndarray:
    """out[code(i)] += values[i] ** exponent over nonzero values, in index order.

    `level` is [letter projection, size of the level above, low codes, p]:
    chunks of |A|**p consecutive indices share their n - p high digits,
    whose code picks a view of `out`, every size_hi**(n - p)-th bin at
    level 2 (whose codes put the index's least significant digit first) and
    a run of size_hi**p bins above.  The low codes place the p low digits
    within that view, so they do not depend on n: they grow here by one
    digit per N while p < n and chunks stay within BLOCK.  Adding each chunk in index order keeps every
    bin's summation order that of one bincount over the whole array.
    """
    proj, size_hi, low, p = level
    while p < n and (p == 0 or len(proj) ** (p + 1) <= BLOCK):
        # the new digit is the most significant of the chunk index
        low = (proj[:, None] + size_hi * low if level2 else proj[:, None] * size_hi**p + low).reshape(-1)
        p += 1
    level[2:] = low, p
    powers = [size_hi**e for e in range(n - p)]
    high = _digit_codes(proj, powers if level2 else powers[::-1])
    out = np.zeros(size_hi**n)
    bins = out.reshape(size_hi**p, -1).T if level2 else out.reshape(-1, size_hi**p)
    width = len(low)
    for h, code in enumerate(high):
        chunk, codes = values[h * width : (h + 1) * width], low
        # a bool array's nonzero is far cheaper than a float array's
        nonzero = np.flatnonzero(chunk != 0)
        if len(nonzero) < width:
            chunk, codes = chunk.take(nonzero), low.take(nonzero)
        np.add.at(bins[code], codes, chunk**exponent)
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


def _level2_values(bottom, max_fiber: int, first: int, last: int):
    """Yield (N, level-2 values) for N = first..last.

    `bottom` is `_bottom_matrices`' output.  Word counts and potential
    weights are the product of the prefix DP vectors of the first N // 2
    positions with the suffix vectors of the others (`_count_products`).
    Each N grows the prefix or the suffix vectors by one position, with the
    dot products of a fresh build in the same order, so every value keeps
    its bits.  Counts ride in floats while max_fiber**N, the largest
    possible count, fits a 52-bit mantissa, and switch once to Python ints,
    which hold the same integers.
    """
    start, mats, tail, exact = bottom
    carried = exact and max_fiber**first <= 2**52  # exact counts carried in floats
    if carried:
        start, tail, mats = start.astype(float), tail.astype(float), [m.astype(float) for m in mats]
    prefix, suffix, q, h = start[None, :], tail[None, :], 0, 0
    for n in range(first, last + 1):
        if carried and max_fiber**n > 2**52:
            carried, mats = False, bottom[1]
            prefix, suffix = (v.astype(np.int64).astype(object) for v in (prefix, suffix))
        while q < n // 2:
            prefix, q = _grow(prefix, [m.T for m in mats], 0), q + 1
        while h < n - n // 2:
            suffix, h = _grow(suffix, mats, 1), h + 1
        yield n, _count_products(suffix, prefix, n).reshape(-1)


def _log_nested(chain: SoficChain, avals, levels, values, potential: Potential | None) -> float:
    """log S_N for the next N of `values` (`_level2_values`), folded upward
    through the exponents.  `potential` only names the cause of an S_N of 0."""
    n, current = next(values)
    # fold upward: a_1 groups level-2 under level-3 words, ..., a_{r-1} tops out
    for i, level in enumerate(levels):
        current = _fold(current, level, n, avals[i], i == 0)
    # pairwise sum of the top powers over nonzero values
    top = current[current != 0]
    top **= avals[-1]
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


def _log_counts(chain: SoficChain, avals, bottom, first: int, last: int, potential: Potential | None) -> list:
    """NestedCount for N = first..last in one pass over the series.

    The letter projections of each level are built once; the level-2 values
    of each N are folded and dropped before the next N's are formed.
    """
    levels = [[np.array(chain.projection(lvl), dtype=np.int64), len(chain.alphabet(lvl + 1)),
               np.zeros(1, dtype=np.int64), 0] for lvl in range(2, chain.rank)]  # `_fold`'s, level 2..r-1
    max_fiber = max(Counter(chain.projection(1)).values(), default=1)
    values = _level2_values(bottom, max_fiber, first, last)
    # an overflow surfaces as a non-finite S_N, raised as a ComputationError;
    # numpy's warnings would only print ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        logs = [_log_nested(chain, avals, levels, values, potential) for _n in range(first, last + 1)]
    return [NestedCount(n, log_value, log_value / n) for n, log_value in enumerate(logs, first)]


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
    `_log_counts` over the bottom DP."""
    avals = check_exponents(a, chain.rank)
    if not chain.graph.edges:
        raise EmptyDigits("the chain's graph has no edges, so it has no words")
    one_state = (potential is None or potential.window == 1) and chain.is_full_shift(1)
    _check_budget(chain, one_state, first, last, budget)
    if not one_state:
        return _log_counts(chain, avals, _bottom_matrices(chain, potential, first), first, last, potential)
    log_s1 = sponge.kp_recursion(chain._labels, a, potential).h_a_nats
    return [NestedCount(n, n * log_s1, log_s1) for n in range(first, last + 1)]


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
