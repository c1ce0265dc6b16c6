"""Exact S_N over a multi-state bottom: every level-2 word enumerated.

`wtp.estimator` hands a chain here when its bottom DP has more than one
state (a sofic bottom that is not a full shift, or a window-k potential
with k >= 2); one-state bottoms take the sponge recursion there and never
load this module or numpy.  One walk over the bottom automaton builds the
transfer matrices and, for window-k potentials, the max-plus tails of the
windows that overhang the word end.

Without a potential a word's weight is its count of bottom words, an exact
integer, and so is every product and partial sum on the way: any grouping
of the products gives the same bits.  So all counts come from one product
of the prefix DP vectors of the first N // 2 positions with the suffix
vectors of the others, about 2 |A_2|^N states flops in one matrix product.
Float weights of a potential take the same product; a BLAS product fixes no
order of its sums, so such a weight may differ from another grouping's in
its last bits (each lies within the forward error bound of nonnegative
sums).  One pass counts a whole series: the transfer matrices, the letter
projections of each level and the fold's low-digit code tables are built
once, and each N grows the prefix or the suffix vectors by one position,
with the dot products of a fresh build in the same order, so every S_N
keeps its bits.  Across N a series holds only the current prefix and suffix
vectors, in one dtype.  Only the per-word weights are held whole, so memory
is about 8 bytes per level-2 word, plus O(|A_2|^ceil(N/2) * states) for the
prefix and suffix vectors.  The nested groupings then run over those
weights in chunks, in word order, so results are independent of block
sizes and of any worker scheduling.

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

import numpy as np

from .errors import ComputationError, PotentialWindowTooLarge
from .sofic import _transfer_matrices
from .sponge import Potential
from .symbolic import SoficChain

BLOCK = 2**16  # entries formed as one array: fold chunks, big-integer count blocks


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
    """log S_N for N = first..last in one pass over the series.

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
        return [_log_nested(chain, avals, levels, values, potential) for _n in range(first, last + 1)]
