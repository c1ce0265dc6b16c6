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

Every level-2 word is enumerated.  The bottom DP runs over blocks of at
most about BLOCK entries (words x states): the first positions of a word as
one array, the later ones depth first.  Only the per-word weights are held
whole, so memory is about 8 bytes per level-2 word plus O((N - q) * BLOCK)
for the DP buffers, q being the positions in a block.  The nested groupings
then run over those weights in chunks, in word order, so results are
independent of block sizes and of any worker scheduling.  A budget caps the
number of enumerated words.  Counts stay integer-exact: float64 carries
them while the largest possible count fits a 52-bit mantissa, otherwise
exact big-integer arrays are used until the first exponentiation.  Float
weights that overflow are not dropped (NaN ** 0 still counts a word); an S_N
that is not finite is a ComputationError naming N.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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

DEFAULT_BUDGET = 10**7
DEFAULT_N_MAX = 12
BLOCK = 2**16  # DP entries (words x states) computed as one array
MIN_ROWS = 64  # fewest words in a block of the depth-first DP


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


def _level2_weights(start, mats, tail, exact: bool, n: int) -> np.ndarray:
    """Weight of every level-2 word of length n, by blocked depth-first DP.

    Row k_1 + k_2 * base + ... + k_n * base**(n-1) holds the word
    (k_1, ..., k_n): the first position is the least significant.  The first
    q positions form one block of base**q DP vectors, computed all at once;
    positions q+1..n are walked depth first with one buffer per depth, and
    each leaf writes its weights into its slice of the result.

    Every weight is the float that one single-threaded product over all rows
    gives.  That needs care, because BLAS picks kernels by operand shape and
    they round differently: a matrix-vector product rounds the last len % 4
    rows of a call apart from the rest, and a product of few rows can run on
    a small-matrix kernel.  So blocks get zero rows up to a multiple of four,
    the last len % 4 weights are redone as the remainder of a call, and a
    block has at least MIN_ROWS rows.
    """
    base, states = len(mats), len(start)
    q = 1
    while q < n and (base**q < MIN_ROWS or base ** (q + 1) * states <= BLOCK):
        q += 1
    block = start[None, :]
    for _ in range(q):
        block = np.concatenate([block.dot(m.T) for m in mats], axis=0)
    if q == n:
        weights = block.dot(tail)
        return np.array([float(x) for x in weights]) if exact else weights

    width = len(block)
    block = np.concatenate([block, np.zeros((-width % 4, states), dtype=block.dtype)])
    buffers = [np.empty_like(block) for _ in range(n - q)]
    scratch = np.empty(len(block))
    weights = np.empty(base**n)

    # outer positions q+1..n as odometer digits, the first varying slowest;
    # a depth's buffer is recomputed only when its digit or one before changed
    depth = n - q
    prev = None
    for digits in itertools.product(range(base), repeat=depth):
        first = 0 if prev is None else next(t for t in range(depth) if digits[t] != prev[t])
        for t in range(first, depth):
            vectors = block if t == 0 else buffers[t - 1]
            m = mats[digits[t]]
            if exact:
                buffers[t] = vectors.dot(m.T)
            else:
                np.dot(vectors, m.T, out=buffers[t])
        prev = digits
        offset = width * sum(k * base**t for t, k in enumerate(digits))
        if exact:
            weights[offset : offset + width] = [float(x) for x in buffers[-1][:width].dot(tail)]
        else:
            np.dot(buffers[-1], tail, out=scratch)
            weights[offset : offset + width] = scratch[:width]
    rem = len(weights) % 4
    if rem and not exact:
        # the last leaf's rows are still in the deepest buffer
        last = np.concatenate([np.zeros((4, states)), buffers[-1][width - rem : width]])
        weights[-rem:] = last.dot(tail)[4:]
    return weights


def _digit_codes(letter_proj: np.ndarray, multipliers) -> np.ndarray:
    """Projected codes sum(letter_proj[d] * multiplier) over all digit strings.

    Digits run from the most significant (first multiplier) to the least.
    """
    codes = np.zeros(1, dtype=np.int64)
    for mult in multipliers:
        codes = (codes[:, None] + letter_proj[None, :] * mult).reshape(-1)
    return codes


def _fold(
    values: np.ndarray, letter_proj: np.ndarray, multipliers, exponent: float, bins: int
) -> np.ndarray:
    """out[code(i)] += values[i] ** exponent over nonzero values, in index order.

    `multipliers` gives each index digit's weight in the projected code, most
    significant digit first.  Chunks of consecutive indices share their high
    digits; adding each chunk in index order keeps every bin's summation
    order that of one bincount over the whole array, without whole-array
    masked copies or code arrays.
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
        mask = chunk != 0
        np.add.at(out, low[mask] + code, chunk[mask] ** exponent)
    return out


def _log_total(values: np.ndarray, exponent: float, n: int) -> float:
    """log of the pairwise sum of values ** exponent over nonzero values."""
    top = values[values != 0]
    top **= exponent
    total = float(np.sum(top))
    if total == 0:
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
    # an overflow surfaces as a non-finite S_N, which _log_total raises as a
    # ComputationError; numpy's warnings would only print ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        current = _level2_weights(start, mats, tail, exact, n)

        # fold upward: a_1 groups level-2 under level-3 words, ..., a_{r-1} tops out.
        # Level-2 rows put the first position least significant; the codes of
        # level 3 and above put it most significant.
        for lvl in range(2, r):
            coarse = {x: k for k, x in enumerate(alphabets[lvl + 1])}
            j = chain.prefix_length(lvl)
            letter_proj = np.array([coarse[x[: j - 1]] for x in alphabets[lvl]], dtype=np.int64)
            size_hi = len(coarse)
            powers = [size_hi**e for e in range(n)]
            multipliers = powers if lvl == 2 else powers[::-1]
            current = _fold(current, letter_proj, multipliers, avals[lvl - 2], size_hi**n)
        log_value = _log_total(current, avals[-1], n)
    return NestedCount(n=n, log_value=log_value, potential=potential)


def entropy_estimate(
    chain: SoficChain,
    a: Exponents,
    potential: Potential | None = None,
    n_max: int = DEFAULT_N_MAX,
    budget: int = DEFAULT_BUDGET,
) -> EstimateSeries:
    """log S_N / N for N = window..n_max with running Fekete upper bounds.

    S_N needs a whole window inside the word, so the series starts at the
    potential's window (N = 1 without a potential or with window 1).
    """
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got {n_max}")
    window = potential.window if potential is not None else 1
    if n_max < window:
        raise PotentialWindowTooLarge(f"window {window} exceeds n_max {n_max}")
    series = EstimateSeries()
    for n in range(window, n_max + 1):
        count = nested_count(chain, a, potential, n, budget)
        series.append(n, count.per_symbol)
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
