"""Property test: S_N against a brute-force count of bottom words.

Core claims:
    - on random small sponges and sofic graphs of rank 2 and 3, N <= 4,
      random exponents and optional window-1 potentials, nested_count equals
      the nested sum over explicitly enumerated words, with the default
      blocks and with BLOCK = 1
    - every entropy_estimate entry is nested_count(N).per_symbol by repr,
      or both raise the same typed error at the same N: sofic graphs with
      dead ends, sponges with windows 0-3, weighted multi-state bottoms, and
      a multi-state graph with fibers of 38 and 37 digits up to N = 12
      (past 2**52)
    - at every N of one pass, word counts from the prefix x suffix product
      are byte-equal to the whole DP's (the oracle: every level-2 DP vector
      at once, then the tail) on float-carried counts, N <= 6, dead-end
      vertices included, and equal the floats of brute-force Python-int
      counts on the big-integer path, switched to at N = 1, 2, 4 or 5, at
      one-suffix blocks too
    - multi-state potential weights (windows 1-3 on sofic graphs with
      dead ends, windows 2-3 on sponges) have the whole DP's zero pattern
      and lie within the forward error bound of nonnegative sums of it
    - a potential's S_N of 0 is called an underflow only when a bottom word
      of length N plus the window's overhang exists (brute force, dead
      ends included)
    - at max_fiber**N == 2**52 (the last float-carried N) and one N above,
      counts are the floats of the exact Python-int products, and the pass
      switches its dtype there once; past the switch, multi-state counts
      above 2**53 are exact integers rounded once
    - the one transfer-matrix builder gives `_bottom_matrices` (windows
      0-3, sponges and sofic graphs with dead ends) and
      `build_count_matrices` the arrays, dtypes and bits of a reference
      assembly loop of their own (the oracle)
    - on one-state bottoms (sponges of rank 2-4 and one-state sofic
      graphs on all or some of the digits, without a potential or with a
      window-1 one), every entry, Fekete bound and per_symbol is the sponge
      recursion's h_a_nats over the edge labels by repr (on a sponge,
      closed_form's), log S_N is N times it exactly, and
      no transfer matrix is built; enumerating the same one-state bottom
      gives log S_N within 1e-12 relative of N log S_1 up to N = 6
"""
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtp import estimator
from wtp.defaults import DEFAULT_BUDGET
from wtp.errors import WtpError
from wtp.estimator import entropy_estimate, nested_count
from wtp.sofic import build_count_matrices
from wtp.sponge import Potential, closed_form, kp_recursion
from wtp.symbolic import LabeledGraph, SoficChain, SpongeChain, validate_digit_system
from wtp.weights import Exponents, exponents_from_bases


@st.composite
def _small_chains(draw, every_length=True):
    """A sponge or a sofic graph of rank 2 or 3 over bases 2 and 3.

    With `every_length`, vertex 0 has a loop, so words of every length exist.
    """
    rank = draw(st.integers(2, 3))
    bases = tuple(sorted(draw(st.lists(st.integers(2, 3), min_size=rank, max_size=rank))))
    pool = list(itertools.product(*(range(m) for m in bases)))
    if draw(st.booleans()):
        digits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
        return SpongeChain(validate_digit_system(bases, digits))
    nverts = draw(st.integers(1, 3))
    vertex = st.integers(0, nverts - 1).map(str)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(pool)), min_size=not every_length, max_size=7))
    if every_length:
        edges.append(("0", "0", draw(st.sampled_from(pool))))
    sys = validate_digit_system(bases, [lab for _s, _t, lab in edges])
    verts = tuple(str(v) for v in range(nverts))
    return SoficChain(LabeledGraph(vertices=verts, edges=tuple(sorted(set(edges))), system=sys))


def _bottom_words(chain, n):
    if isinstance(chain, SpongeChain):
        return set(itertools.product(chain.system.sorted_digits, repeat=n))
    words = set()

    def walk(vertex, word):
        if len(word) == n:
            words.add(word)
            return
        for s, t, lab in chain.graph.edges:
            if s == vertex:
                walk(t, word + (tuple(lab),))

    for v in chain.graph.vertices:
        walk(v, ())
    return words


def _brute_level2_counts(chain, n):
    """Python-int count of bottom words over each level-2 word, keyed by row."""
    r = chain.rank
    row = {x: k for k, x in enumerate(chain.alphabet(2))}
    base = len(row)
    counts = {}
    for w in _bottom_words(chain, n):
        key = sum(row[d[: r - 1]] * base**t for t, d in enumerate(w))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _brute_nested_count(chain, a, n, potential=None):
    """S_N from the bottom words: count (or sum of exp S_N f for a window-1
    potential f) per level-2 word, then nested sums."""
    r = chain.rank
    values = {}
    for w in _bottom_words(chain, n):
        key = tuple(d[: r - 1] for d in w)
        weight = 1 if potential is None else math.exp(sum(potential.value((d,)) for d in w))
        values[key] = values.get(key, 0) + weight
    for i in range(r - 2):  # level i + 2 words grouped under level i + 3 words
        keep = r - 2 - i
        grouped = {}
        for word, x in values.items():
            key = tuple(d[:keep] for d in word)
            grouped[key] = grouped.get(key, 0.0) + x ** a.values[i]
        values = grouped
    return math.log(sum(x ** a.values[-1] for x in values.values()))


def _window1_potentials(chain):
    """No potential, or a window-1 potential with values in [-3, 3] on some digits."""
    value = st.floats(-3, 3)
    table = st.fixed_dictionaries({}, optional={(d,): value for d in chain.system.sorted_digits})
    return st.one_of(st.none(), table.map(lambda t: Potential(1, t)))


@settings(max_examples=120, deadline=None)
@given(chain=_small_chains(), n=st.integers(1, 4), data=st.data())
def test_nested_count_matches_brute_force_words(chain, n, data):
    a = Exponents(tuple(data.draw(st.lists(st.floats(0, 1), min_size=chain.rank - 1, max_size=chain.rank - 1))))
    potential = data.draw(_window1_potentials(chain))
    expected = _brute_nested_count(chain, a, n, potential)
    assert nested_count(chain, a, potential, n).log_value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    # BLOCK = 1: the fold's smallest chunks, one suffix per big-integer block
    with mock.patch.object(estimator, "BLOCK", 1):
        assert nested_count(chain, a, potential, n).log_value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _whole_dp(start, mats, tail, n):
    """Oracle: the DP vectors of every level-2 word at once, position by position
    (the first position least significant), then the tail."""
    block = start[None, :]
    for _ in range(n):
        block = np.concatenate([block.dot(m.T) for m in mats], axis=0)
    return block.dot(tail)


def _max_fiber(chain):
    return max(len(f) for f in chain.fibers(1).values())


def _series_values(bottom, max_fiber, first, last):
    """[(N, level-2 values)] of one pass."""
    return list(estimator._level2_values(bottom, max_fiber, first, last))


@settings(max_examples=150, deadline=None)
@given(chain=_small_chains(every_length=False), n=st.integers(1, 6))
def test_count_product_matches_whole_dp(chain, n):
    """Float-carried counts: at every N of one pass, the product's weights are
    the DP's, byte for byte."""
    bottom = estimator._bottom_matrices(chain, None, 1)
    start, mats, tail, _exact = bottom
    floats = start.astype(float), [m.astype(float) for m in mats], tail.astype(float)
    series = _series_values(bottom, _max_fiber(chain), 1, n)
    assert [m for m, _w in series] == list(range(1, n + 1))
    for m, weights in series:
        oracle = _whole_dp(*floats, m)
        assert weights.dtype == oracle.dtype == np.float64
        assert weights.tobytes() == oracle.tobytes()


# max_fiber bounds the counts; a larger one moves the switch to Python ints
# earlier: 2**53 from N = 1, 2**26 + 1 at N = 2, 8193 at N = 4, 2**11 at N = 5
_SWITCHES = [2**53, 2**26 + 1, 8193, 2**11]


@settings(max_examples=100, deadline=None)
@given(
    chain=_small_chains(every_length=False),
    n=st.integers(1, 6),
    step=st.sampled_from([1, 3, 2**16]),
    max_fiber=st.sampled_from(_SWITCHES),
)
def test_count_product_big_integers_match_brute_force(chain, n, step, max_fiber):
    """Python-int counts (the big-integer path, switched to from floats at the
    N that max_fiber sets), in blocks of `step` entries, at every N."""
    bottom = estimator._bottom_matrices(chain, None, 1)
    with mock.patch.object(estimator, "BLOCK", step):
        series = _series_values(bottom, max_fiber, 1, n)
    for m, weights in series:
        expected = np.zeros(len(chain.alphabet(2)) ** m)
        for key, count in _brute_level2_counts(chain, m).items():
            expected[key] = float(count)
        assert weights.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), states=st.integers(2, 3), letters=st.integers(1, 3), n=st.integers(3, 6))
def test_counts_past_the_switch_are_exact_integers(seed, states, letters, n):
    """Transfer matrices with entries up to 2**24: counts are float-carried
    while max_fiber**N <= 2**52 (about N <= 2) and pass 2**53 soon after,
    where only exact integer sums of the carried prefix and suffix vectors,
    rounded once, give the floats of the whole DP in Python ints."""
    rng = np.random.default_rng(seed)
    mats = [np.array(rng.integers(0, 2**24, (states, states)).tolist(), dtype=object) for _ in range(letters)]
    start = np.array([1] + [0] * (states - 1), dtype=object)
    tail = np.array([1] * states, dtype=object)
    max_fiber = max(int(m.sum(axis=0).max()) for m in mats)  # bounds every count: column sums multiply
    for m, weights in _series_values((start, mats, tail, True), max_fiber, 1, n):
        assert weights.tobytes() == _whole_dp(start, mats, tail, m).astype(float).tobytes()


@pytest.mark.parametrize("n", [4, 5])
def test_counts_at_the_float_threshold(n):
    """Fibers of 8192 and 8191 digits: 8192**4 == 2**52 is float-carried, N = 5
    takes Python ints; every weight is the float of the exact product."""
    fibers = (8192, 8191)
    digits = [(i, j) for i, size in enumerate(fibers) for j in range(size)]
    chain = SpongeChain(validate_digit_system((2, 8192), digits))
    assert max(fibers) ** 4 == 2**52
    bottom = estimator._bottom_matrices(chain, None, 1)
    with mock.patch.object(estimator, "_count_products", wraps=estimator._count_products) as product:
        series = _series_values(bottom, _max_fiber(chain), 1, n)
    dtypes = [call.args[0].dtype for call in product.call_args_list]
    assert dtypes == [np.float64] * min(n, 4) + [object] * (n - 4)
    for m, weights in series:
        expected = [float(math.prod(fibers[k] for k in word)) for word in itertools.product(range(2), repeat=m)]
        assert weights.tolist() == expected
    if n == 5:  # 8191**5 is not a float: the rounding is float(int)'s
        assert expected[-1] != 8191**5 and expected[-1] == float(8191**5)


@st.composite
def _sponges(draw):
    """A sponge of rank 2-4 over bases 2-4."""
    rank = draw(st.integers(2, 4))
    bases = tuple(sorted(draw(st.lists(st.integers(2, 4), min_size=rank, max_size=rank))))
    pool = list(itertools.product(*(range(m) for m in bases)))
    digits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True))
    return SpongeChain(validate_digit_system(bases, digits))


@st.composite
def _wide_sponges(draw):
    """A sponge of rank 2 or 3 with fibers of up to 600 digits: counts pass 2**52 by N = 6."""
    bases = (2, 3, 600)[-draw(st.integers(2, 3)) :]
    prefixes = draw(st.lists(st.sampled_from(list(itertools.product(*(range(m) for m in bases[:-1])))),
                             min_size=1, max_size=3, unique=True))
    digits = [p + (k,) for p in prefixes for k in range(draw(st.integers(1, 600)))]
    return SpongeChain(validate_digit_system(bases, digits))


def _exponents(draw, chain):
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1))
    return Exponents(tuple(draw(st.lists(value, min_size=chain.rank - 1, max_size=chain.rank - 1))))


@st.composite
def _one_state_chains(draw):
    """A sponge of rank 2-4, or the same labels on every edge between two
    vertices, a sofic graph whose follower automaton has one state; its
    labels are all of the sponge's digits or some of them."""
    chain = draw(_sponges())
    if draw(st.booleans()):
        return chain
    digits = chain.system.sorted_digits
    labels = draw(st.one_of(st.just(digits), st.lists(st.sampled_from(digits), min_size=1, unique=True)))
    edges = tuple((s, t, d) for s in "ab" for t in "ab" for d in labels)
    return SoficChain(LabeledGraph(vertices=("a", "b"), edges=edges, system=chain.system))


@st.composite
def _one_state_cases(draw):
    """(chain, exponents, potential) over one bottom DP state: no potential or a window-1 one."""
    chain = draw(_one_state_chains())
    potential = draw(_window1_potentials(chain))
    assert len(estimator._bottom_matrices(chain, potential, 1)[0]) == 1
    return chain, _exponents(draw, chain), potential


@settings(max_examples=150, deadline=None)
@given(case=_one_state_cases(), n_max=st.integers(1, 40))
def test_one_state_series_is_the_recursion(case, n_max):
    """S_N = S_1^N, and log S_1 is the sponge recursion's log Z_0 over the
    edge labels, not the whole digit set: every entry, Fekete bound and
    per_symbol is its h_a_nats by repr, log S_N is N times it, and on a
    sponge it is closed_form's.  Nothing numpy is built on the way."""
    chain, a, potential = case
    while len(chain.alphabet(2)) ** n_max > DEFAULT_BUDGET:
        n_max -= 1
    labels = validate_digit_system(chain.system.bases, sorted({d for _s, _t, d in chain.graph.edges}))
    h = kp_recursion(labels, a, potential).h_a_nats
    if isinstance(chain, SpongeChain):
        assert repr(closed_form(chain, a, potential).h_a_nats) == repr(h)
    with mock.patch.object(estimator, "_bottom_matrices", side_effect=AssertionError("built")):
        series = entropy_estimate(chain, a, potential, n_max=n_max)
        counts = [nested_count(chain, a, potential, n) for n in {1, 2, n_max}]
    assert [n for n, _v in series.entries] == list(range(1, n_max + 1))
    assert [repr(v) for _n, v in series.entries] == [repr(h)] * n_max
    assert list(map(repr, series.fekete_bounds)) == [repr(h)] * n_max
    for count in counts:
        assert count.log_value == count.n * h
        assert repr(count.per_symbol) == repr(h)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(_one_state_cases(), st.tuples(_wide_sponges(), st.just(None), st.none())),
       n=st.integers(1, 6), data=st.data())
def test_one_state_recursion_matches_enumeration(case, n, data):
    """`_log_counts` on the one-state bottom enumerates its level-2 words at
    every N, in numpy; nested_count takes N log S_1 from the recursion, in
    Python floats.  Up to N = 6 they agree within 1e-12 (relative, or
    absolute near 0), N = 1 included: numpy's SIMD `**` and Python's may
    differ in the last bit, so S_1 need not keep its bits.  S_N sums at most
    4096 nonnegative terms, each a product of at most 6 rounded weights
    raised at most three times, so its relative error, which is log S_N's
    absolute error, stays below about (4096 + 6 + 3 * 4) u < 5e-13,
    u = 2**-53, and N log S_1 carries at most N times S_1's far smaller
    error.  The fibers of up to 600 digits take the big-integer path of the
    enumeration by N = 6."""
    chain, a, potential = case
    a = a or _exponents(data.draw, chain)
    while len(chain.alphabet(2)) ** n > 4096:
        n -= 1
    bottom = estimator._bottom_matrices(chain, potential, 1)
    assert len(bottom[0]) == 1
    enumerated = estimator._log_counts(chain, a.values, bottom, 1, n, potential)
    for words in enumerated:
        recursion = nested_count(chain, a, potential, words.n)
        assert recursion.log_value == pytest.approx(words.log_value, rel=1e-12, abs=1e-12)


@st.composite
def _weighted_multi_state(draw):
    """(chain, potential) whose bottom DP may have several states: windows
    1-3 on small sofic graphs, dead ends allowed, or windows 2-3 on sponges.
    Values lie in [-3, 3], and some windows are missing (value 0)."""
    if draw(st.booleans()):
        chain, window = draw(_small_chains(every_length=False)), draw(st.integers(1, 3))
    else:
        chain, window = draw(_sponges()), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = itertools.product(chain.system.sorted_digits, repeat=window)
    table = {w: float(rng.uniform(-3, 3)) for w in words if rng.random() < 0.8}
    return chain, Potential(window, table)


@settings(max_examples=150, deadline=None)
@given(case=_weighted_multi_state(), n=st.integers(1, 6))
def test_multi_state_weights_within_forward_error_of_whole_dp(case, n):
    """The prefix x suffix product and the whole DP group the same sums of
    nonnegative products differently; neither underflows here.

    Forward error: a dot product of d nonnegative terms, summed in any order
    with or without fused multiply-adds, rounds each term at most d times,
    so it is the exact sum of the terms scaled by factors in
    [1 - g_d, 1 + g_d], g_k = k u / (1 - k u), u = 2**-53.  The DP takes n
    such steps and a dot with the tail; the product takes n // 2 prefix
    steps, n - n // 2 suffix steps and one dot between them.  With
    (1 + g_j)(1 + g_k) <= 1 + g_(j+k), both are w (1 + t) with |t| <= g_K,
    K = (n + 1) d, for the exact weight w of the same float matrices.  So
    they differ by at most 2 g_K w <= 2 g_K / (1 - g_K) times the oracle,
    and are 0 exactly where w is."""
    chain, potential = case
    n = max(n, potential.window)
    if len(chain.alphabet(2)) ** n > 5000:
        return
    bottom = estimator._bottom_matrices(chain, potential, potential.window)
    start, mats, tail, _exact = bottom
    if len(start) == 1:
        return
    for m, weights in _series_values(bottom, _max_fiber(chain), potential.window, n):
        oracle = _whole_dp(start, mats, tail, m)
        np.testing.assert_array_equal(weights == 0, oracle == 0)
        u = 2.0**-53
        k = (m + 1) * len(start)
        g = k * u / (1 - k * u)
        assert oracle[oracle > 0].min(initial=1.0) > 1e-300  # no underflow
        assert np.all(np.abs(weights - oracle) <= 2 * g / (1 - g) * oracle)


@st.composite
def _series_cases(draw):
    """(chain, exponents, potential, n_max): a sofic graph that may dead-end,
    a sponge with a window 0-3 potential, or a weighted multi-state bottom.
    Some potential values are extreme, so that weights overflow or underflow."""
    kind = draw(st.sampled_from(["sofic", "sponge", "multi-state"]))
    if kind == "multi-state":
        chain, potential = draw(_weighted_multi_state())
    else:
        chain = draw(_small_chains(every_length=False) if kind == "sofic" else _sponges())
        window = draw(st.integers(0, 3))
        value = st.one_of(st.floats(-3, 3), st.sampled_from([-800.0, 400.0, 700.0]))
        words = list(itertools.product(chain.system.sorted_digits, repeat=window))[:200]
        potential = Potential(window, {w: draw(value) for w in words if draw(st.booleans())}) if window else None
    first = potential.window if potential is not None else 1
    n_max = first
    while n_max < 8 and len(chain.alphabet(2)) ** (n_max + 1) <= 3000:
        n_max += 1
    return chain, _exponents(draw, chain), potential, n_max


# fibers of 37 and 36 digits at vertex a, and one more digit of each letter
# from a to b and back: several follower states, counts past 2**52 from N = 10
_WIDE_EDGES = ([("a", "a", (0, j)) for j in range(37)] + [("a", "a", (1, j)) for j in range(36)]
               + [("a", "b", (0, 37)), ("b", "a", (1, 36))])
_WIDE = SoficChain(LabeledGraph(vertices=("a", "b"), edges=tuple(_WIDE_EDGES),
                                system=validate_digit_system((2, 64), [e[2] for e in _WIDE_EDGES])))


@settings(max_examples=150, deadline=None)
@given(case=_series_cases())
@example(case=(_WIDE, exponents_from_bases(_WIDE.system.bases), None, 12))
def test_series_entries_are_nested_counts(case):
    """One pass over the series gives nested_count's bits at every N, or the
    typed error that nested_count raises at the first N it raises at."""
    chain, a, potential, n_max = case
    expected, error = [], None
    with np.errstate(under="ignore"):
        for n in range(potential.window if potential is not None else 1, n_max + 1):
            try:
                expected.append(repr(nested_count(chain, a, potential, n).per_symbol))
            except WtpError as exc:
                error = exc
                break
        if error is None:
            series = entropy_estimate(chain, a, potential, n_max=n_max)
            assert [repr(value) for _n, value in series.entries] == expected
        else:
            with pytest.raises(type(error)) as raised:
                entropy_estimate(chain, a, potential, n_max=n_max)
            assert str(raised.value) == str(error)


@settings(max_examples=100, deadline=None)
@given(chain=_small_chains(every_length=False), window=st.integers(1, 3), n=st.integers(1, 4))
def test_admissible_matches_brute_force_words(chain, window, n):
    """A word of length n weighs more than 0 in exact arithmetic exactly when
    some bottom word extends it by the window's overhang of window - 1 letters."""
    n = max(n, window)
    assert estimator._admissible(chain, window, n) == bool(_bottom_words(chain, n + window - 1))


def _reference_bottom_matrices(chain, potential, n):
    """Oracle: `_bottom_matrices` with an assembly loop of its own.  The same
    depth-first walk lists (letter, target, source, weight) entries, and
    each letter's matrix adds its weights in that order."""
    alphabet2, fibers = chain.alphabet(2), chain.fibers(1)
    window = potential.window if potential is not None else 1
    if chain.is_full_shift(1):
        step, start_aut = (lambda s, letter: 0), 0
    else:
        aut = chain.automaton(1)
        step, start_aut = (lambda s, letter: aut.transitions.get((s, letter))), aut.initial
    memory, exact = window - 1, potential is None
    states = [(start_aut, ())]
    index = {states[0]: 0}
    entries, windows, frontier = [], {}, [states[0]]
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
                w = 1
                if not exact and len(full) == window:
                    w = potential.weight(full)
                    windows.setdefault(index[src], []).append((index[dst], potential.value(full)))
                entries.append((k, index[dst], index[src], w))
    dtype = object if exact else float
    mats = [np.zeros((len(states), len(states)), dtype=dtype) for _ in alphabet2]
    with np.errstate(over="ignore"):
        for k, i, j, w in entries:
            mats[k][i, j] += w
    start = np.zeros(len(states), dtype=dtype)
    start[0] = 1
    if window == 1:
        tail = [1] * len(states)
    else:
        tail = [
            estimator._tail_weight(i, windows, memory) if len(hist) == memory else 1.0
            for i, (_s, hist) in enumerate(states)
        ]
    return start, mats, np.array(tail, dtype=dtype), exact


def _same_array(x, y):
    """Equal dtype and shape, and equal bits (floats) or equal Python ints (object)."""
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype == object:
        return [(type(a), a) for a in x.ravel()] == [(type(b), b) for b in y.ravel()]
    return x.tobytes() == y.tobytes()


@settings(max_examples=100, deadline=None)
@given(chain=_small_chains(every_length=False), window=st.integers(0, 3), data=st.data())
def test_transfer_matrices_match_reference_assembly(chain, window, data):
    value = st.one_of(st.floats(-3, 3), st.sampled_from([-800.0, 700.0]))
    words = list(itertools.product(chain.system.sorted_digits, repeat=window))[:200]
    potential = Potential(window, {w: data.draw(value) for w in words if data.draw(st.booleans())}) if window else None
    n = max(window, 1)
    try:
        ref_start, ref_mats, ref_tail, ref_exact = _reference_bottom_matrices(chain, potential, n)
    except WtpError as exc:  # a tail weight past float range
        with pytest.raises(type(exc)) as raised:
            estimator._bottom_matrices(chain, potential, n)
        assert str(raised.value) == str(exc)
        return
    start, mats, tail, exact = estimator._bottom_matrices(chain, potential, n)
    assert exact == ref_exact and len(mats) == len(ref_mats)
    assert all(_same_array(x, y) for x, y in zip([start, tail, *mats], [ref_start, ref_tail, *ref_mats]))
    if isinstance(chain, SoficChain):
        graph = chain.graph
        keep, order = graph.system.rank - 1, {v: i for i, v in enumerate(graph.vertices)}
        ref = {p: np.zeros((len(order), len(order)), dtype=np.int64) for p in graph.system.prefixes(keep)}
        for s, t, lab in graph.edges:
            ref[tuple(lab)[:keep]][order[t], order[s]] += 1
        counts = build_count_matrices(graph)
        assert list(counts) == list(ref)
        assert all(_same_array(counts[p], ref[p]) for p in ref)
