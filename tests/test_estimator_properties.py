"""Property test: S_N against a brute-force count of bottom words.

Core claims:
    - on random small sponges and sofic graphs of rank 2 and 3, N <= 4 and
      random exponents, nested_count equals the nested sum over explicitly
      enumerated words, with the default blocks and with one-word blocks
    - word counts from the prefix x suffix product are byte-equal to the
      blocked DP's (the oracle) on float-carried counts, N <= 6, dead-end
      vertices included, and equal the floats of brute-force Python-int
      counts on the big-integer path, at one-suffix blocks too
    - at max_fiber**N == 2**52 (the last float-carried N) and one N above,
      counts are the floats of the exact Python-int products
    - on one-state bottoms (sponges, rank 2-4, N <= 6, float-carried and
      big-integer counts), the distinct-value route's level-2 powers and
      log S_N are byte-equal to the general route's, which the same bottom
      takes with an unreachable second state added
    - the distinct-value powers equal numpy's powers of the floats of the
      brute-force Python-int counts, across factors of exactly 2**53 and
      just above, zero counts and exponent 0
"""
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp import estimator
from wtp.estimator import nested_count
from wtp.symbolic import LabeledGraph, SoficChain, SpongeChain, validate_digit_system
from wtp.weights import Exponents


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


def _brute_nested_count(chain, a, n):
    """S_N from the bottom words: count per level-2 word, then nested sums."""
    r = chain.rank
    values = {}
    for w in _bottom_words(chain, n):
        key = tuple(d[: r - 1] for d in w)
        values[key] = values.get(key, 0) + 1
    for i in range(r - 2):  # level i + 2 words grouped under level i + 3 words
        keep = r - 2 - i
        grouped = {}
        for word, x in values.items():
            key = tuple(d[:keep] for d in word)
            grouped[key] = grouped.get(key, 0.0) + x ** a.values[i]
        values = grouped
    return math.log(sum(x ** a.values[-1] for x in values.values()))


@settings(max_examples=80, deadline=None)
@given(chain=_small_chains(), n=st.integers(1, 4), data=st.data())
def test_nested_count_matches_brute_force_words(chain, n, data):
    a = Exponents(tuple(data.draw(st.lists(st.floats(0, 1), min_size=chain.rank - 1, max_size=chain.rank - 1))))
    expected = _brute_nested_count(chain, a, n)
    assert nested_count(chain, a, n=n).log_value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    # one-word blocks: every position after the first is walked depth first
    with mock.patch.object(estimator, "BLOCK", 1), mock.patch.object(estimator, "MIN_ROWS", 1):
        assert nested_count(chain, a, n=n).log_value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _float_bottom(chain, n):
    start, mats, tail, exact = estimator._bottom_matrices(chain, None, n)
    assert exact
    return start.astype(float), [m.astype(float) for m in mats], tail.astype(float)


@settings(max_examples=150, deadline=None)
@given(chain=_small_chains(every_length=False), n=st.integers(1, 6))
def test_count_product_matches_blocked_dp(chain, n):
    """Float-carried counts: the product's weights are the DP's, byte for byte."""
    bottom = estimator._bottom_matrices(chain, None, n)
    weights = estimator._word_weights(chain, bottom, n)
    oracle = estimator._level2_weights(*_float_bottom(chain, n), n)
    assert weights.dtype == oracle.dtype == np.float64
    assert weights.tobytes() == oracle.tobytes()


@settings(max_examples=100, deadline=None)
@given(chain=_small_chains(every_length=False), n=st.integers(1, 6), step=st.sampled_from([1, 3, 2**16]))
def test_count_product_big_integers_match_brute_force(chain, n, step):
    """Python-int counts (the big-integer path), in blocks of `step` entries."""
    start, mats, tail, exact = estimator._bottom_matrices(chain, None, n)
    assert exact and start.dtype == object
    with mock.patch.object(estimator, "BLOCK", step):
        weights = estimator._count_weights(start, mats, tail, n)
    expected = np.zeros(len(chain.alphabet(2)) ** n)
    for key, count in _brute_level2_counts(chain, n).items():
        expected[key] = float(count)
    assert weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [4, 5])
def test_counts_at_the_float_threshold(n):
    """Fibers of 8192 and 8191 digits: 8192**4 == 2**52 is float-carried, N = 5
    takes Python ints; every weight is the float of the exact product."""
    fibers = (8192, 8191)
    digits = [(i, j) for i, size in enumerate(fibers) for j in range(size)]
    chain = SpongeChain(validate_digit_system((2, 8192), digits))
    assert max(fibers) ** 4 == 2**52
    bottom = estimator._bottom_matrices(chain, None, n)
    with mock.patch.object(estimator, "_count_weights", wraps=estimator._count_weights) as product:
        weights = estimator._word_weights(chain, bottom, n)
    assert product.call_args.args[0].dtype == (np.float64 if n == 4 else object)
    expected = [float(math.prod(fibers[k] for k in word)) for word in itertools.product(range(2), repeat=n)]
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


def _general_route(bottom):
    """The same bottom with a second, unreachable state, so its counts take the general route."""
    start, mats, tail, exact = bottom
    grow = lambda v: np.concatenate([v, np.zeros(1, dtype=v.dtype)])
    return grow(start), [np.pad(m, (0, 1)) for m in mats], grow(tail), exact


def _powers(weights, exponent):
    """weights ** exponent over nonzero weights, zeros kept: numpy's `**`, as in `_fold`."""
    out = weights.copy()
    nonzero = out != 0
    out[nonzero] **= exponent
    return out


def _assert_routes_agree(chain, a, n):
    bottom = estimator._bottom_matrices(chain, None, n)
    general = _general_route(bottom)
    assert len(bottom[0]) == 1 and len(general[0]) == 2
    powers = estimator._one_state_powers(*estimator._count_operands(chain, bottom, n), n, a.values[0])
    oracle = _powers(estimator._word_weights(chain, general, n), a.values[0])
    assert powers.tobytes() == oracle.tobytes()
    one_state = estimator._log_nested(chain, a.values, bottom, n)
    assert repr(one_state) == repr(estimator._log_nested(chain, a.values, general, n))
    assert repr(one_state) == repr(nested_count(chain, a, n=n).log_value)


@settings(max_examples=150, deadline=None)
@given(chain=_sponges(), n=st.integers(1, 6), data=st.data())
def test_one_state_route_matches_general_route(chain, n, data):
    while len(chain.alphabet(2)) ** n > 2 * 10**5:
        n -= 1
    _assert_routes_agree(chain, _exponents(data.draw, chain), n)


@settings(max_examples=40, deadline=None)
@given(chain=_wide_sponges(), n=st.integers(4, 6), data=st.data())
def test_one_state_route_matches_general_route_on_big_integers(chain, n, data):
    _assert_routes_agree(chain, _exponents(data.draw, chain), n)


_FACTORS = [0, 1, 3, 2**26 + 1, 2**53 - 1, 2**53, 2**53 + 1, 10**20 + 7, 2**60 + 12345]


@settings(max_examples=200, deadline=None)
@given(
    fibers=st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3),
    n=st.integers(1, 4),
    exponent=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
)
def test_one_state_powers_match_brute_force_big_integers(fibers, n, exponent):
    """Python-int 1x1 transfer matrices: each distinct product is formed as a
    Python int and rounded once."""
    one = np.ones(1, dtype=object)
    mats = [np.full((1, 1), f, dtype=object) for f in fibers]
    powers = estimator._one_state_powers(one, mats, one, n, exponent)
    # row k_1 + k_2 * base + ...: the first position least significant
    words = (reversed(w) for w in itertools.product(range(len(fibers)), repeat=n))
    counts = np.array([float(math.prod(fibers[k] for k in w)) for w in words])
    assert powers.tobytes() == _powers(counts, exponent).tobytes()


def test_one_state_factor_boundary():
    """Rounding happens once, after the product: float(2**53 + 1) * 3.0 is
    3 * 2**53, but the count rounds to 3 * 2**53 + 4."""
    one = np.ones(1, dtype=object)
    for f, expected in [(2**53, 3 * 2**53), (2**53 - 1, 3 * 2**53 - 4), (2**53 + 1, 3 * 2**53 + 4)]:
        mats = [np.full((1, 1), f, dtype=object), np.full((1, 1), 3, dtype=object)]
        powers = estimator._one_state_powers(one, mats, one, 2, 1.0)
        assert powers.tolist() == [float(f * f), float(3 * f), float(f * 3), 9.0]
        assert powers[1] == float(expected)
