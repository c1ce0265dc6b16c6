"""Property test: S_N against a brute-force count of bottom words.

Core claim:
    - on random small sponges and sofic graphs of rank 2 and 3, N <= 4 and
      random exponents, nested_count equals the nested sum over explicitly
      enumerated words, with the default blocks and with one-word blocks
"""
import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp import estimator
from wtp.estimator import nested_count
from wtp.symbolic import LabeledGraph, SoficChain, SpongeChain, validate_digit_system
from wtp.weights import Exponents


@st.composite
def _small_chains(draw):
    """A sponge or a sofic graph of rank 2 or 3 over bases 2 and 3."""
    rank = draw(st.integers(2, 3))
    bases = tuple(sorted(draw(st.lists(st.integers(2, 3), min_size=rank, max_size=rank))))
    pool = list(itertools.product(*(range(m) for m in bases)))
    if draw(st.booleans()):
        digits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
        return SpongeChain(validate_digit_system(bases, digits))
    nverts = draw(st.integers(1, 3))
    vertex = st.integers(0, nverts - 1).map(str)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(pool)), max_size=7))
    edges.append(("0", "0", draw(st.sampled_from(pool))))  # words of every length
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
