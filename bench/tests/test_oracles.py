"""Tests of the benchmark's own reference computations.

    python3 -m pytest bench/tests
"""
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402


def _sponge(name):
    sponge = json.loads((BENCH.parent / "configs" / name).read_text())["system"]["sponge"]
    return tuple(sponge["bases"]), [tuple(d) for d in sponge["digits"]]


def _full_shift_graph(digits):
    return ["*"], [("*", "*", d) for d in digits]


def test_nested_sum_reproduces_mcmullen_carpet():
    bases, digits = _sponge("carpet.json")
    a = oracles.exponents_from_bases(bases)
    carpet = math.log(2 ** (math.log(2) / math.log(3)) + 1)
    assert math.log(oracles.nested_sum(digits, a)) == pytest.approx(carpet, rel=1e-15)
    assert oracles.carpet_entropy() == pytest.approx(carpet, rel=1e-15)
    assert oracles.hausdorff_dimension(bases, digits) == pytest.approx(carpet / math.log(2), rel=1e-15)
    assert oracles.minkowski_dimension(bases, digits) == pytest.approx(1 + math.log(1.5) / math.log(3), rel=1e-15)


@pytest.mark.parametrize("bases, digits", [
    _sponge("carpet.json"),
    ((2, 3, 4), [(0, 0, 1), (0, 0, 3), (0, 2, 0), (1, 1, 1), (1, 1, 2), (1, 2, 3)]),
])
def test_brute_force_on_a_full_shift_is_the_nested_sum_to_the_n(bases, digits):
    a = oracles.exponents_from_bases(bases)
    z0 = oracles.nested_sum(digits, a)
    vertices, edges = _full_shift_graph(digits)
    for n in range(1, 5):
        words = oracles.sofic_words(vertices, edges, n)
        assert len(words) == len(digits) ** n
        assert oracles.nested_count_from_words(words, a) == pytest.approx(z0**n, rel=1e-12)


def test_weighted_nested_sum_adds_w1_times_a_constant_potential():
    bases, digits = _sponge("carpet.json")
    a = oracles.exponents_from_bases(bases)
    shifted = oracles.nested_sum(digits, a, {d: 0.7 for d in digits})
    plain = oracles.nested_sum(digits, a)
    assert math.log(shifted) == pytest.approx(math.log(plain) + oracles.weight_w1(a) * 0.7, rel=1e-14)


def test_golden_closed_form_value():
    assert oracles.golden_entropy() == pytest.approx(1.459838, abs=5e-7)


def test_follower_state_count():
    # golden-mean shift: forbid "11"; the follower sets are {a, b} and {a}
    edges = [("a", "a", (0,)), ("a", "b", (1,)), ("b", "a", (0,))]
    assert oracles.follower_state_count(["a", "b"], edges) == (3, False)
    vertices, edges = _full_shift_graph([(0,), (1,)])
    assert oracles.follower_state_count(vertices, edges) == (1, True)
