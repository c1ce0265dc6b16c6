"""Finite-N nested counts, Fekete bounds, and submultiplicativity.

Core claims:
    - S_1 on the carpet is the two-term sum 2^(log_3 2) + 1, and S_N = Z_0^N
      to relative 1e-12 up to N = 8
    - at all-zero exponents S_N counts admissible top-level words
    - the series on the frozen sofic chain is nonincreasing and approaches
      the closed form
    - log S_(n+m) <= log S_n + log S_m on series entries, with window-2
      potentials on the carpet and on a random sponge
    - a constant potential c shifts log S_N / N by w_1 c, and block coding
      by m gives S_(mN) at N
    - a window-2 potential matches the brute-force sup-over-cylinder
      counter of chain_tools (the oracle)
    - counts survive the exact big-integer path when they exceed 2^52, and a
      count past float range is a ComputationError naming N on a multi-state
      bottom; on a sponge, where S_N = S_1^N, it is N a_1 log 1000 for
      1000 digits of one level-2 letter
    - the enumeration budget and window preconditions are enforced; over
      one bottom state the budget charges the |A_2| words of S_1 at every N;
      a chain whose graph has no edges is a ValidationError, not a numpy error
    - S_N keeps its bits when BLOCK splits the fold and the big-integer
      count products into blocks of one or 500 entries
    - an overflowing tail weight is a ComputationError; NaN weights from
      overflow still count their word at exponent 0, and a non-finite S_N
      on a multi-state bottom is a ComputationError, also when the sum in
      one transfer-matrix cell overflows; over one state an S_N past float
      range is N log S_1 of an in-test oracle
    - a window-3 potential on a sofic graph whose overhang can dead-end
      matches brute force
    - a weight that underflows to 0 counts once at exponent 0, as in
      closed_form (log S_1 = log 2 on the carpet with f = -1e4 on (1, 1));
      at a_1 = 1e-4 it is still dropped (strict xfail, ROADMAP item 6)
    - a full-shift bottom whose follower automaton has several states is
      one DP state: it takes the recursion, charged |A_2| words, and its
      enumeration agrees
    - a sponge is the one-vertex sofic chain: same transfer matrices, same
      bits
    - the series starts at N = window; each row keeps the bits of
      nested_count at its N, and a budget overflow at any N raises before
      anything is built or counted
    - a one-letter series to N = 2000 on a multi-state bottom grows its DP by
      one position per N
    - the bottom DP is built once per chain and potential: once for
      nested_count at N = 2..8 under varied exponents, twice for the golden
      check suite (9 builds without the memo), every value repr-equal to a
      fresh build's; the shared arrays are read-only
"""
import itertools
import math
import os
from unittest import mock

import numpy as np
import pytest

from wtp import enumeration, symbolic
from wtp.checks import run_all_checks
from wtp.cli import parse_config
from wtp.errors import ComplexityBudgetExceeded, ComputationError, PotentialWindowTooLarge, ValidationError
from wtp.estimator import entropy_estimate, nested_count
from wtp.sponge import Potential, closed_form, kp_recursion
from wtp.symbolic import LabeledGraph, SoficChain, SpongeChain, validate_digit_system
from wtp.weights import Exponents, exponents_from_bases, weights_from_exponents

from chain_tools import (
    brute_nested_count,
    m_fold_potential,
    m_fold_system,
    random_exponents,
    random_potential,
    random_sponge,
    window2_potential,
)

L32 = math.log(2) / math.log(3)


def test_carpet_single_letter_count(carpet_chain, carpet_exponents):
    count = nested_count(carpet_chain, carpet_exponents, n=1)
    assert count.log_value == pytest.approx(math.log(2.0**L32 + 1.0), abs=1e-14)


def test_carpet_counts_are_powers_of_z0(carpet, carpet_chain, carpet_exponents):
    log_z0 = math.log(kp_recursion(carpet, carpet_exponents).z0)
    for n in range(1, 9):
        count = nested_count(carpet_chain, carpet_exponents, n=n)
        assert count.log_value == pytest.approx(n * log_z0, rel=1e-12, abs=1e-12)


def test_zero_exponents_count_top_words(carpet_chain, golden, rng):
    zeros2 = Exponents((0.0,))
    for n in (1, 3, 5):
        count = nested_count(carpet_chain, zeros2, n=n)
        assert count.log_value == pytest.approx(n * math.log(2), abs=1e-12)
    zeros3 = Exponents((0.0, 0.0))
    for n in (1, 4):
        count = nested_count(golden, zeros3, n=n)
        assert count.log_value == pytest.approx(n * math.log(2), abs=1e-12)
    for n in (2, 3):  # several bottom states, so S_N is enumerated
        count = nested_count(golden, zeros3, n=n)
        assert count.log_value == pytest.approx(math.log(golden.automaton(3).count_words(n)), abs=1e-12)
    for _ in range(20):
        sys = random_sponge(rng)
        count = nested_count(SpongeChain(sys), Exponents((0.0,) * (sys.rank - 1)), n=2)
        assert count.log_value == pytest.approx(2 * math.log(len(sys.prefixes(1))), abs=1e-12)


def test_all_one_exponents_count_bottom_words(carpet_chain):
    ones = Exponents((1.0,))
    for n in (1, 3):
        count = nested_count(carpet_chain, ones, n=n)
        assert count.log_value == pytest.approx(n * math.log(3), abs=1e-12)


def test_golden_series_decreases_toward_closed_form(golden):
    a = exponents_from_bases(golden.system.bases)
    h = closed_form(golden, a).h_a_nats
    series = entropy_estimate(golden, a, n_max=8)
    values = [v for _n, v in series.entries]
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
    assert series.fekete_bounds == sorted(series.fekete_bounds, reverse=True)
    assert values[-1] > h  # finite-N estimates stay above the limit
    assert values[-1] - h < 0.03


def test_single_entry_series(carpet_chain, carpet_exponents):
    series = entropy_estimate(carpet_chain, carpet_exponents, n_max=1)
    assert len(series.entries) == 1
    assert series.entries[0][0] == 1


def test_submultiplicativity_examples(carpet_chain, carpet_exponents, golden, rng):
    # multiplicative chains meet the bound with equality
    s2 = nested_count(carpet_chain, carpet_exponents, n=2).log_value
    s3 = nested_count(carpet_chain, carpet_exponents, n=3).log_value
    s5 = nested_count(carpet_chain, carpet_exponents, n=5).log_value
    assert s5 == pytest.approx(s2 + s3, abs=1e-12)
    # log S_(n+m) <= log S_n + log S_m, read off one series; window-2
    # potentials keep the last digit in the DP state, so S_N is enumerated
    sys = random_sponge(rng, max_rank=3, max_base=4, max_digits=6)
    cases = [
        (carpet_chain, carpet_exponents, None, 2, 3),
        (carpet_chain, carpet_exponents, window2_potential(carpet_chain.system), 2, 3),
        (golden, exponents_from_bases(golden.system.bases), None, 3, 4),
        (golden, Exponents((1.0, 1.0)), None, 3, 4),
        (SpongeChain(sys), random_exponents(rng, sys.rank), window2_potential(sys), 2, 2),
    ]
    for chain, a, pot, n, m in cases:
        log_s = {k: k * value for k, value in entropy_estimate(chain, a, pot, n_max=n + m).entries}
        assert log_s[n + m] <= log_s[n] + log_s[m] + math.log1p(1e-9), (pot, n, m)


def test_pressure_consistency_constant_potential(carpet, carpet_chain, carpet_exponents, rng):
    w1 = weights_from_exponents(carpet_exponents)[0]
    c = 0.7
    pot = Potential(window=1, table={(d,): c for d in carpet.sorted_digits})
    for n in (1, 2, 4):
        with_f = nested_count(carpet_chain, carpet_exponents, pot, n=n).per_symbol
        without = nested_count(carpet_chain, carpet_exponents, None, n=n).per_symbol
        assert with_f == pytest.approx(without + w1 * c, abs=1e-12)
    for _ in range(20):
        sys = random_sponge(rng)
        chain = SpongeChain(sys)
        a = random_exponents(rng, sys.rank)
        c = float(rng.normal())
        pot = Potential(window=1, table={(d,): c for d in sys.sorted_digits})
        with_f = nested_count(chain, a, pot, n=3).per_symbol
        without = nested_count(chain, a, None, n=3).per_symbol
        assert with_f == pytest.approx(without + weights_from_exponents(a)[0] * c, abs=1e-9)


def test_monotone_in_exponents_at_fixed_n(rng):
    for _ in range(20):
        sys = random_sponge(rng, max_rank=3, max_base=4, max_digits=6)
        chain = SpongeChain(sys)
        vals = list(rng.uniform(0, 1, size=sys.rank - 1))
        i = int(rng.integers(0, sys.rank - 1))
        low = nested_count(chain, Exponents(tuple(vals)), n=3).log_value
        vals[i] = float(rng.uniform(vals[i], 1.0))
        high = nested_count(chain, Exponents(tuple(vals)), n=3).log_value
        assert high >= low - 1e-12


def test_oracle_equivalence_on_random_sponges(rng):
    for _ in range(10):
        sys = random_sponge(rng)
        chain = SpongeChain(sys)
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
        h = closed_form(chain, a).h_a_nats
        for n in range(1, 7):
            assert nested_count(chain, a, n=n).per_symbol == pytest.approx(h, abs=1e-10)


def test_window_two_matches_brute_force(carpet, carpet_chain, carpet_exponents, rng):
    table = {}
    for d1 in carpet.sorted_digits:
        for d2 in carpet.sorted_digits:
            table[(d1, d2)] = float(rng.normal())
    pot = Potential(window=2, table=table)
    for n in (2, 3, 4):
        expected = brute_nested_count(carpet_chain, carpet_exponents, pot, n)
        got = nested_count(carpet_chain, carpet_exponents, pot, n=n).log_value
        assert got == pytest.approx(expected, abs=1e-12)


def test_exact_bigint_path_used_for_huge_fibers():
    bases = (2, 36)
    digits = [(i, j) for i in range(2) for j in range(36)]
    sys = validate_digit_system(bases, digits)
    chain = SpongeChain(sys)
    a = exponents_from_bases(bases)
    log_z0 = math.log(kp_recursion(sys, a).z0)
    count = nested_count(chain, a, n=12)  # counts reach 36^12 > 2^52
    assert count.log_value == pytest.approx(12 * log_z0, rel=1e-12)


def test_budget_enforced(golden):
    a = exponents_from_bases(golden.system.bases)
    with pytest.raises(ComplexityBudgetExceeded):
        nested_count(golden, a, n=12, budget=1000)


def test_edgeless_chain_is_validation_error():
    # no edge, no level-2 letter, no transfer matrix to stack
    graph = LabeledGraph(vertices=("v",), edges=(), system=validate_digit_system((2, 3), [(0, 0)]))
    chain = SoficChain(graph)
    a = exponents_from_bases((2, 3))
    with pytest.raises(ValidationError, match="no edges"):
        entropy_estimate(chain, a, n_max=3)
    with pytest.raises(ValidationError, match="no edges"):
        nested_count(chain, a, n=2)


def test_window_larger_than_word_rejected(carpet_chain, carpet_exponents):
    pot = Potential(window=3, table={})
    with pytest.raises(PotentialWindowTooLarge):
        nested_count(carpet_chain, carpet_exponents, pot, n=2)


def test_results_are_deterministic(golden):
    a = exponents_from_bases(golden.system.bases)
    # each call builds its own bottom DP
    symbolic._cached_bottom.cache_clear()
    first = nested_count(golden, a, n=6).log_value
    symbolic._cached_bottom.cache_clear()
    second = nested_count(golden, a, n=6).log_value
    assert first == second


def test_rank_two_sofic_bottom_matches_brute_force():
    sys = validate_digit_system((2, 2), list(itertools.product(range(2), range(2))))
    dense = LabeledGraph(
        vertices=("a", "b"),
        edges=(
            ("a", "b", (0, 0)),
            ("a", "a", (1, 1)),
            ("b", "a", (0, 1)),
            ("b", "b", (1, 0)),
            ("b", "a", (1, 1)),
        ),
        system=sys,
    )
    # alternating graph: the level-2 word (0,)(0,) has no preimage at all
    alternating = LabeledGraph(
        vertices=("a", "b"),
        edges=(("a", "b", (0, 0)), ("b", "a", (1, 1))),
        system=sys,
    )
    a = Exponents((0.44,))
    for g in (dense, alternating):
        chain = SoficChain(g)
        assert not chain.is_full_shift(1)
        for n in (1, 2, 4, 6):
            got = nested_count(chain, a, n=n).log_value
            assert got == pytest.approx(brute_nested_count(chain, a, None, n), abs=1e-12)
    # all-zero exponents count admissible level-2 words: the alternating graph
    # admits exactly the two alternating projections at every length
    for n in (1, 3, 5):
        count = nested_count(SoficChain(alternating), Exponents((0.0,)), n=n)
        assert count.log_value == pytest.approx(math.log(2), abs=1e-14)


def test_sofic_window_two_matches_brute_force(rng):
    sys = validate_digit_system((2, 2), list(itertools.product(range(2), range(2))))
    g = LabeledGraph(
        vertices=("a", "b"),
        edges=(
            ("a", "b", (0, 0)),
            ("a", "a", (1, 1)),
            ("b", "a", (0, 1)),
            ("b", "b", (1, 0)),
            ("b", "a", (1, 1)),
        ),
        system=sys,
    )
    chain = SoficChain(g)
    table = {}
    for d1 in sys.sorted_digits:
        for d2 in sys.sorted_digits:
            table[(d1, d2)] = float(rng.normal())
    pot = Potential(window=2, table=table)
    a = Exponents((0.61,))
    for n in (2, 3, 5):
        got = nested_count(chain, a, pot, n=n).log_value
        assert got == pytest.approx(brute_nested_count(chain, a, pot, n), abs=1e-12)


def test_sofic_window_three_with_dead_ends_matches_brute_force(rng):
    sys = validate_digit_system((2, 2), list(itertools.product(range(2), range(2))))
    # c continues one letter, to the dead vertex d: a word ending only at c
    # has no two-letter overhang and weighs 0
    g = LabeledGraph(
        vertices=("a", "b", "c", "d"),
        edges=(
            ("a", "a", (0, 0)),
            ("a", "b", (1, 1)),
            ("b", "a", (1, 0)),
            ("b", "c", (0, 1)),
            ("c", "d", (1, 0)),
        ),
        system=sys,
    )
    chain = SoficChain(g)
    pot = Potential(
        window=3,
        table={w: float(rng.normal()) for w in itertools.product(sys.sorted_digits, repeat=3)},
    )
    _start, _mats, tail, _exact = enumeration._bottom_matrices(chain, pot, 3)
    assert 0.0 in tail  # some full-history state dead-ends within two letters
    for a in (Exponents((0.61,)), Exponents((0.0,))):
        for n in (3, 4, 6):
            got = nested_count(chain, a, pot, n=n).log_value
            assert got == pytest.approx(brute_nested_count(chain, a, pot, n), abs=1e-12)


def test_sponge_is_the_one_vertex_sofic_chain(rng):
    for rank in (2, 3):
        while True:
            sys = random_sponge(rng, max_rank=3, max_base=4, max_digits=8)
            if sys.rank == rank:
                break
        sponge = SpongeChain(sys)
        loops = tuple(("*", "*", d) for d in sys.sorted_digits)
        graph = SoficChain(LabeledGraph(vertices=("*",), edges=loops, system=sys))
        assert sponge == graph
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=rank - 1)))
        for window in (0, 1, 2):
            pot = random_potential(rng, sys.sorted_digits, window)
            # the chains are equal, so the memo would hand the graph the
            # sponge's build: build each one afresh
            start, mats, tail, exact = enumeration._build_bottom(sponge, pot)
            g_start, g_mats, g_tail, g_exact = enumeration._build_bottom(graph, pot)
            assert exact == g_exact and len(mats) == len(g_mats)
            for x, y in zip([start, tail, *mats], [g_start, g_tail, *g_mats]):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            for n in (3, 4):
                symbolic._cached_bottom.cache_clear()
                expected = repr(nested_count(sponge, a, pot, n).log_value)
                symbolic._cached_bottom.cache_clear()
                assert repr(nested_count(graph, a, pot, n).log_value) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_transfer_matrix_cell_is_computation_error(golden):
    # two labels of weight exp(709) share a transfer-matrix cell at N = 1;
    # their sum overflows without a numpy warning ahead of the typed error
    f = Potential(window=1, table={(x,): 709.0 for x in golden.alphabet(1)})
    with pytest.raises(ComputationError, match="S_N at N = 1 is"):
        entropy_estimate(golden, exponents_from_bases(golden.system.bases), f, n_max=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_level2_weights_still_count_words(carpet_chain, carpet_exponents):
    # two windows of 700 overflow a float, and inf * 0 in the product makes NaN
    # weights; with a_1 = 0 each admissible level-2 word still counts once
    pot = Potential(window=2, table={((0, 0), (0, 0)): 700.0})
    for n in (2, 3, 4):
        count = nested_count(carpet_chain, Exponents((0.0,)), pot, n=n)
        assert count.log_value == pytest.approx(n * math.log(2), abs=1e-12)
    # a non-finite S_N on a multi-state bottom is a ComputationError naming
    # N: exp(200) is finite, but the four windows of a word of length 4 are not
    pot2 = Potential(window=2, table={w: 200.0 for w in itertools.product(carpet_chain.system.sorted_digits, repeat=2)})
    assert math.isfinite(nested_count(carpet_chain, carpet_exponents, pot2, n=3).log_value)
    with pytest.raises(ComputationError, match="N = 4 is inf"):
        nested_count(carpet_chain, carpet_exponents, pot2, n=4)
    # over one state S_N = S_1^N, which stays finite: the oracle is
    # S_1 = (exp(700) + 1)^a_1 + 1, from the fibers {(0, 0), (0, 2)} and {(1, 1)}
    pot1 = Potential(window=1, table={((0, 0),): 700.0})
    log_s1 = math.log((math.exp(700.0) + 1) ** carpet_exponents.values[0] + 1)
    for n in (1, 2, 20):
        assert nested_count(carpet_chain, carpet_exponents, pot1, n=n).log_value == pytest.approx(n * log_s1, rel=1e-14)


# exp(-1e4) is 0.0 in floats: on the carpet the digit (1, 1) weighs nothing
UNDERFLOW_ON_11 = Potential(window=1, table={((1, 1),): -1e4})


def test_underflowing_weight_counts_at_exponent_zero(carpet_chain):
    """At a_1 = 0 the fiber {(1, 1)} of weight 0.0 still counts once, 0.0 ** 0
    being 1, as in closed_form: S_1 = 2, not the 1 of a fold that drops the
    weight as inadmissible."""
    f = UNDERFLOW_ON_11
    a = Exponents((0.0,))
    assert closed_form(carpet_chain, a, f).h_a_nats == math.log(2)
    assert nested_count(carpet_chain, a, f, n=1).log_value == math.log(2)
    assert entropy_estimate(carpet_chain, a, f, n_max=3).entries == [(n, math.log(2)) for n in (1, 2, 3)]


@pytest.mark.xfail(strict=True, reason="a weight that underflows to 0 is dropped, not rescaled (ROADMAP item 6)")
def test_underflowing_weight_keeps_its_share_at_small_exponent(carpet_chain):
    """At a_1 = 1e-4 the exact S_1 is 2^a_1 + e^(-1e4 a_1) = 2^a_1 + e^-1, so
    log S_1 is 0.3133; the underflowed 0.0 ** a_1 gives 6.93e-05 instead."""
    f = UNDERFLOW_ON_11
    a = Exponents((1e-4,))
    exact = math.log(2**1e-4 + math.exp(-1.0))
    assert nested_count(carpet_chain, a, f, n=1).log_value == pytest.approx(exact, rel=1e-12)


def test_full_shift_with_several_follower_states_takes_the_recursion():
    """Vertex a reads x back to a and y on to b, and b reads both back to a:
    every word is admissible, but the follower automaton has the three
    states {a, b}, {a} and {b}.  A full-shift bottom is one DP state, so
    the chain is charged the |A_2| = 1 word of S_1, and its S_N is S_1^N
    from the recursion over the labels, which enumeration reproduces."""
    x, y = (0, 0), (0, 1)
    graph = LabeledGraph(
        vertices=("a", "b"),
        edges=(("a", "a", x), ("a", "b", y), ("b", "a", x), ("b", "a", y)),
        system=validate_digit_system((2, 2), [x, y]),
    )
    chain = SoficChain(graph)
    assert chain.is_full_shift(1) and len(chain.automaton(1).states) == 3
    a = Exponents((0.7,))
    h = kp_recursion(chain.system, a).h_a_nats
    assert h == pytest.approx(0.7 * math.log(2), rel=1e-15)
    bottom = enumeration._bottom_matrices(chain, None, 1)
    assert len(bottom[0]) == 1
    enumerated = enumeration._log_counts(chain, a.values, bottom, 1, 8, None)
    assert len(enumerated) == 8
    for n, log_value in enumerate(enumerated, 1):
        assert nested_count(chain, a, n=n, budget=1).log_value == n * h
        assert log_value == pytest.approx(n * h, rel=1e-14)


def test_count_past_float_range_is_computation_error():
    """A word count that no float holds is a ComputationError naming N in the
    multi-state big-integer blocks; over one state S_N = S_1^N is finite."""
    # one level-2 letter over 1000 digits on two vertices, one entered and left
    # by its own digit: three follower states, and more than 1000**N words
    edges = [("a", "a", (0, k)) for k in range(1000)] + [("a", "b", (0, 1000)), ("b", "a", (0, 1001))]
    graph = LabeledGraph(
        vertices=("a", "b"), edges=tuple(edges), system=validate_digit_system((2, 1002), [e[2] for e in edges])
    )
    sofic = SoficChain(graph)
    assert len(enumeration._bottom_matrices(sofic, None, 1)[0]) > 1
    a = exponents_from_bases(sofic.system.bases)
    assert math.isfinite(nested_count(sofic, a, n=100).log_value)
    with pytest.raises(ComputationError, match="a word count at N = 103 overflows a float"):
        nested_count(sofic, a, n=103)
    with pytest.raises(ComputationError, match="N = 103"):
        entropy_estimate(sofic, a, n_max=110)
    # the sponge on the same 1000 digits of one letter: its word of length N
    # has 1000**N bottom words, and log S_N = N a_1 log 1000
    sponge = SpongeChain(validate_digit_system((2, 1000), [(0, k) for k in range(1000)]))
    a = exponents_from_bases(sponge.system.bases)
    a1 = math.log(2) / math.log(1000)
    assert nested_count(sponge, a, n=103).log_value == pytest.approx(103 * a1 * math.log(1000), rel=1e-15)
    assert 103 * a1 * math.log(1000) == pytest.approx(71.39415959767436, rel=1e-15)
    series = entropy_estimate(sponge, a, n_max=110)
    assert {value for _n, value in series.entries} == {nested_count(sponge, a, n=1).log_value}


def test_series_starts_at_window(carpet_chain, carpet_exponents):
    pot = Potential(window=2, table={((0, 0), (1, 1)): 0.4, ((1, 1), (0, 2)): -0.2})
    series = entropy_estimate(carpet_chain, carpet_exponents, pot, n_max=4)
    assert [n for n, _v in series.entries] == [2, 3, 4]
    for n, value in series.entries:
        assert value == nested_count(carpet_chain, carpet_exponents, pot, n=n).per_symbol
    with pytest.raises(PotentialWindowTooLarge):
        entropy_estimate(carpet_chain, carpet_exponents, pot, n_max=1)


def test_series_rows_are_nested_counts(rng):
    """The series builds its transfer matrices once; each row keeps the bits
    of nested_count at that N, for windows 0-2 and on the big-integer path,
    with fibers of equal and of distinct sizes."""
    sys = random_sponge(rng, max_rank=3, max_base=3, max_digits=6)
    chains = [SpongeChain(sys), _random_graph_chain(rng, (2, 3), 3, 6)]
    cases = []
    for chain in chains:
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=chain.rank - 1)))
        for window in (0, 1, 2):
            cases.append((chain, a, random_potential(rng, chain.system.sorted_digits, window), 5))
    for fibers, n_max in (((36, 36), 12), ((600, 7, 250), 6)):  # 37^11, 601^6 > 2^52
        chain = _multi_state_wide(fibers)
        cases.append((chain, exponents_from_bases(chain.system.bases), None, n_max))
    for chain, a, pot, n_max in cases:
        series = entropy_estimate(chain, a, pot, n_max=n_max)
        assert [n for n, _v in series.entries] == list(range(pot.window if pot else 1, n_max + 1))
        for n, value in series.entries:
            assert repr(value) == repr(nested_count(chain, a, pot, n=n).per_symbol), (pot, n)


def test_series_budget_fails_before_counting(golden, monkeypatch):
    """N = 15 is the first N past the budget; nothing is built or counted first."""
    a = exponents_from_bases(golden.system.bases)
    budget = 3**14
    with pytest.raises(ComplexityBudgetExceeded) as single:
        nested_count(golden, a, n=15, budget=budget)

    def never(*_args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr(enumeration, "_bottom_matrices", never)
    monkeypatch.setattr(enumeration, "_level2_values", never)
    with pytest.raises(ComplexityBudgetExceeded) as series:
        entropy_estimate(golden, a, n_max=16, budget=budget)
    assert str(series.value) == str(single.value) == f"enumeration needs {3**15} words, budget is {budget}"


def test_one_state_budget_charges_the_words_of_s1(carpet_chain, carpet_exponents):
    """Over one bottom state only the |A_2| = 2 words of S_1 are formed, so
    N = 50 (2^50 level-2 words) passes the default budget; a window-2
    potential keeps the last digit in the DP state and is charged 2^N."""
    log_s1 = nested_count(carpet_chain, carpet_exponents, n=1).log_value
    assert nested_count(carpet_chain, carpet_exponents, n=50).log_value == 50 * log_s1
    with pytest.raises(ComplexityBudgetExceeded, match="needs 2 words, budget is 1$"):
        nested_count(carpet_chain, carpet_exponents, n=50, budget=1)
    with pytest.raises(ComplexityBudgetExceeded, match=f"needs {2**50} words"):
        nested_count(carpet_chain, carpet_exponents, window2_potential(carpet_chain.system), n=50)


@pytest.mark.parametrize("bases", [(2, 3), (2, 3, 4)])
def test_one_letter_series_grows_one_position_per_n(bases):
    """One level-2 letter on a two-cycle, whose follower automaton has three
    states: the budget never stops the series, and each N adds one DP
    position rather than rebuilding N of them.  Each length has two words,
    so S_N = 2^(a_1 ... a_(r-1)) throughout, and counts pass 2**52 at N = 53."""
    zeros = (0,) * (len(bases) - 1)
    edges = (("a", "b", zeros + (0,)), ("b", "a", zeros + (1,)))
    chain = SoficChain(LabeledGraph(vertices=("a", "b"), edges=edges,
                                    system=validate_digit_system(bases, [e[2] for e in edges])))
    assert len(enumeration._bottom_matrices(chain, None, 1)[0]) == 3
    a = exponents_from_bases(bases)
    with mock.patch.object(enumeration, "_grow", wraps=enumeration._grow) as grow:
        series = entropy_estimate(chain, a, n_max=2000)
    assert [n for n, _v in series.entries] == list(range(1, 2001))
    log_s = math.prod(a.values) * math.log(2)
    assert all(value * n == pytest.approx(log_s, rel=1e-14) for n, value in series.entries)
    assert grow.call_count <= 2000


def test_block_chain_reproduces_matched_length(rng):
    for _ in range(6):
        sys = random_sponge(rng, max_rank=3, max_base=3, max_digits=4)
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
        f = Potential(window=1, table={(d,): float(rng.normal()) for d in sys.sorted_digits})
        for m in (2, 3):
            folded = m_fold_system(sys, m)
            lhs = nested_count(SpongeChain(folded), a, m_fold_potential(sys, f, m), n=2).log_value
            rhs = nested_count(SpongeChain(sys), a, f, n=2 * m).log_value
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_overflowing_tail_weight_is_computation_error(carpet_chain, carpet_exponents):
    pot = Potential(window=3, table={((0, 0),) * 3: 400.0})
    with pytest.raises(ComputationError, match="overflows a float"):
        nested_count(carpet_chain, carpet_exponents, pot, n=3)


def _random_graph_chain(rng, bases, nverts, extra):
    """Sofic chain on a random graph with a cycle through every vertex."""
    pool = list(itertools.product(*(range(m) for m in bases)))
    verts = tuple(str(v) for v in range(nverts))

    def pick():
        return pool[int(rng.integers(len(pool)))]

    edges = {(verts[v], verts[(v + 1) % nverts], pick()) for v in range(nverts)}
    for _ in range(extra):
        edges.add((verts[int(rng.integers(nverts))], verts[int(rng.integers(nverts))], pick()))
    sys = validate_digit_system(bases, sorted({lab for _s, _t, lab in edges}))
    return SoficChain(LabeledGraph(vertices=verts, edges=tuple(sorted(edges)), system=sys))


def _multi_state_wide(fibers):
    """Digits (i, j), j < fibers[i], on a loop at vertex a, and one more digit
    of the first and of the last level-2 letter from a to b and back: counts
    as large as a sponge's on those fibers, but three follower states, so
    each N is enumerated."""
    edges = [("a", "a", (i, j)) for i, f in enumerate(fibers) for j in range(f)]
    edges += [("a", "b", (0, fibers[0])), ("b", "a", (len(fibers) - 1, fibers[-1]))]
    sys = validate_digit_system((len(fibers), max(fibers) + 1), [e[2] for e in edges])
    chain = SoficChain(LabeledGraph(vertices=("a", "b"), edges=tuple(edges), system=sys))
    assert len(enumeration._bottom_matrices(chain, None, 1)[0]) > 1
    return chain


def _blocked_cases(rng):
    """(label, chain, exponents, potential, n) with at least 64 * base**2 level-2 words."""
    chains = []
    for rank in (2, 3, 4):
        while True:
            sys = random_sponge(rng, max_rank=4, max_base=4, max_digits=12)
            if sys.rank == rank and len(SpongeChain(sys).alphabet(2)) >= 2:
                break
        chains.append((f"sponge rank {rank}", SpongeChain(sys)))
    for bases in ((2, 3), (2, 2, 3)):
        chains.append((f"sofic {bases}", _random_graph_chain(rng, bases, 4, 8)))
    cases = []
    for label, chain in chains:
        base = len(chain.alphabet(2))
        n = 3
        while base ** (n - 2) < 64:
            n += 1
        vals = [float(x) for x in rng.uniform(0, 1, size=chain.rank - 1)]
        vals[int(rng.integers(len(vals)))] = 0.0  # an exponent of 0
        for window in (0, 1, 2):
            pot = random_potential(rng, chain.system.sorted_digits, window)
            cases.append((f"{label} window {window}", chain, Exponents(tuple(vals)), pot, n))
    chain = _multi_state_wide((36, 36))  # 37^12 > 2^52: the exact big-integer path
    cases.append(("big integers", chain, exponents_from_bases(chain.system.bases), None, 12))
    return cases


@pytest.mark.parametrize("block", [1, 500])
def test_blocked_dp_matches_all_at_once(monkeypatch, rng, block):
    """A small BLOCK splits the fold into many chunks and the big-integer
    count products into blocks of few suffixes; the reference takes each as
    one array.  The floats must agree bit for bit."""
    for label, chain, a, pot, n in _blocked_cases(rng):
        monkeypatch.setattr(enumeration, "BLOCK", 2**62)
        whole = nested_count(chain, a, pot, n).log_value
        monkeypatch.setattr(enumeration, "BLOCK", block)
        blocked = nested_count(chain, a, pot, n).log_value
        assert repr(blocked) == repr(whole), label


def test_bottom_dp_is_built_once_per_chain_and_potential(carpet):
    """One build serves every N and every exponent vector, and each S_N
    keeps the bits of a call made right after the memo is emptied."""
    chain, potential = SpongeChain(carpet), window2_potential(carpet)
    cases = list(zip((Exponents((x,)) for x in (0.63, 0.0, 1.0, 0.25, 0.9, 0.5, 0.37)), range(2, 9)))
    fresh = []
    for a, n in cases:
        symbolic._cached_bottom.cache_clear()
        fresh.append(repr(nested_count(chain, a, potential, n)))
    symbolic._cached_bottom.cache_clear()
    with mock.patch.object(enumeration, "_build_bottom", wraps=enumeration._build_bottom) as build:
        assert [repr(nested_count(chain, a, potential, n)) for a, n in cases] == fresh
    assert build.call_count == 1
    start, mats, tail, _exact = enumeration._bottom_matrices(chain, potential, 2)
    for array in (start, tail, *mats):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_check_suite_builds_two_bottom_dps():
    """The golden `check` counts S_N under no potential and under the shifted
    one, at several N and exponents: two builds with the memo, nine with
    every call building afresh, and the same lines either way."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "golden_sofic.json")) as fh:
        config = parse_config(fh.read())
    symbolic._cached_bottom.cache_clear()
    with mock.patch.object(enumeration, "_build_bottom", wraps=enumeration._build_bottom) as build:
        shared = repr(run_all_checks(config))
    assert build.call_count == 2
    unshared = symbolic._cached_bottom.__wrapped__
    with mock.patch.object(enumeration, "_cached_bottom", unshared), \
            mock.patch.object(enumeration, "_build_bottom", wraps=enumeration._build_bottom) as build:
        assert repr(run_all_checks(config)) == shared
    assert build.call_count == 9
