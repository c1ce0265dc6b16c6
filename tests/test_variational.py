"""Bernoulli objective, recursion-built maximizer, and ascent on the simplex.

Core claims:
    - the uniform-measure objective on the carpet equals the hand formula
      w1 log 3 + w2 (log 3 - (2/3) log 2)
    - the recursion maximizer has the predicted coordinates and reproduces
      log Z_0 to 1e-9
    - ascent reaches the closed form within 1e-6 and never exceeds it by
      more than 1e-9; the value trace is nondecreasing
    - a two-symbol system matches a 1e-6 grid-search oracle
    - random distributions never beat the closed form (the variational
      inequality for product measures)
    - the grouped-sum marginals agree with dense 0/1 marginal matrices
    - the ascent returns, bit for bit, what an ascent that forms every
      marginal twice per iterate returns (maximizer, value, breakdown,
      trace, best value on non-convergence), also when marginals fall below
      1e-300 or to 0; its value is `bernoulli_objective` on its maximizer
    - distributions keep their coercions and errors
    - a Z_0 of 0 or inf is a ComputationError for the recursion maximizer
      and the ascent
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.checks import random_sponge
from wtp.defaults import STALL_GAIN
from wtp.errors import ComputationError, DidNotConverge, DistributionInvalid
from wtp.sponge import Potential, kp_recursion
from wtp.symbolic import validate_digit_system
from wtp.variational import (
    STALL_SPAN,
    SymbolDistribution,
    VariationalValue,
    _marginal_groups,
    bernoulli_objective,
    maximize_bernoulli,
    optimal_measure_from_recursion,
)
from wtp.weights import Exponents, weights_from_exponents

L32 = math.log(2) / math.log(3)


def _uniform(sys):
    p = 1.0 / len(sys.digits)
    return SymbolDistribution(system=sys, probs={d: p for d in sys.digits})


def test_uniform_objective_on_carpet(carpet, carpet_exponents):
    value = bernoulli_objective(carpet, carpet_exponents, _uniform(carpet)).value
    w1, w2 = weights_from_exponents(carpet_exponents).values
    h_marginal = math.log(3) - (2.0 / 3.0) * math.log(2)  # H(2/3, 1/3)
    assert value == pytest.approx(w1 * math.log(3) + w2 * h_marginal, abs=1e-14)


def test_point_mass_objective_is_potential_only(carpet, carpet_exponents):
    delta = SymbolDistribution(system=carpet, probs={(1, 1): 1.0})
    assert bernoulli_objective(carpet, carpet_exponents, delta).value == pytest.approx(0.0, abs=0)
    f = Potential(window=1, table={((1, 1),): 2.5})
    w1 = weights_from_exponents(carpet_exponents)[0]
    value = bernoulli_objective(carpet, carpet_exponents, delta, f).value
    assert value == pytest.approx(w1 * 2.5, abs=1e-14)


def test_breakdown_sums_to_value(carpet, carpet_exponents):
    result = bernoulli_objective(carpet, carpet_exponents, _uniform(carpet))
    assert sum(c for _label, c in result.breakdown) == pytest.approx(result.value, abs=1e-15)


def test_recursion_maximizer_coordinates_on_carpet(carpet, carpet_exponents):
    z0 = kp_recursion(carpet, carpet_exponents).z0
    dist = optimal_measure_from_recursion(carpet, carpet_exponents)
    assert dist.prob((1, 1)) == pytest.approx(1.0 / z0, abs=1e-14)
    assert dist.prob((0, 0)) == pytest.approx(2.0 ** (L32 - 1.0) / z0, abs=1e-14)
    assert dist.prob((0, 2)) == pytest.approx(dist.prob((0, 0)), abs=1e-15)
    value = bernoulli_objective(carpet, carpet_exponents, dist).value
    assert value == pytest.approx(math.log(z0), abs=1e-9)


def test_recursion_maximizer_hits_closed_form_on_randoms(rng):
    for _ in range(25):
        sys = random_sponge(rng)
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
        f = None
        if rng.uniform() < 0.5:
            f = Potential(window=1, table={(d,): float(rng.normal()) for d in sys.sorted_digits})
        dist = optimal_measure_from_recursion(sys, a, f)
        value = bernoulli_objective(sys, a, dist, f).value
        assert value == pytest.approx(math.log(kp_recursion(sys, a, f).z0), abs=1e-9)


def test_single_digit_system_gives_point_mass():
    sys = validate_digit_system((2, 2), [(0, 1)])
    dist = optimal_measure_from_recursion(sys, Exponents((0.5,)))
    assert dist.prob((0, 1)) == pytest.approx(1.0, abs=0)
    value = bernoulli_objective(sys, Exponents((0.5,)), dist).value
    assert value == pytest.approx(0.0, abs=1e-15)


def test_all_ones_exponents_give_uniform_maximizer(carpet):
    ones = Exponents((1.0,))
    dist = optimal_measure_from_recursion(carpet, ones)
    for d in carpet.digits:
        assert dist.prob(d) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert bernoulli_objective(carpet, ones, dist).value == pytest.approx(
        math.log(3), abs=1e-12
    )


def test_ascent_reaches_closed_form_on_carpet(carpet, carpet_exponents):
    z0 = kp_recursion(carpet, carpet_exponents).z0
    dist, value = maximize_bernoulli(carpet, carpet_exponents)
    assert value.value == pytest.approx(math.log(z0), abs=1e-6)
    assert value.value <= math.log(z0) + 1e-9
    reference = optimal_measure_from_recursion(carpet, carpet_exponents)
    tv = 0.5 * sum(abs(dist.prob(d) - reference.prob(d)) for d in carpet.digits)
    assert tv <= 1e-4


def test_ascent_trace_is_nondecreasing(carpet, carpet_exponents):
    trace = []
    maximize_bernoulli(carpet, carpet_exponents, trace=trace)
    assert all(y >= x - 1e-12 for x, y in zip(trace, trace[1:]))


def test_constant_potential_shifts_value_not_maximizer(carpet, carpet_exponents):
    w1 = weights_from_exponents(carpet_exponents)[0]
    c = 1.3
    pot = Potential(window=1, table={(d,): c for d in carpet.sorted_digits})
    base_dist, base_value = maximize_bernoulli(carpet, carpet_exponents)
    shifted_dist, shifted_value = maximize_bernoulli(carpet, carpet_exponents, pot)
    assert shifted_value.value == pytest.approx(base_value.value + w1 * c, abs=1e-9)
    for d in carpet.digits:
        assert shifted_dist.prob(d) == pytest.approx(base_dist.prob(d), abs=1e-6)


def test_two_symbol_system_matches_grid_search():
    # both marginals equal the symbol distribution, so the objective is H(p)
    # regardless of the exponent; the grid oracle scans p in 1e-6 steps
    sys = validate_digit_system((2, 3), [(0, 0), (1, 1)])
    a = Exponents((0.37,))
    grid = np.linspace(1e-9, 1 - 1e-9, 1_000_001)
    entropies = -(grid * np.log(grid) + (1 - grid) * np.log(1 - grid))
    best_grid = float(entropies.max())
    _dist, value = maximize_bernoulli(sys, a)
    assert value.value == pytest.approx(best_grid, abs=1e-6)
    closed = math.log(kp_recursion(sys, a).z0)
    assert value.value == pytest.approx(closed, abs=1e-6)


def test_glued_fiber_tie_still_matches_value():
    # both digits share the first coordinate: the top marginal is degenerate
    sys = validate_digit_system((2, 3), [(0, 0), (0, 1)])
    a = Exponents((0.6,))
    w1 = weights_from_exponents(a)[0]
    _dist, value = maximize_bernoulli(sys, a)
    assert value.value == pytest.approx(w1 * math.log(2), abs=1e-6)
    assert value.value == pytest.approx(math.log(kp_recursion(sys, a).z0), abs=1e-6)


def test_random_distributions_never_beat_closed_form(rng):
    for _ in range(1000):
        sys = random_sponge(rng, max_rank=4, max_base=4, max_digits=8)
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
        raw = rng.uniform(0, 1, size=len(sys.digits)) + 1e-12
        raw = raw / raw.sum()
        dist = SymbolDistribution(
            system=sys, probs={d: float(p) for d, p in zip(sys.sorted_digits, raw)}
        )
        value = bernoulli_objective(sys, a, dist).value
        closed = math.log(kp_recursion(sys, a).z0)
        assert value <= closed + 1e-9


def test_distribution_validation(carpet):
    with pytest.raises(DistributionInvalid):
        SymbolDistribution(system=carpet, probs={(0, 0): 0.5})
    with pytest.raises(DistributionInvalid):
        SymbolDistribution(system=carpet, probs={(0, 0): 1.5, (1, 1): -0.5})
    with pytest.raises(DistributionInvalid):
        SymbolDistribution(system=carpet, probs={(1, 0): 1.0})


def test_did_not_converge_reports_best(carpet, carpet_exponents):
    with pytest.raises(DidNotConverge) as exc:
        maximize_bernoulli(carpet, carpet_exponents, max_iters=3)
    assert exc.value.best_value is not None
    assert exc.value.best_distribution is not None


def _dense_marginal_matrices(sys):
    """Oracle: per level, the |D_j| x |D| 0/1 matrix whose column d has its
    one 1 in the row of d's length-j prefix (the library keeps group indices)."""
    digits = sys.sorted_digits
    mats = []
    for level in range(1, sys.rank + 1):
        j = sys.rank - level + 1
        pos = {x: k for k, x in enumerate(sys.prefixes(j))}
        m = np.zeros((len(pos), len(digits)))
        for col, d in enumerate(digits):
            m[pos[d[:j]], col] = 1.0
        mats.append(m)
    return mats


@st.composite
def _sponge_and_point(draw):
    rank = draw(st.integers(2, 4))
    bases = tuple(sorted(draw(st.lists(st.integers(2, 4), min_size=rank, max_size=rank))))
    pool = list(itertools.product(*(range(m) for m in bases)))
    digits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16, unique=True))
    sys = validate_digit_system(bases, digits)
    unit = st.floats(0.0, 1.0, allow_nan=False)
    raw = np.array(draw(st.lists(unit, min_size=len(digits), max_size=len(digits)))) + 1e-12
    a = Exponents(tuple(draw(st.lists(unit, min_size=rank - 1, max_size=rank - 1))))
    return sys, a, raw / raw.sum()


@settings(max_examples=200, deadline=None)
@given(_sponge_and_point())
def test_grouped_marginals_match_dense_oracle(case):
    sys, a, raw = case
    dist = SymbolDistribution(
        system=sys, probs={d: float(x) for d, x in zip(sys.sorted_digits, raw)}
    )
    p = dist.as_array()
    dense = _dense_marginal_matrices(sys)
    groups = _marginal_groups(sys)
    assert len(groups) == len(dense)
    w = weights_from_exponents(a)
    objective = 0.0
    for i, ((group, k), m) in enumerate(zip(groups, dense)):
        q = m @ p
        np.testing.assert_allclose(np.bincount(group, weights=p, minlength=k), q, rtol=1e-15, atol=0)
        x = -np.log(np.maximum(q, 1e-300)) - 1.0
        assert np.array_equal(x[group], m.T @ x)
        nz = q[q > 0]
        objective += w[i] * float(-np.sum(nz * np.log(nz)))
    assert bernoulli_objective(sys, a, dist).value == pytest.approx(objective, abs=1e-14)


def test_unrepresentable_z0_is_computation_error(unrepresentable_z0):
    sys, f, message = unrepresentable_z0
    a = Exponents((0.5,))
    with pytest.raises(ComputationError, match=re.escape(message)):
        optimal_measure_from_recursion(sys, a, f)
    with pytest.raises(ComputationError, match=re.escape(message)):
        maximize_bernoulli(sys, a, f)


def test_distribution_coerces_numpy_keys_and_values(carpet):
    probs = {(np.int64(0), np.int64(0)): np.float64(0.25), (1, 1): 0.5, (0, np.int32(2)): np.float64(0.25)}
    dist = SymbolDistribution(system=carpet, probs=probs)
    assert dist.probs == {(0, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
    assert {type(c) for d in dist.probs for c in d} == {int}
    assert {type(p) for p in dist.probs.values()} == {float}


@pytest.mark.parametrize(
    "probs, message",
    [
        ({(0, 0): 1.5, (1, 1): -0.5}, "negative probability -0.5 for (1, 1)"),
        ({(0, 0): 0.5, (1, 1): 0.25}, "probabilities sum to 0.75, not 1"),
        ({(0, 0): 0.5, (1, 0): 0.5}, "(1, 0) is not a digit of the system"),
        ({(0, 0): 0.5, (np.int64(1), 0): 0.5}, "(1, 0) is not a digit of the system"),
        ({(0, 0): 0.5, (0, 0, 0): 0.5}, "(0, 0, 0) is not a digit of the system"),
    ],
)
def test_distribution_errors_name_the_entry(carpet, probs, message):
    with pytest.raises(DistributionInvalid, match=re.escape(message)):
        SymbolDistribution(system=carpet, probs=probs)


def _reference_ascent(sys, a, potential, max_iters, trace):
    """Oracle: the ascent written with an `objective` and a `gradient` that
    each form every level marginal, and the value recomputed at the best
    point.  Returns (value or None on non-convergence, best value, best
    point, whether a marginal fell below 1e-300)."""
    digits = sys.sorted_digits
    w = weights_from_exponents(a)
    groups = []
    for level in range(1, sys.rank + 1):
        j = sys.rank - level + 1
        pos = {x: k for k, x in enumerate(sorted({d[:j] for d in digits}))}
        groups.append((np.array([pos[d[:j]] for d in digits], dtype=np.intp), len(pos)))
    fvec = np.array([potential.value((d,)) if potential else 0.0 for d in digits])
    tiny = []

    def entropy(q):
        q = q[q > 0]
        return float(-np.sum(q * np.log(q)))

    def objective(p):
        total = sum(
            w[i] * entropy(np.bincount(g, weights=p, minlength=k)) for i, (g, k) in enumerate(groups)
        )
        return total + w[0] * float(fvec @ p)

    def gradient(p):
        g = w[0] * fvec.copy()
        for i, (group, k) in enumerate(groups):
            q = np.bincount(group, weights=p, minlength=k)
            tiny.append(q.min() < 1e-300)
            logq = np.where(q > 0, np.log(np.maximum(q, 1e-300)), 0.0)
            g += w[i] * (-logq - 1.0)[group]
        return g

    p = np.full(len(digits), 1.0 / len(digits))
    best_p = p.copy()
    best = objective(p)
    trace.append(best)
    stall = 0
    for it in range(max_iters):
        g = gradient(p)
        eta = 0.5 / (1.0 + it / 100.0)
        q = p * np.exp(eta * (g - g.max()))
        q = q / q.sum()
        value = objective(q)
        trace.append(value)
        if value - best < STALL_GAIN:
            stall += 1
        else:
            stall = 0
        if value > best:
            best = value
            best_p = q.copy()
        p = q
        if stall >= STALL_SPAN:
            break
    else:
        return None, best, best_p, any(tiny)
    breakdown = []
    total = 0.0
    for i, (group, k) in enumerate(groups, start=1):
        contribution = w[i - 1] * entropy(np.bincount(group, weights=best_p, minlength=k))
        breakdown.append((f"w{i}*H(level {i})", contribution))
        total += contribution
    potential_term = w[0] * float(fvec @ best_p)
    breakdown.append(("w1*E[f]", potential_term))
    total += potential_term
    return VariationalValue(value=total, breakdown=tuple(breakdown)), best, best_p, any(tiny)


def _bits(values):
    return [float(x).hex() for x in values]


def _assert_ascent_matches_reference(sys, a, potential, max_iters):
    """Run both ascents; return whether a marginal fell below 1e-300."""
    expected_trace = []
    expected, best, best_p, tiny = _reference_ascent(sys, a, potential, max_iters, expected_trace)
    trace = []
    if expected is None:
        with pytest.raises(DidNotConverge) as info:
            maximize_bernoulli(sys, a, potential, max_iters=max_iters, trace=trace)
        assert _bits([info.value.best_value]) == _bits([best])
        dist = info.value.best_distribution
    else:
        dist, value = maximize_bernoulli(sys, a, potential, max_iters=max_iters, trace=trace)
        assert _bits([value.value]) == _bits([expected.value])
        assert [label for label, _c in value.breakdown] == [label for label, _c in expected.breakdown]
        assert _bits(c for _label, c in value.breakdown) == _bits(c for _label, c in expected.breakdown)
        assert value == bernoulli_objective(sys, a, dist, potential)
        assert _bits([value.value]) == _bits([bernoulli_objective(sys, a, dist, potential).value])
    assert _bits(dist.probs[d] for d in sys.sorted_digits) == _bits(best_p)
    assert _bits(trace) == _bits(expected_trace)
    return tiny


def test_ascent_matches_reference_where_marginals_vanish(carpet, carpet_exponents):
    # f pushes (0, 0) below 1e-300 and then to 0 within a few steps
    f = Potential(window=1, table={((0, 0),): -700.0, ((1, 1),): 200.0})
    assert _assert_ascent_matches_reference(carpet, carpet_exponents, f, 3000)
    # here (0, 0) stays in (0, 1e-300), where log q and log 1e-300 differ,
    # while the other digits still move the best point
    sys = validate_digit_system((2, 3), [(0, 0), (0, 1), (1, 1), (1, 2)])
    f = Potential(window=1, table={((0, 0),): -700.0})
    assert _assert_ascent_matches_reference(sys, Exponents((0.63,)), f, 3000)
    sys = validate_digit_system((2, 3, 4), [(0, 0, 1), (0, 1, 0), (0, 1, 3), (1, 2, 2)])
    f = Potential(window=1, table={((0, 1, 0),): -700.0, ((0, 1, 3),): -700.0, ((1, 2, 2),): 150.0})
    assert _assert_ascent_matches_reference(sys, Exponents((0.95, 0.9)), f, 3000)


def test_ascent_matches_reference_when_it_does_not_converge(carpet, carpet_exponents):
    _assert_ascent_matches_reference(carpet, carpet_exponents, None, 5)
    f = Potential(window=1, table={((0, 0),): -700.0, ((0, 2),): 3.0})
    _assert_ascent_matches_reference(carpet, carpet_exponents, f, 7)


@st.composite
def _ascent_case(draw):
    rank = draw(st.integers(2, 3))
    bases = tuple(sorted(draw(st.lists(st.integers(2, 4), min_size=rank, max_size=rank))))
    pool = list(itertools.product(*(range(m) for m in bases)))
    digits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    sys = validate_digit_system(bases, digits)
    a = Exponents(tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=rank - 1, max_size=rank - 1))))
    values = draw(
        st.one_of(
            st.none(),
            st.lists(st.floats(-3.0, 3.0), min_size=len(digits), max_size=len(digits)),
            st.lists(
                st.sampled_from([-700.0, -300.0, 0.0, 50.0]), min_size=len(digits), max_size=len(digits)
            ),
        )
    )
    potential = None
    if values is not None:
        potential = Potential(window=1, table={(d,): v for d, v in zip(sys.sorted_digits, values)})
    return sys, a, potential, draw(st.sampled_from([3, 60, 400]))


@settings(max_examples=25, deadline=None)
@given(_ascent_case())
def test_ascent_matches_reference_on_random_sponges(case):
    _assert_ascent_matches_reference(*case)
