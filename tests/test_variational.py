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
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.checks import random_sponge
from wtp.errors import DidNotConverge, DistributionInvalid
from wtp.sponge import Potential, kp_recursion
from wtp.symbolic import validate_digit_system
from wtp.variational import (
    SymbolDistribution,
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
