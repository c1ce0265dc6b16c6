"""Bernoulli-measure side of the variational principle on full-shift sponges.

For a product measure the pushforward to level i is the Bernoulli measure of
the marginal on the length-(r-i+1) prefixes, so the weighted sum of
measure entropies is an explicit concave function of the symbol
distribution.  The maximizer is found two independent ways: in closed form
from the contraction tables, and by exponentiated-gradient ascent.

The ascent takes the constant step 1.  With M_i the map to the level-i
marginal, the objective's Bregman divergence is
sum_i w_i KL(M_i x || M_i y) <= KL(x || y), by the data-processing inequality
and sum_i w_i = 1, so the objective is 1-smooth relative to the entropy, and
1 = 1/L is the safe constant step of exponentiated gradient (Lu, Freund and
Nesterov, "Relatively smooth convex optimization by first-order methods",
SIAM J. Optim. 2018).  It stops once its best value is within the tolerance
of the closed form; a run of small gains stops it too, as a fallback.

Each level marginal is a grouped sum over the digits' prefix indices, so an
ascent iteration costs O(|D|) per level.  Its rounding differs from a dense
0/1 matrix product, so values may differ from such an evaluation in the
last bits.  An iterate's marginals are formed once (level 1 is the symbol
distribution itself) and serve both its objective and the gradient of the
next step; while every entry is at least TINY one `log` per level serves
both, which gives the same bits as taking them apart.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .defaults import MAX_ITERS, STALL_GAIN
from .errors import DidNotConverge, DistributionInvalid
from .sponge import Potential, kp_recursion
from .symbolic import Digit, DigitSystem, _int_tuple, _real
from .weights import Exponents, weights_from_exponents

PROB_TOL = 1e-12
STALL_SPAN = 50
OVERSHOOT_TOL = 1e-9
TINY = 1e-300  # the gradient takes log max(q, TINY)


@dataclass(frozen=True)
class SymbolDistribution:
    """Probability distribution on the digit set."""

    system: DigitSystem
    probs: dict

    def __post_init__(self):
        probs = self.probs
        values = probs.values()
        # whole lists first; the loop names the first bad entry
        if (
            {tuple}.issuperset(map(type, probs))
            and {int}.issuperset(map(type, itertools.chain.from_iterable(probs)))
            and {float}.issuperset(map(type, values))
            and all(map(math.isfinite, values))
            and self.system.digits.issuperset(probs)
            and min(values, default=0.0) >= -PROB_TOL
        ):
            clean = dict(probs)
        else:
            clean = {}
            for d, p in probs.items():
                key = _int_tuple(d, "digit", DistributionInvalid)
                if key not in self.system.digits:
                    raise DistributionInvalid(f"{key} is not a digit of the system")
                p = _real(p, f"probability for {key}", DistributionInvalid)
                if not math.isfinite(p):
                    raise DistributionInvalid(f"non-finite probability {p} for {key}")
                if p < -PROB_TOL:
                    raise DistributionInvalid(f"negative probability {p} for {key}")
                clean[key] = p
        total = sum(clean.values())
        if abs(total - 1.0) > PROB_TOL:
            raise DistributionInvalid(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", clean)

    def prob(self, digit: Digit) -> float:
        return self.probs.get(tuple(digit), 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.prob(d) for d in self.system.sorted_digits])


@dataclass(frozen=True)
class VariationalValue:
    """Objective value with its per-level entropy terms and the potential term."""

    value: float
    breakdown: tuple  # ((label, contribution), ...)


def _marginal_groups(sys: DigitSystem) -> list[tuple[np.ndarray, int]]:
    """Per level i, the index of each sorted digit's length-(r-i+1) prefix
    among that level's sorted prefixes, with the prefix count: the digit's
    own index at level 1, composed upward with the system's parent table.

    The level-i marginal of p is the grouped sum
    `np.bincount(group, weights=p, minlength=k)`, and pulling a per-prefix
    vector x back to the digits is the gather `x[group]`.
    """
    group = np.arange(len(sys.sorted_digits))
    groups = [(group, len(group))]
    for j in range(sys.rank, 1, -1):
        group = np.array(sys.parents(j), dtype=np.intp)[group]
        groups.append((group, len(sys.prefixes(j - 1))))
    return groups


def _entropy(q: np.ndarray) -> float:
    q = q[q > 0]
    return float(-np.sum(q * np.log(q)))


def _level_terms(p: np.ndarray, groups) -> list[tuple[float, np.ndarray]]:
    """Each level marginal of p formed once: its entropy, and the log the
    gradient takes of it (log max(q, TINY), 0 where q is 0).

    Level 1's prefixes are the digits, so its marginal is p itself.  When
    every entry is at least TINY, one `log` serves both; otherwise each takes
    its own expression, so the bits are those of taking them apart.
    """
    terms = []
    for level, (group, k) in enumerate(groups, start=1):
        q = p if level == 1 else np.bincount(group, weights=p, minlength=k)
        if q.min() >= TINY:
            logq = np.log(q)
            terms.append((float(-np.sum(q * logq)), logq))
        else:
            terms.append((_entropy(q), np.where(q > 0, np.log(np.maximum(q, TINY)), 0.0)))
    return terms


def _potential_vector(sys: DigitSystem, potential: Potential | None) -> np.ndarray:
    digits = sys.sorted_digits
    if potential is None:
        return np.zeros(len(digits))
    return np.array(potential.letter_values(digits), dtype=float)


def _value(w, entropies, potential_term: float) -> VariationalValue:
    """Per-level terms w_i H_i, then w_1 E[f], added left to right."""
    breakdown = []
    total = 0.0
    for i, h in enumerate(entropies, start=1):
        contribution = w[i - 1] * h
        breakdown.append((f"w{i}*H(level {i})", contribution))
        total += contribution
    breakdown.append(("w1*E[f]", potential_term))
    total += potential_term
    return VariationalValue(value=total, breakdown=tuple(breakdown))


def bernoulli_objective(
    sys: DigitSystem,
    a: Exponents,
    dist: SymbolDistribution,
    potential: Potential | None = None,
) -> VariationalValue:
    """sum_i w_i H(level-i marginal) + w_1 * E_p[f], entropies in nats."""
    w = weights_from_exponents(a)
    p = dist.as_array()
    fvec = _potential_vector(sys, potential)
    entropies = [h for h, _logq in _level_terms(p, _marginal_groups(sys))]
    return _value(w, entropies, w[0] * float(fvec @ p))


def optimal_measure_from_recursion(
    sys: DigitSystem,
    a: Exponents,
    potential: Potential | None = None,
) -> SymbolDistribution:
    """Maximizer built from the contraction tables by chained conditionals.

    Extending a prefix of length j to length j+1 has conditional probability
    proportional to Z_{j+1}(prefix + e) ** a_{r-j-1} (exponent 1 at the last
    step, where the potential weight enters).  The construction is accepted
    only because its objective reproduces log Z_0; that equality is asserted
    by the callers' tests rather than assumed.
    """
    tables = kp_recursion(sys, a, potential).tables
    r = sys.rank
    avals = a.values
    probs = {}
    for d in sys.sorted_digits:
        p = 1.0
        for j in range(r - 1):
            # prefix d[:j] extends to d[:j+1]
            exponent = avals[r - j - 2]  # a_{r-j-1}, 0-based storage
            p *= tables[j + 1][d[: j + 1]] ** exponent / tables[j][d[:j]]
        weight = potential.weight((d,)) if potential is not None else 1.0
        probs[d] = p * (weight / tables[r - 1][d[: r - 1]])
    return SymbolDistribution(system=sys, probs=probs)


def maximize_bernoulli(
    sys: DigitSystem,
    a: Exponents,
    potential: Potential | None = None,
    max_iters: int = MAX_ITERS,
    tolerance: float = STALL_GAIN,
    trace: list | None = None,
    closed_form: float | None = None,
) -> tuple[SymbolDistribution, VariationalValue]:
    """Exponentiated-gradient ascent on the simplex, uniform start.

    Constant step 1, which is 1/L for this objective (see the module
    docstring).  It stops as soon as the best value is within `tolerance` of
    the closed form log Z_0, and otherwise after 50 consecutive iterations
    whose gain is below `tolerance`.  Pass the closed form as `closed_form`
    when it is at hand; without it, `kp_recursion` computes it.  The returned
    value never exceeds log Z_0 by more than 1e-9 (that bound is an internal
    assertion, not a convergence failure); running out of iterations raises
    DidNotConverge with the best point found.  Pass `trace` to record the
    per-iteration objective values.

    The returned value is the evaluation stored with the best iterate, its
    terms added left to right, so it equals `bernoulli_objective` on the
    returned distribution bit for bit.
    """
    digits = sys.sorted_digits
    w = weights_from_exponents(a)
    groups = _marginal_groups(sys)
    fvec = _potential_vector(sys, potential)
    potential_slope = w[0] * fvec
    if closed_form is None:
        closed_form = kp_recursion(sys, a, potential).h_a_nats

    def evaluate(p: np.ndarray):
        """The objective at p, its terms for `_value`, and the per-level logs
        the gradient at p takes, from one pass over the level marginals."""
        terms = _level_terms(p, groups)
        entropies = [h for h, _logq in terms]
        potential_term = w[0] * float(fvec @ p)
        value = sum(w[i] * h for i, h in enumerate(entropies)) + potential_term
        return value, (entropies, potential_term), [logq for _h, logq in terms]

    def gradient(logs: list) -> np.ndarray:
        g = potential_slope.copy()
        for i, ((group, _k), logq) in enumerate(zip(groups, logs)):
            slope = -logq - 1.0
            g += w[i] * (slope if i == 0 else slope[group])  # level 1 is per digit
        return g

    p = np.full(len(digits), 1.0 / len(digits))
    best, best_terms, logs = evaluate(p)
    best_p = p
    if trace is not None:
        trace.append(best)
    stall = 0
    iters = 0
    while closed_form - best > tolerance and stall < STALL_SPAN:
        if iters == max_iters:
            dist = SymbolDistribution(system=sys, probs=dict(zip(digits, best_p.tolist())))
            raise DidNotConverge(
                f"no convergence in {max_iters} iterations", best_value=best, best_distribution=dist
            )
        iters += 1
        g = gradient(logs)
        q = p * np.exp(g - g.max())
        q = q / q.sum()
        value, terms, logs = evaluate(q)
        if trace is not None:
            trace.append(value)
        if value > closed_form + OVERSHOOT_TOL:
            raise AssertionError(
                f"objective {value} exceeds closed form {closed_form} beyond tolerance"
            )
        if value - best < tolerance:
            stall += 1
        else:
            stall = 0
        if value > best:
            best, best_terms, best_p = value, terms, q
        p = q
    dist = SymbolDistribution(system=sys, probs=dict(zip(digits, best_p.tolist())))
    return dist, _value(w, *best_terms)
