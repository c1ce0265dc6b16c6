"""Bernoulli-measure side of the variational principle on full-shift sponges.

For a product measure the pushforward to level i is the Bernoulli measure of
the marginal on the length-(r-i+1) prefixes, so the weighted sum of
measure entropies is an explicit concave function of the symbol
distribution.  The maximizer is found two independent ways: in closed form
from the contraction tables, and by exponentiated-gradient ascent.

Each level marginal is a grouped sum over the digits' prefix indices, so an
ascent iteration costs O(|D|) per level.  Its rounding differs from a dense
0/1 matrix product, so values may differ from such an evaluation in the
last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import MAX_ITERS, STALL_GAIN
from .errors import DidNotConverge, DistributionInvalid, WindowUnsupported
from .sponge import Potential, kp_recursion
from .symbolic import Digit, DigitSystem
from .weights import Exponents, weights_from_exponents

PROB_TOL = 1e-12
STALL_SPAN = 50
OVERSHOOT_TOL = 1e-9


@dataclass(frozen=True)
class SymbolDistribution:
    """Probability distribution on the digit set."""

    system: DigitSystem
    probs: dict

    def __post_init__(self):
        clean = {}
        for d, p in self.probs.items():
            key = tuple(int(c) for c in d)
            if key not in self.system.digits:
                raise DistributionInvalid(f"{key} is not a digit of the system")
            if p < -PROB_TOL:
                raise DistributionInvalid(f"negative probability {p} for {key}")
            clean[key] = float(p)
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
    among that level's sorted prefixes, with the prefix count.

    The level-i marginal of p is the grouped sum
    `np.bincount(group, weights=p, minlength=k)`, and pulling a per-prefix
    vector x back to the digits is the gather `x[group]`.
    """
    digits = sys.sorted_digits
    groups = []
    for level in range(1, sys.rank + 1):
        j = sys.rank - level + 1
        pos = {x: k for k, x in enumerate(sys.prefixes(j))}
        group = np.fromiter((pos[d[:j]] for d in digits), dtype=np.intp, count=len(digits))
        groups.append((group, len(pos)))
    return groups


def _marginal(p: np.ndarray, group: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(group, weights=p, minlength=k)


def _entropy(q: np.ndarray) -> float:
    q = q[q > 0]
    return float(-np.sum(q * np.log(q)))


def _potential_vector(sys: DigitSystem, potential: Potential | None) -> np.ndarray:
    if potential is None:
        return np.zeros(len(sys.sorted_digits))
    if potential.window != 1:
        raise WindowUnsupported("Bernoulli objective takes window-1 potentials")
    return np.array([potential.value((d,)) for d in sys.sorted_digits])


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
    breakdown = []
    total = 0.0
    for i, (group, k) in enumerate(_marginal_groups(sys), start=1):
        contribution = w[i - 1] * _entropy(_marginal(p, group, k))
        breakdown.append((f"w{i}*H(level {i})", contribution))
        total += contribution
    potential_term = w[0] * float(fvec @ p)
    breakdown.append(("w1*E[f]", potential_term))
    total += potential_term
    return VariationalValue(value=total, breakdown=tuple(breakdown))


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
    table = kp_recursion(sys, a, potential)
    r = sys.rank
    avals = a.values
    probs = {}
    for d in sys.sorted_digits:
        p = 1.0
        for j in range(r):
            # prefix d[:j] extends to d[:j+1]
            parent = table.levels[j][d[:j]]
            child = table.levels[j + 1][d[: j + 1]]
            if j + 1 < r:
                exponent = avals[r - j - 2]  # a_{r-j-1}, 0-based storage
                p *= child**exponent / parent
            else:
                weight = potential.weight((d,)) if potential is not None else 1.0
                p *= weight * child / parent
        probs[d] = p
    return SymbolDistribution(system=sys, probs=probs)


def maximize_bernoulli(
    sys: DigitSystem,
    a: Exponents,
    potential: Potential | None = None,
    max_iters: int = MAX_ITERS,
    tolerance: float = STALL_GAIN,
    trace: list | None = None,
) -> tuple[SymbolDistribution, VariationalValue]:
    """Exponentiated-gradient ascent on the simplex, uniform start.

    Step size 0.5 / (1 + t/100); stops after 50 consecutive iterations whose
    gain is below `tolerance`.  The returned value never exceeds log Z_0 by
    more than 1e-9 (that bound is an internal assertion, not a convergence
    failure); running out of iterations raises DidNotConverge with the best
    point found.  Pass `trace` to record the per-iteration objective values.
    """
    digits = sys.sorted_digits
    w = weights_from_exponents(a)
    groups = _marginal_groups(sys)
    fvec = _potential_vector(sys, potential)
    closed_form = math.log(kp_recursion(sys, a, potential).z0)

    def objective(p: np.ndarray) -> float:
        total = sum(w[i] * _entropy(_marginal(p, group, k)) for i, (group, k) in enumerate(groups))
        return total + w[0] * float(fvec @ p)

    def gradient(p: np.ndarray) -> np.ndarray:
        g = w[0] * fvec.copy()
        for i, (group, k) in enumerate(groups):
            q = _marginal(p, group, k)
            logq = np.where(q > 0, np.log(np.maximum(q, 1e-300)), 0.0)
            g += w[i] * (-logq - 1.0)[group]
        return g

    p = np.full(len(digits), 1.0 / len(digits))
    best_p = p.copy()
    best = objective(p)
    if trace is not None:
        trace.append(best)
    stall = 0
    for it in range(max_iters):
        g = gradient(p)
        eta = 0.5 / (1.0 + it / 100.0)
        q = p * np.exp(eta * (g - g.max()))
        q = q / q.sum()
        value = objective(q)
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
            best = value
            best_p = q.copy()
        p = q
        if stall >= STALL_SPAN:
            break
    else:
        raise DidNotConverge(
            f"no convergence in {max_iters} iterations",
            best_value=best,
            best_distribution=SymbolDistribution(
                system=sys, probs={d: float(x) for d, x in zip(digits, best_p)}
            ),
        )
    dist = SymbolDistribution(system=sys, probs={d: float(x) for d, x in zip(digits, best_p)})
    return dist, bernoulli_objective(sys, a, dist, potential)
