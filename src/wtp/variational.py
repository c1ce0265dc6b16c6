"""Bernoulli-measure side of the variational principle on full-shift sponges.

For a product measure the pushforward to level i is the Bernoulli measure of
the marginal on the length-(r-i+1) prefixes, so the weighted sum of
measure entropies is an explicit concave function of the symbol
distribution, `bernoulli_objective`.

Its maximizer is built in closed form: conditionals read off the contraction
tables of the sponge recursion, chained from the top level down, give the
Bernoulli measure of full weighted dimension (Kenyon and Peres, "Measures of
full dimension on affine-invariant sets", Ergodic Theory Dynam. Systems
1996).  The objective evaluated on that measure, apart from the recursion,
reaching log Z_0 proves the supremum attained; `wtp variational` reports
that value and its gap to log Z_0.

Each level marginal is a grouped sum over the digits' prefix indices, so an
evaluation costs O(|D|) per level: the adds run in digit order, those of
`numpy.bincount`.  Entropies and the potential term are correctly rounded
sums (`math.fsum`) of Python float terms, so the module runs without numpy.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from .errors import DistributionInvalid
from .sponge import ClosedForm, Potential, kp_recursion
from .symbolic import Digit, DigitSystem, _int_tuple, _real
from .weights import Exponents, weights_from_exponents

PROB_TOL = 1e-12


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

    def as_array(self) -> list[float]:
        """The probabilities in sorted digit order."""
        return list(map(self.probs.get, self.system.sorted_digits, itertools.repeat(0.0)))


@dataclass(frozen=True)
class VariationalValue:
    """Objective value with its per-level entropy terms and the potential term."""

    value: float
    breakdown: tuple  # ((label, contribution), ...)


def _marginal_groups(sys: DigitSystem) -> list[tuple[list[int], int]]:
    """Per level i, the index of each sorted digit's length-(r-i+1) prefix
    among that level's sorted prefixes, with the prefix count: the digit's
    own index at level 1, composed upward with the system's parent table.

    The level-i marginal of p is the grouped sum `_marginal(group, k, p)`.
    """
    group = list(range(len(sys.sorted_digits)))
    groups = [(group, len(group))]
    for j in range(sys.rank, 1, -1):
        parents = sys.parents(j)
        group = [parents[g] for g in group]
        groups.append((group, len(sys.prefixes(j - 1))))
    return groups


def _marginal(group: list[int], k: int, p: list[float]) -> list[float]:
    """q[group[i]] += p[i] in index order: `np.bincount(group, weights=p, minlength=k)`."""
    q = [0.0] * k
    for g, x in zip(group, p):
        q[g] += x
    return q


def _entropy(q: list[float]) -> float:
    return -math.fsum([x * math.log(x) for x in q if x > 0])


def _potential_vector(sys: DigitSystem, potential: Potential | None) -> list[float]:
    digits = sys.sorted_digits
    if potential is None:
        return [0.0] * len(digits)
    return potential.letter_values(digits)


def bernoulli_objective(
    sys: DigitSystem,
    a: Exponents,
    dist: SymbolDistribution,
    potential: Potential | None = None,
) -> VariationalValue:
    """sum_i w_i H(level-i marginal) + w_1 * E_p[f], entropies in nats,
    added left to right.  Level 1's prefixes are the digits, so its marginal
    is the symbol distribution itself."""
    w = weights_from_exponents(a)
    p = dist.as_array()
    breakdown = []
    total = 0.0
    for i, (group, k) in enumerate(_marginal_groups(sys), start=1):
        q = p if i == 1 else _marginal(group, k, p)
        contribution = w[i - 1] * _entropy(q)
        breakdown.append((f"w{i}*H(level {i})", contribution))
        total += contribution
    potential_term = w[0] * math.fsum(map(mul, _potential_vector(sys, potential), p))
    breakdown.append(("w1*E[f]", potential_term))
    total += potential_term
    return VariationalValue(value=total, breakdown=tuple(breakdown))


def optimal_measure_from_recursion(
    sys: DigitSystem,
    a: Exponents,
    potential: Potential | None = None,
    closed_form: ClosedForm | None = None,
) -> SymbolDistribution:
    """Maximizer built from the contraction tables by chained conditionals.

    Extending a length-(j-1) prefix x to a length-j prefix y has conditional
    probability Z_j(y) ** a_{r-j} / Z_{j-1}(x), and a digit e extends its
    length-(r-1) prefix x with probability exp f(e) / Z_{r-1}(x).  The tables
    are those of `closed_form`, the sponge `ClosedForm` of the same system,
    exponents and potential; without it, `kp_recursion` computes them.  Each
    level gathers its parents' values through the system's parent table, and
    every divide and multiply is one float operation per prefix.

    A prefix whose table value underflows to 0 gets probability 0, and its
    children, whose conditionals are 0 / 0, split its mass evenly.  That
    mass is positive only below an exponent 0, which leaves every finer level
    and the potential out of the objective, so any split is optimal.  The
    measure is accepted because its objective reproduces log Z_0; callers
    evaluate that rather than assume it.
    """
    if closed_form is None:
        closed_form = kp_recursion(sys, a, potential)
    r = sys.rank
    mass = [1.0]
    values = [closed_form.z0]  # table values of the length-(j-1) prefixes
    for j in range(1, r + 1):
        parents = sys.parents(j)
        # Python's pow and exp, as the contraction takes them: each share has
        # the bits of the term that was summed into its parent's table value
        if j < r:
            children = list(map(closed_form.tables[j].__getitem__, sys.prefixes(j)))
            share = list(map(pow, children, itertools.repeat(a.values[r - j - 1])))
        else:
            children, share = None, list(map(math.exp, _potential_vector(sys, potential)))
        sizes = [0] * len(values)
        for x in parents:
            sizes[x] += 1
        mass = [mass[x] * (s / values[x] if values[x] > 0 else 1.0 / sizes[x]) for x, s in zip(parents, share)]
        values = children
    return SymbolDistribution(system=sys, probs=dict(zip(sys.sorted_digits, mass)))
