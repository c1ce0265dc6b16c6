"""Exponent vectors a, the derived probability vector w_a, and base-derived exponents.

All logarithms are natural; dimension ratios are base independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BasesNotSorted, ExponentLengthMismatch, ExponentOutOfRange

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Exponents:
    """Vector a = (a_1, ..., a_{r-1}) with every a_i in [0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self):
        for x in self.values:
            if not (0.0 <= x <= 1.0):
                raise ExponentOutOfRange(f"exponent {x} outside [0, 1]")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def check_exponents(a: Exponents, rank: int) -> tuple[float, ...]:
    """a's values, once a holds one exponent per map between the rank levels."""
    if len(a) != rank - 1:
        raise ExponentLengthMismatch(f"need {rank - 1} exponents, got {len(a)}")
    return a.values


@dataclass(frozen=True)
class WeightVector:
    """Probability vector w = (w_1, ..., w_r), with w_1 = a_1 * ... * a_{r-1}."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(x < -_SUM_TOL for x in self.values):
            raise ExponentOutOfRange(f"negative weight in {self.values}")
        if abs(sum(self.values) - 1.0) > _SUM_TOL:
            raise ExponentOutOfRange(f"weights {self.values} do not sum to 1")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def weights_from_exponents(a: Exponents) -> WeightVector:
    """w_1 = a_1...a_{r-1}; w_i = (1-a_{i-1}) a_i...a_{r-1} for 1 < i < r; w_r = 1-a_{r-1}."""
    vals = a.values
    r = len(vals) + 1
    w = []
    for i in range(1, r + 1):
        tail = math.prod(vals[i - 1:])
        if i == 1:
            w.append(tail)
        else:
            w.append((1.0 - vals[i - 2]) * tail)
    return WeightVector(tuple(w))


def exponents_from_bases(bases) -> Exponents:
    """a_i = log m_{r-i} / log m_{r-i+1}; equal adjacent bases give exactly 1."""
    bases = tuple(bases)
    if any(bases[i] > bases[i + 1] for i in range(len(bases) - 1)):
        raise BasesNotSorted(f"bases {bases} not nondecreasing")
    r = len(bases)
    vals = []
    for i in range(1, r):
        lo, hi = bases[r - i - 1], bases[r - i]
        vals.append(1.0 if lo == hi else math.log(lo) / math.log(hi))
    return Exponents(tuple(vals))


def bowen_weights_from_bases(bases) -> WeightVector:
    """w = (log m_1/log m_r, log m_1/log m_{r-1} - log m_1/log m_r, ..., 1 - log m_1/log m_2).

    Agrees with weights_from_exponents(exponents_from_bases(bases)); kept as an
    independent formula so the two routes can be checked against each other.
    """
    bases = tuple(bases)
    if any(bases[i] > bases[i + 1] for i in range(len(bases) - 1)):
        raise BasesNotSorted(f"bases {bases} not nondecreasing")
    r = len(bases)
    log1 = math.log(bases[0])
    ratios = [log1 / math.log(m) for m in bases]  # log m_1 / log m_i
    w = [ratios[r - 1]]
    for i in range(2, r):
        w.append(ratios[r - i] - ratios[r - i + 1])
    if r >= 2:
        w.append(1.0 - ratios[1])
    return WeightVector(tuple(w))
