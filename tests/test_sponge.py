"""Contraction tables, closed-form entropy/pressure, and dimensions.

Core claims:
    - the carpet contraction gives Z_1 = (2, 1) and Z_0 = 1 + 2^(log_3 2)
    - on random sponges `kp_recursion` and `closed_form` return the same
      result, and every table equals a brute-force prefix recursion
    - a Z_0 of 0 or inf is a ComputationError; every window-1 reader
      rejects a window-2 potential
    - exponent placement is pinned: a_1 acts closest to the digits
    - all-ones exponents telescope to |D|; top exponent zero collapses to |D_1|
    - pressure shifts by w_1 c under f -> f + c; block coding multiplies by m
    - carpet dimensions match the classical 1.349... and 1.369... values
    - box-counting at anisotropic scales reproduces the Minkowski formula
    - Hausdorff <= Minkowski on random systems
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.checks import random_sponge
from wtp.errors import ComputationError, ExponentLengthMismatch, WindowUnsupported
from wtp.estimator import nested_count
from wtp.sponge import (
    Potential,
    anisotropic_box_count,
    hausdorff_dimension,
    kp_recursion,
    m_fold_potential,
    closed_form,
    m_fold_system,
    minkowski_dimension,
)
from wtp.symbolic import SpongeChain, validate_digit_system
from wtp.variational import SymbolDistribution, bernoulli_objective
from wtp.weights import Exponents, exponents_from_bases, weights_from_exponents

L32 = math.log(2) / math.log(3)
CARPET_Z0 = 1.0 + 2.0**L32


def test_carpet_tables(carpet, carpet_exponents):
    table = kp_recursion(carpet, carpet_exponents)
    assert table.tables[1] == {(0,): 2.0, (1,): 1.0}
    assert table.z0 == pytest.approx(CARPET_Z0, abs=1e-15)


def test_exponent_placement_is_pinned():
    # rank 3, distinguishable exponents: the innermost sum is raised to a_1
    sys = validate_digit_system((2, 3, 4), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    a1, a2 = 0.3, 0.9
    z0 = kp_recursion(sys, Exponents((a1, a2))).z0
    assert z0 == pytest.approx((2.0**a1 + 1.0) ** a2 + 1.0, abs=1e-15)


def test_all_ones_gives_digit_count(rng):
    for _ in range(20):
        sys = random_sponge(rng)
        h = closed_form(SpongeChain(sys), Exponents((1.0,) * (sys.rank - 1))).h_a_nats
        assert h == pytest.approx(math.log(len(sys.digits)), abs=1e-12)


def test_zero_top_exponent_gives_bottom_alphabet(rng):
    for _ in range(20):
        sys = random_sponge(rng)
        vals = list(rng.uniform(0, 1, size=sys.rank - 1))
        vals[-1] = 0.0
        h = closed_form(SpongeChain(sys), Exponents(tuple(vals))).h_a_nats
        assert h == pytest.approx(math.log(len(sys.prefixes(1))), abs=1e-12)


def test_carpet_entropy(carpet, carpet_exponents):
    h = closed_form(SpongeChain(carpet), carpet_exponents).h_a_nats
    assert h == pytest.approx(math.log(CARPET_Z0), abs=1e-15)
    assert h == pytest.approx(0.93553, abs=1e-5)


def test_constant_potential_factors_through(carpet, carpet_exponents, rng):
    w1 = weights_from_exponents(carpet_exponents)[0]
    base = kp_recursion(carpet, carpet_exponents).z0
    for c in rng.normal(size=5):
        pot = Potential(window=1, table={(d,): float(c) for d in carpet.sorted_digits})
        z0 = kp_recursion(carpet, carpet_exponents, pot).z0
        assert z0 == pytest.approx(math.exp(float(c) * w1) * base, rel=1e-12)


def test_pressure_reduces_to_entropy_at_zero(carpet, carpet_exponents):
    zero = Potential(window=1, table={})
    assert closed_form(SpongeChain(carpet), carpet_exponents, zero).h_a_nats == pytest.approx(
        closed_form(SpongeChain(carpet), carpet_exponents).h_a_nats, abs=0
    )


def test_pressure_shift_identity(rng):
    for _ in range(30):
        sys = random_sponge(rng)
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
        w1 = weights_from_exponents(a)[0]
        f = Potential(window=1, table={(d,): float(rng.normal()) for d in sys.sorted_digits})
        c = float(rng.normal())
        shifted = Potential(window=1, table={k: v + c for k, v in f.table.items()})
        lhs = closed_form(SpongeChain(sys), a, shifted).h_a_nats
        rhs = closed_form(SpongeChain(sys), a, f).h_a_nats + w1 * c
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_carpet_pressure_against_estimator(carpet, carpet_exponents):
    f = Potential(window=1, table={((0, 0),): 1.0})
    closed = closed_form(SpongeChain(carpet), carpet_exponents, f).h_a_nats
    chain = SpongeChain(carpet)
    for n in range(1, 5):
        est = nested_count(chain, carpet_exponents, f, n=n).per_symbol
        assert est == pytest.approx(closed, abs=1e-12)


def test_window_two_rejected_in_closed_form(carpet, carpet_exponents):
    f = Potential(window=2, table={((0, 0), (0, 0)): 1.0})
    uniform = SymbolDistribution(system=carpet, probs={d: 1 / 3 for d in carpet.sorted_digits})
    message = "potentials wider than window 1 are estimator-only"
    with pytest.raises(WindowUnsupported, match=message):
        closed_form(SpongeChain(carpet), carpet_exponents, f)
    with pytest.raises(WindowUnsupported, match=message):
        bernoulli_objective(carpet, carpet_exponents, uniform, f)
    with pytest.raises(WindowUnsupported, match=message):
        m_fold_potential(carpet, f, 2)


def test_unrepresentable_z0_is_computation_error(unrepresentable_z0):
    sys, f, message = unrepresentable_z0
    a = exponents_from_bases(sys.bases)
    with pytest.raises(ComputationError, match=re.escape(message)):
        kp_recursion(sys, a, f)
    with pytest.raises(ComputationError, match=re.escape(message)):
        closed_form(SpongeChain(sys), a, f)


def _brute_force_tables(sys, a, potential) -> list[dict]:
    """Every prefix value by top-down recursion, summed in sorted order: a
    length-(r-1) prefix sums exp f over its digits, a shorter one sums its
    one-longer extensions raised to a_{r-j-1}."""
    r = sys.rank
    f = potential.table if potential is not None else {}

    def value(prefix):
        j = len(prefix)
        below = [d for d in sys.sorted_digits if d[:j] == prefix]
        if j == r - 1:
            return sum(math.exp(f.get((d,), 0.0)) for d in below)
        children = sorted({d[: j + 1] for d in below})
        return sum(value(c) ** a.values[r - j - 2] for c in children)

    return [{p: value(p) for p in sorted({d[:j] for d in sys.sorted_digits})} for j in range(r)]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    weighted=st.booleans(),
)
def test_sponge_routes_share_tables_with_brute_force(seed, exponents, weighted):
    rng = np.random.default_rng(seed)
    sys = random_sponge(rng, max_rank=4, max_base=6, max_digits=40)
    a = Exponents(tuple(exponents[: sys.rank - 1]))
    f = None
    if weighted:
        f = Potential(window=1, table={(d,): float(rng.normal()) for d in sys.sorted_digits if rng.random() < 0.8})
    recursion = kp_recursion(sys, a, f)
    routed = closed_form(SpongeChain(sys), a, f)
    assert (recursion.route, recursion.caveats) == ("sponge", ())
    assert repr(routed) == repr(recursion)
    assert routed.tables == recursion.tables == tuple(_brute_force_tables(sys, a, f))
    assert recursion.tables[0] == {(): recursion.z0}


def test_exponent_length_checked(carpet):
    with pytest.raises(ExponentLengthMismatch):
        kp_recursion(carpet, Exponents((0.5, 0.5)))


def test_carpet_hausdorff_dimension(carpet):
    dim = hausdorff_dimension(carpet)
    assert dim == pytest.approx(math.log2(1 + 2**L32), abs=1e-15)
    assert dim == pytest.approx(1.349, abs=1e-3)


def test_full_product_dimension_is_rank():
    for bases in ((2, 3, 4), (2, 2), (3, 5)):
        digits = list(itertools.product(*(range(m) for m in bases)))
        sys = validate_digit_system(bases, digits)
        assert hausdorff_dimension(sys) == pytest.approx(len(bases), abs=1e-12)
        assert minkowski_dimension(sys) == pytest.approx(len(bases), abs=1e-12)


def test_carpet_minkowski_dimension(carpet):
    dim = minkowski_dimension(carpet)
    assert dim == pytest.approx(1 + math.log(1.5) / math.log(3), abs=1e-15)
    assert dim == pytest.approx(1.369, abs=1e-3)


def test_box_count_identity_and_convergence(carpet):
    # exact combinatorial identity: count = |D|^{n_2} * |D_1|^{n_1 - n_2}
    for n in range(1, 7):
        n2 = int(math.floor(n * math.log(2) / math.log(3)))
        expected = 3**n2 * 2 ** (n - n2)
        assert anisotropic_box_count(carpet, n) == expected
    # the log-ratio approaches the formula within the floor-error bound
    n = 6
    ratio = math.log(anisotropic_box_count(carpet, n)) / (n * math.log(2))
    bound = math.log(3) / (n * math.log(2))
    assert abs(ratio - minkowski_dimension(carpet)) <= bound


def test_single_point_fibers_box_count():
    sys = validate_digit_system((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
    assert minkowski_dimension(sys) == pytest.approx(1.0, abs=1e-15)
    for n in range(1, 6):
        assert anisotropic_box_count(sys, n) == 2**n


def test_hausdorff_at_most_minkowski(rng):
    for _ in range(40):
        sys = random_sponge(rng)
        assert hausdorff_dimension(sys) <= minkowski_dimension(sys) + 1e-12


def test_entropy_monotone_in_each_exponent(rng):
    for _ in range(60):
        sys = random_sponge(rng)
        vals = list(rng.uniform(0, 1, size=sys.rank - 1))
        i = int(rng.integers(0, sys.rank - 1))
        low = closed_form(SpongeChain(sys), Exponents(tuple(vals))).h_a_nats
        vals[i] = float(rng.uniform(vals[i], 1.0))
        high = closed_form(SpongeChain(sys), Exponents(tuple(vals))).h_a_nats
        assert high >= low - 1e-12


def test_block_coding_multiplies_pressure(rng):
    for _ in range(8):
        sys = random_sponge(rng, max_rank=3, max_base=3, max_digits=4)
        a = Exponents(tuple(float(x) for x in rng.uniform(0, 1, size=sys.rank - 1)))
        f = Potential(window=1, table={(d,): float(rng.normal()) for d in sys.sorted_digits})
        value = closed_form(SpongeChain(sys), a, f).h_a_nats
        for m in (2, 3):
            folded = m_fold_system(sys, m)
            assert len(folded.digits) == len(sys.digits) ** m
            folded_value = closed_form(SpongeChain(folded), a, m_fold_potential(sys, f, m)).h_a_nats
            assert folded_value == pytest.approx(m * value, abs=1e-9)


def test_block_coding_keeps_base_derived_exponents():
    sys = validate_digit_system((2, 3, 4), [(0, 0, 0), (1, 1, 1), (0, 2, 3)])
    folded = m_fold_system(sys, 2)
    assert exponents_from_bases(folded.bases).values == pytest.approx(
        exponents_from_bases(sys.bases).values, abs=1e-15
    )


def test_random_sponge_dimension_cross_checked_by_estimator(rng):
    sys = validate_digit_system(
        (2, 3, 4), [(0, 0, 0), (0, 1, 2), (1, 0, 3), (1, 2, 1), (0, 2, 2)]
    )
    a = exponents_from_bases(sys.bases)
    chain = SpongeChain(sys)
    h = closed_form(chain, a).h_a_nats
    for n in (1, 3, 5):
        assert nested_count(chain, a, n=n).per_symbol == pytest.approx(h, abs=1e-10)
    assert hausdorff_dimension(sys) == pytest.approx(h / math.log(2), abs=1e-15)


def test_overflowing_weight_names_the_first_digit(carpet, carpet_exponents):
    f = Potential(window=1, table={((1, 1),): 800.0, ((0, 2),): 710.5, ((0, 0),): 1.0})
    # (0, 2) comes before (1, 1) in digit order
    message = "exp of potential value 710.5 for ((0, 2),) overflows a float"
    with pytest.raises(ComputationError, match=re.escape(message)):
        kp_recursion(carpet, carpet_exponents, f)
