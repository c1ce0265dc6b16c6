import numpy as np
import pytest

from wtp.sofic import golden_mean_chain
from wtp.sponge import Potential
from wtp.symbolic import SpongeChain, validate_digit_system
from wtp.weights import exponents_from_bases


@pytest.fixture
def carpet():
    return validate_digit_system((2, 3), [(0, 0), (1, 1), (0, 2)])


@pytest.fixture
def carpet_chain(carpet):
    return SpongeChain(carpet)


@pytest.fixture
def carpet_exponents(carpet):
    return exponents_from_bases(carpet.bases)


@pytest.fixture
def golden():
    return golden_mean_chain()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=["underflow", "overflow"])
def unrepresentable_z0(request):
    """A sponge, a window-1 potential whose Z_0 is 0.0 or inf in floats, and
    the error text: each carpet weight exp(-1e4) is 0.0; each weight exp(709)
    of a three-digit column is finite, but their prefix sum is not."""
    if request.param == "underflow":
        sys = validate_digit_system((2, 3), [(0, 0), (1, 1), (0, 2)])
        value, z0 = -1e4, "0.0"
    else:
        sys = validate_digit_system((2, 3), [(0, 0), (0, 1), (0, 2)])
        value, z0 = 709.0, "inf"
    f = Potential(window=1, table={(d,): value for d in sys.sorted_digits})
    return sys, f, f"Z_0 is {z0}: the weights {request.param} a float"
