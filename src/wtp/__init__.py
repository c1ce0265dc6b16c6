"""Weighted topological entropy and pressure of chains of symbolic systems.

Closed forms for full-shift sponge chains and eigenvector-aligned sofic
chains, exact finite-N nested cylinder counts with Fekete upper bounds for
general chains, and a numerical certification of the variational principle
over Bernoulli measures.
"""

__version__ = "0.1.0"

from .errors import WtpError, ValidationError, ComputationError
from .estimator import EstimateSeries, NestedCount, entropy_estimate, nested_count, submultiplicativity_check
from .sofic import (
    CountMatrix,
    SpectralAlignment,
    build_count_matrices,
    detect_alignment,
    golden_mean_chain,
    sofic_dimension_report,
    sofic_weighted_entropy_closed_form,
)
from .sponge import (
    Potential,
    ZTable,
    hausdorff_dimension,
    kp_recursion,
    minkowski_dimension,
    weighted_entropy_closed_form,
    weighted_pressure_closed_form,
)
from .symbolic import (
    DigitSystem,
    FollowerAutomaton,
    LabeledGraph,
    SoficChain,
    SpongeChain,
    Word,
    check_right_resolving,
    determinize,
    preimage_count,
    validate_digit_system,
)
from .variational import (
    SymbolDistribution,
    VariationalValue,
    bernoulli_objective,
    maximize_bernoulli,
    optimal_measure_from_recursion,
)
from .weights import (
    Exponents,
    WeightVector,
    bowen_weights_from_bases,
    exponents_from_bases,
    weights_from_exponents,
)
