"""Weighted topological entropy and pressure of chains of symbolic systems.

One closed form (`closed_form`) for full-shift sponge chains and
eigenvector-aligned sofic chains, exact finite-N nested cylinder counts
with Fekete upper bounds for general chains, and a numerical certification
of the variational principle over Bernoulli measures.

The names below and the submodules are imported on first access (PEP 562),
so `import wtp` loads neither numpy nor a module it does not use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("WtpError", "ValidationError", "ComputationError"),
    "estimator": (
        "EstimateSeries",
        "NestedCount",
        "entropy_estimate",
        "nested_count",
        "submultiplicativity_check",
    ),
    "sofic": (
        "SpectralAlignment",
        "build_count_matrices",
        "detect_alignment",
        "golden_mean_chain",
    ),
    "sponge": (
        "ClosedForm",
        "Potential",
        "closed_form",
        "hausdorff_dimension",
        "kp_recursion",
        "minkowski_dimension",
    ),
    "symbolic": (
        "DigitSystem",
        "FollowerAutomaton",
        "LabeledGraph",
        "SoficChain",
        "SpongeChain",
        "check_right_resolving",
        "determinize",
        "preimage_count",
        "validate_digit_system",
    ),
    "variational": (
        "SymbolDistribution",
        "VariationalValue",
        "bernoulli_objective",
        "maximize_bernoulli",
        "optimal_measure_from_recursion",
    ),
    "weights": (
        "Exponents",
        "WeightVector",
        "bowen_weights_from_bases",
        "exponents_from_bases",
        "weights_from_exponents",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"checks", "cli", "defaults"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
