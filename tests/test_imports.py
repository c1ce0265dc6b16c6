"""The package root resolves its re-exports lazily; cold commands load only what they run.

Core claims:
    - `wtp` re-exports 35 names, each the very object its defining module
      holds, and lists them in `__all__` and `dir(wtp)`; an unknown name is
      an AttributeError
    - every submodule resolves as an attribute of `wtp` on first access
    - in a fresh interpreter, `import wtp`, `import wtp.cli` and all five
      commands on both sponge configs load no numpy and only the modules
      they run; the golden `estimate` loads `wtp.enumeration`
    - `wtp.estimator`, `wtp.variational` and `wtp.checks` import without numpy
"""
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import wtp

# the re-exports of the package root, by defining module
REEXPORTS = {
    "errors": ["WtpError", "ValidationError", "ComputationError"],
    "estimator": ["EstimateSeries", "NestedCount", "entropy_estimate", "nested_count"],
    "sofic": [
        "SpectralAlignment", "build_count_matrices", "detect_alignment", "golden_mean_chain",
    ],
    "sponge": [
        "ClosedForm", "Potential", "closed_form", "hausdorff_dimension", "kp_recursion",
        "minkowski_dimension",
    ],
    "symbolic": [
        "DigitSystem", "FollowerAutomaton", "LabeledGraph", "SoficChain", "SpongeChain",
        "check_right_resolving", "determinize", "preimage_count", "validate_digit_system",
    ],
    "variational": [
        "SymbolDistribution", "VariationalValue", "bernoulli_objective", "optimal_measure_from_recursion",
    ],
    "weights": [
        "Exponents", "WeightVector", "bowen_weights_from_bases", "exponents_from_bases",
        "weights_from_exponents",
    ],
}
NAMES = [name for names in REEXPORTS.values() for name in names]
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(wtp.__path__))

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_reexports_are_the_defining_modules_objects():
    assert len(NAMES) == len(set(NAMES)) == 35
    for module, names in REEXPORTS.items():
        defining = importlib.import_module(f"wtp.{module}")
        for name in names:
            assert getattr(wtp, name) is getattr(defining, name), name


def test_all_and_dir_list_the_reexports():
    assert sorted(wtp.__all__) == sorted(NAMES)
    listed = dir(wtp)
    assert set(NAMES) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed
    ns = {}
    exec("from wtp import *", ns)
    assert set(NAMES) <= ns.keys()


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wtp.no_such_name  # noqa: B018
    assert not hasattr(wtp, "nested_counts")


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_resolve_as_attributes(module):
    assert getattr(wtp, module) is importlib.import_module(f"wtp.{module}")


COLD = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "wtp" or m.startswith("wtp."))

def report(command, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert wtp.cli.main([command, "--config", f"{sys.argv[1]}/{name}"]) == 0, (command, name)
    return json.loads(out.getvalue())

import wtp
assert loaded() == ["wtp"], loaded()
import wtp.cli
after = {"cli": loaded()}
for command in ("dimension", "entropy", "estimate", "variational", "check"):
    for name in ("carpet.json", "carpet_pressure.json"):
        result = report(command, name)
        assert result["command"] == command and result["warnings"] == [], (command, name)
        if command in ("dimension", "entropy"):
            assert result["closed_form"]["hausdorff_dimension"] > 0, (command, name)
    after[command] = loaded()
after["numpy"] = "numpy" in sys.modules
assert report("estimate", "golden_sofic.json")["estimate_series"]
after["golden estimate"] = loaded()
print(json.dumps(after))
"""

SPONGE = ["wtp", "wtp.cli", "wtp.defaults", "wtp.errors", "wtp.sponge", "wtp.symbolic", "wtp.weights"]


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_sponge_commands_load_no_numpy():
    """Each sponge command, in the order a fresh interpreter runs them, adds
    exactly its own modules; none loads numpy, `wtp.sofic` or `wtp.enumeration`."""
    after = _run("-c", COLD, CONFIG_DIR)
    assert after["numpy"] is False
    assert after["cli"] == after["dimension"] == after["entropy"] == SPONGE
    assert after["estimate"] == sorted(SPONGE + ["wtp.estimator"])
    assert after["variational"] == sorted(SPONGE + ["wtp.estimator", "wtp.variational"])
    assert after["check"] == sorted(SPONGE + ["wtp.checks", "wtp.estimator", "wtp.variational"])
    # the golden chain's bottom DP has several states: it is enumerated
    assert after["golden estimate"] == sorted(after["check"] + ["wtp.enumeration", "wtp.sofic"])


def test_numeric_sponge_modules_import_without_numpy():
    imported = _run("-c", "import json, sys, wtp.estimator, wtp.variational, wtp.checks; "
                          "print(json.dumps(sorted(m for m in ('numpy', 'wtp.sofic', 'wtp.enumeration') "
                          "if m in sys.modules)))")
    assert imported == []
