"""The package root resolves its re-exports lazily; cold commands load only what they run.

Core claims:
    - `wtp` re-exports 37 names, each the very object its defining module
      holds, and lists them in `__all__` and `dir(wtp)`; an unknown name is
      an AttributeError
    - every submodule resolves as an attribute of `wtp` on first access
    - in a fresh interpreter, `import wtp`, `import wtp.cli` and the sponge
      `dimension` and `entropy` commands load no numpy and only the modules
      they run; `estimate`, `variational` and `check` still succeed
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
    "estimator": ["EstimateSeries", "NestedCount", "entropy_estimate", "nested_count", "submultiplicativity_check"],
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
        "SymbolDistribution", "VariationalValue", "bernoulli_objective", "maximize_bernoulli",
        "optimal_measure_from_recursion",
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
    assert len(NAMES) == len(set(NAMES)) == 37
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

import wtp
assert loaded() == ["wtp"], loaded()
import wtp.cli
after_cli = loaded()
for command in ("dimension", "entropy"):
    for name in ("carpet.json", "carpet_pressure.json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert wtp.cli.main([command, "--config", f"{sys.argv[1]}/{name}"]) == 0
        assert json.loads(out.getvalue())["closed_form"]["hausdorff_dimension"] > 0
print(json.dumps({"numpy": "numpy" in sys.modules, "after_cli": after_cli, "after_sponge": loaded()}))
assert "wtp.estimator" not in sys.modules
assert wtp.estimator.entropy_estimate is wtp.entropy_estimate
for command, name in (("estimate", "carpet.json"), ("variational", "carpet_pressure.json"), ("check", "carpet.json")):
    with contextlib.redirect_stdout(io.StringIO()):
        assert wtp.cli.main([command, "--config", f"{sys.argv[1]}/{name}"]) == 0, command
"""


def test_sponge_closed_forms_load_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD, CONFIG_DIR], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["numpy"] is False
    expected = ["wtp", "wtp.cli", "wtp.defaults", "wtp.errors", "wtp.sponge", "wtp.symbolic", "wtp.weights"]
    assert result["after_cli"] == result["after_sponge"] == expected
