"""`wtp check` tests the routes of the library against each other on the config it is given.

Core claims:
    - on random sponges (rank 2-4, potentials of window 0-2) and random
      graphs with no repeated label at a vertex, with n_max <= 6, every
      line passes, and each names one of the six claims
    - a line that does not apply is left out: a window-2 potential has no
      closed form, shift or witness line; a sofic chain has no witness
      line; an n_max of 1 has no pair for submultiplicativity
    - the two-vertex graph whose three edges all carry (0, 1) has one word
      of each length, and its closed form log(phi) counts paths: only
      `closed-form-below-fekete` fails, and `check` exits 3
    - the series takes the config's budget: past it, `check` exits 2, as
      `estimate` does
    - subnormal weights, which `kp_recursion` sums as they are, fail the
      shift and witness lines (a strict expected failure until the
      log-domain rescale lands)
"""
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.checks import run_all_checks
from wtp.cli import RunConfig, main
from wtp.defaults import DEFAULT_BUDGET
from wtp.sponge import Potential
from wtp.symbolic import LabeledGraph, SoficChain, SpongeChain, validate_digit_system
from wtp.weights import Exponents

from chain_tools import random_exponents, random_potential, random_sponge, window2_potential

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CLAIMS = {
    "submultiplicativity", "closed-form-below-fekete", "degenerate-collapses", "pressure-shift",
    "variational-witness", "weights-consistency",
}


def _config(chain, a, potential=None, n_max=6, budget=DEFAULT_BUDGET) -> RunConfig:
    return RunConfig(raw={}, chain=chain, exponents=a, potential=potential, n_max=n_max, budget=budget)


def _right_resolving_chain(rng, bases, nverts) -> SoficChain:
    """Distinct labels out of each vertex, the first edge to the next vertex,
    so a cycle runs through every vertex."""
    pool = list(itertools.product(*(range(m) for m in bases)))
    verts = [str(v) for v in range(nverts)]
    edges = set()
    for v in range(nverts):
        picked = rng.choice(len(pool), size=int(rng.integers(1, min(4, len(pool)) + 1)), replace=False)
        for k, i in enumerate(picked):
            target = (v + 1) % nverts if k == 0 else int(rng.integers(nverts))
            edges.add((verts[v], verts[target], pool[i]))
    sys = validate_digit_system(bases, sorted({lab for _s, _t, lab in edges}))
    return SoficChain(LabeledGraph(vertices=tuple(verts), edges=tuple(sorted(edges)), system=sys))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sofic=st.booleans(),
    window=st.integers(0, 2),
    n_max=st.integers(1, 6),
)
def test_every_line_passes_on_random_chains(seed, sofic, window, n_max):
    rng = np.random.default_rng(seed)
    if sofic:
        bases = ((2, 3), (2, 2, 3), (3, 3))[int(rng.integers(3))]
        chain = _right_resolving_chain(rng, bases, int(rng.integers(1, 4)))
    else:
        chain = SpongeChain(random_sponge(rng, max_rank=4, max_base=4, max_digits=8))
    potential = random_potential(rng, chain.system.sorted_digits, window)
    config = _config(chain, random_exponents(rng, chain.rank), potential, max(n_max, window))
    results = run_all_checks(config)
    assert {r.name for r in results} <= CLAIMS
    assert [r.line() for r in results if not r.passed] == []


def test_lines_that_do_not_apply_are_left_out(carpet_chain, carpet_exponents, golden):
    def names(config):
        return [r.name for r in run_all_checks(config)]

    window2 = window2_potential(carpet_chain.system)
    assert names(_config(carpet_chain, carpet_exponents, window2, n_max=4)) == [
        "submultiplicativity", "degenerate-collapses", "weights-consistency",
    ]
    assert "variational-witness" not in names(_config(golden, Exponents((0.5, 0.5)), n_max=3))
    assert "submultiplicativity" not in names(_config(carpet_chain, carpet_exponents, n_max=1))


def test_one_label_graph_fails_only_below_fekete(tmp_path, capsys):
    edges = [["0", "0", [0, 1]], ["0", "1", [0, 1]], ["1", "0", [0, 1]]]
    path = tmp_path / "one_label.json"
    system = {"sofic": {"bases": [2, 2], "vertices": ["0", "1"], "edges": edges}}
    path.write_text(json.dumps({"system": system, "exponents": "from-bases"}))
    assert main(["check", "--config", str(path)]) == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [row for row in checks if not row["passed"]]
    assert [row["name"] for row in failed] == ["closed-form-below-fekete"]
    assert "h_a_nats 0.48121182505960347 <= Fekete bound 0.0 " in failed[0]["detail"]


def test_budget_error_exits_2(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "golden_sofic.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({**doc, "estimator": {**doc["estimator"], "budget": 3**5}}))
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: enumeration needs {3**6} words, budget is {3**5}\n"


@pytest.mark.xfail(
    strict=True,
    reason="subnormal weights exp(-745) lose mantissa bits in kp_recursion: ROADMAP item 6, log-domain rescale",
)
def test_check_passes_on_subnormal_weights():
    sys = validate_digit_system((2, 2, 4), [(0, 1, 2), (1, 1, 1), (0, 0, 2)])
    a = Exponents((0.36385185214736804, 0.17253051169108824))
    f = Potential(window=1, table={(d,): -745.0 for d in sys.sorted_digits})
    results = run_all_checks(_config(SpongeChain(sys), a, f, n_max=12))
    assert [r.line() for r in results if not r.passed] == []
