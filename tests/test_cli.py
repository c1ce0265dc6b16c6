"""Config parsing, command dispatch, report round-trips, and exit codes.

Core claims:
    - the carpet and sofic configs parse; malformed ones, an n_max < 1
      and a NaN or infinite number included, raise with a path; so does a key that parse_config does not
      read, at every object level (an optimizer section among them), and a
      potential entry that cannot apply: a letter outside the digit set, a
      window given twice, or a word whose length is not the window (exact
      stderr), and a window below 1
    - every setting is a config key: a malformed command line, an unknown
      flag or command or the removed --n-max, exits 1 with the usage text
    - dimension/entropy/estimate/variational reports carry the documented
      fields and warnings
    - re-running on a report's echoed config reproduces the JSON bit for bit
    - exit codes: 0 ok, 1 validation, 2 computation, 3 failed invariants;
      a chain with no admissible word of length N, weights that all
      underflow to 0 (said so, not called inadmissible), an S_N that overflows
      (also inside one transfer-matrix cell), a sponge Z_0 of 0 or inf, or
      a word count past float range on a multi-state bottom exits 2, not
      with a traceback or Infinity, and stderr holds only the error line;
      on a sponge, where S_N = S_1^N, weights and counts past float range
      give finite rows equal to log S_1 of an in-test oracle; an estimate whose
      n_max is past the budget exits 2 before it counts any N; a reader
      that closes stdout early gets one error line and exit 1; a one-state
      estimate is charged the words of S_1 alone, so the carpet runs to N = 60
    - `check` passes its config to the suite and exits 3 when a line fails;
      on each shipped config every line passes and names its claim
    - a one-letter estimate to N = 2000 on a multi-state bottom, which the
      budget does not stop, finishes within 5 s
    - a sofic closed form on a presentation that is not right-resolving
      carries a caveat that it counts paths; a right-resolving one does not
    - a sponge's dimensions are reported under a window-2 potential; a
      sofic `dimension` under any potential, or on unaligned count
      matrices, exits 2 with one "closed form unavailable" line
    - a window-2 config is estimated from N = 2
    - `variational` builds its maximizer from its closed form's tables, so it
      contracts the digit table once for it; its value is the objective on
      that maximizer, also where a prefix's weights underflow to 0
    - numeric report fields reproduce pinned values bit for bit
"""
import itertools
import json
import math
import os
import subprocess
import sys
import time

import pytest

from wtp import enumeration, sponge, variational
from wtp.cli import main, parse_config, run
from wtp.errors import DigitOutOfRange, ParseError, UnsupportedCombination
from wtp.sofic import golden_mean_chain

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _carpet_config():
    return {
        "system": {"sponge": {"bases": [2, 3], "digits": [[0, 0], [1, 1], [0, 2]]}},
        "exponents": "from-bases",
    }


def _golden_config():
    chain = golden_mean_chain()
    return {
        "system": {
            "sofic": {
                "bases": [2, 3, 4],
                "vertices": list(chain.graph.vertices),
                "edges": [[s, t, list(lab)] for s, t, lab in chain.graph.edges],
            }
        },
        "exponents": "from-bases",
    }


def test_carpet_config_parses():
    config = parse_config(_carpet_config())
    assert config.chain.rank == 2
    assert config.n_max == 12
    assert config.budget == 10**7


def test_golden_config_parses():
    config = parse_config(_golden_config())
    assert config.chain.rank == 3
    assert len(config.chain.graph.edges) == 26


def test_shipped_configs_parse():
    for name in ("carpet.json", "golden_sofic.json", "carpet_pressure.json"):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            parse_config(fh.read())


def test_exponent_length_validated():
    doc = _carpet_config()
    doc["exponents"] = [0.5, 0.5]
    with pytest.raises(ParseError):
        parse_config(doc)


def test_two_system_variants_rejected():
    doc = _carpet_config()
    doc["system"]["sofic"] = {}
    with pytest.raises(ParseError):
        parse_config(doc)


@pytest.mark.parametrize("section", [None, {}, {"max_iters": 100000, "tolerance": 1e-12}])
def test_optimizer_section_rejected(section):
    doc = _carpet_config()
    doc["optimizer"] = section
    with pytest.raises(ParseError, match="expected only the keys system, exponents, potential, estimator") as info:
        parse_config(doc)
    assert info.value.path == "$.optimizer"


def test_invalid_json_rejected():
    with pytest.raises(ParseError):
        parse_config("{not json")


@pytest.mark.parametrize(
    "text",
    [
        '{"system": ' + "1" * 5000 + "}",  # past the int str-digits limit
        "[" * 100_000,  # nesting too deep to decode
        b"\xff\xfe{",  # not UTF-8
    ],
    ids=["huge-int", "deep-nesting", "bad-utf8"],
)
def test_undecodable_config_is_parse_error(text):
    # json.loads raises ValueError or RecursionError here, not JSONDecodeError
    with pytest.raises(ParseError) as info:
        parse_config(text)
    assert info.value.path == "$"


def test_sofic_digit_set_comes_from_edge_labels():
    doc = {
        "system": {
            "sofic": {
                "bases": [100, 100, 100, 100],
                "vertices": ["a", "b"],
                "edges": [["a", "b", [1, 2, 3, 4]], ["b", "a", [99, 0, 0, 7]], ["b", "b", [1, 2, 3, 5]]],
            }
        }
    }
    start = time.perf_counter()
    config = parse_config(doc)
    # the product of the bases would be 10^8 digits
    assert time.perf_counter() - start < 1.0
    assert config.chain.system.digits == {(1, 2, 3, 4), (99, 0, 0, 7), (1, 2, 3, 5)}
    doc["system"]["sofic"]["edges"].append(["a", "a", [100, 0, 0, 0]])
    with pytest.raises(DigitOutOfRange):
        parse_config(doc)


def _setter(*keys, value):
    def mutate(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "path, make, mutate",
    [
        ("$.estimator.n_max", _carpet_config, _setter("estimator", value={"n_max": "many"})),
        ("$.estimator.budget", _carpet_config, _setter("estimator", value={"budget": "lots"})),
        ("$.estimator", _carpet_config, _setter("estimator", value=[])),
        ("$.exponents[0]", _carpet_config, _setter("exponents", value=["x"])),
        ("$.system.sponge.digits[0][1]", _carpet_config, _setter("system", "sponge", "digits", 0, 1, value="x")),
        ("$.system.sponge.bases[0]", _carpet_config, _setter("system", "sponge", "bases", 0, value=2.5)),
        ("$.system.sofic.bases[0]", _golden_config, _setter("system", "sofic", "bases", 0, value="x")),
        ("$.system.sofic.edges[0][2][1]", _golden_config, _setter("system", "sofic", "edges", 0, 2, 1, value="x")),
        ("$.potential.window", _carpet_config, _setter("potential", value={"window": "one", "table": []})),
        ("$.potential.table[0][1]", _carpet_config, _setter("potential", value={"window": 1, "table": [[[[0, 0]], "x"]]})),
        (
            "$.potential.table[0][0][0][1]",
            _carpet_config,
            _setter("potential", value={"window": 1, "table": [[[[0, "x"]], 1.0]]}),
        ),
        # whole lists are checked at once; the path still names the first bad value
        ("$.system.sponge.digits[2][0]", _carpet_config, _setter("system", "sponge", "digits", 2, 0, value=0.0)),
        (
            "$.potential.table[1][0][0][1]",
            _carpet_config,
            _setter("potential", value={"window": 1, "table": [[[[0, 0]], 1.0], [[[1, True]], 2.0]]}),
        ),
        # a key parse_config does not read, at each object level: the echoed
        # config would carry a setting that changed nothing
        ("$.potentail", _carpet_config, _setter("potentail", value={"window": 1, "table": []})),
        ("$.optimizer", _carpet_config, _setter("optimizer", value={"max_iters": 100000})),
        ("$.system.spnge", _carpet_config, _setter("system", "spnge", value={})),
        ("$.system.sponge.vertices", _carpet_config, _setter("system", "sponge", "vertices", value=["a"])),
        ("$.system.sofic.digits", _golden_config, _setter("system", "sofic", "digits", value=[[0, 0, 0]])),
        ("$.potential.windw", _carpet_config, _setter("potential", value={"windw": 2, "window": 1, "table": []})),
        ("$.estimator.nmax", _carpet_config, _setter("estimator", value={"nmax": 3})),
        # potential entries that could never apply: a letter outside the
        # digit set (for a sofic chain, its edge labels) or a window given twice
        ("$.potential.table[0][0][0]", _carpet_config, _setter("potential", value={"window": 1, "table": [[[[9, 9]], 5.0]]})),
        (
            "$.potential.table[1][0][2]",
            _carpet_config,
            _setter("potential", value={"window": 3, "table": [[[[0, 0]] * 3, 1.0], [[[0, 0], [1, 1], [0, 0, 0]], 5.0]]}),
        ),
        ("$.potential.table[0][0][0]", _golden_config, _setter("potential", value={"window": 1, "table": [[[[1, 2, 3]], 1.0]]})),
        (
            "$.potential.table[2][0]",
            _carpet_config,
            _setter("potential", value={"window": 1, "table": [[[[0, 0]], 5.0], [[[1, 1]], 1.0], [[[0, 0]], 0.0]]}),
        ),
        (
            "$.potential.table[1][0]",
            _carpet_config,
            _setter("potential", value={"window": 2, "table": [[[[0, 0], [1, 1]], 5.0], [[[0, 0], [1, 1]], 1]]}),
        ),
        ("$.potential.window", _carpet_config, _setter("potential", value={"window": 0, "table": []})),
        # non-finite numbers, which json reads from NaN and Infinity literals
        pytest.param(
            "$.potential.table[1][1]",
            _carpet_config,
            _setter("potential", value={"window": 1, "table": [[[[0, 0]], 1.0], [[[1, 1]], math.nan]]}),
            id="nan-potential-value",
        ),
        pytest.param("$.exponents[0]", _carpet_config, _setter("exponents", value=[math.inf]), id="infinite-exponent"),
        # settings that cannot work: no word
        *(
            pytest.param(path, _carpet_config, _setter("estimator", value=value), id=f"{path}={value}")
            for path, value in [
                ("$.estimator.budget", {"budget": -1}),
                ("$.estimator.n_max", {"n_max": 0}),
                ("$.estimator.n_max", {"n_max": -3}),
            ]
        ),
    ],
)
def test_untyped_field_is_parse_error(tmp_path, capsys, path, make, mutate):
    doc = make()
    mutate(doc)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    assert main(["dimension", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: expected ")


@pytest.mark.parametrize(
    "potential, err",
    [
        ({"window": 1, "table": [[[[0, 0], [1, 1]], 5.0]]},
         "error: $.potential.table[0][0]: expected a word of length 1 (the window), got [[0, 0], [1, 1]]\n"),
        ({"window": 2, "table": [[[[0, 0], [1, 1]], 1.0], [[[0, 0]], 5.0]]},
         "error: $.potential.table[1][0]: expected a word of length 2 (the window), got [[0, 0]]\n"),
    ],
    ids=["two-letters-window-1", "one-letter-window-2"],
)
def test_potential_word_off_the_window_names_its_path(tmp_path, capsys, potential, err):
    # exit 1 at the entry's JSON path, as every other malformed field
    doc = _carpet_config()
    doc["potential"] = potential
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["entropy", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_potential_window_the_chain_never_carries_names_its_path(tmp_path, capsys):
    # golden never reads (0, 0, 1) twice in a row: the entry used to be accepted
    # and left every S_N as it was without the potential
    doc = {**_golden_config(), "estimator": {"n_max": 4}}
    doc["potential"] = {"window": 2, "table": [[[[0, 0, 1], [0, 0, 0]], 1.0], [[[0, 0, 1], [0, 0, 1]], 5.0]]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: $.potential.table[1][0]: expected a word that the chain carries, got [[0, 0, 1], [0, 0, 1]]\n"
    )


def test_potential_window_the_chain_carries_changes_the_series(tmp_path, capsys):
    doc = {**_golden_config(), "estimator": {"n_max": 2}}
    rows = {}
    for label, table in (("plain", []), ("weighted", [[[[0, 0, 1], [0, 0, 0]], 5.0]])):
        doc["potential"] = {"window": 2, "table": table}
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(path)]) == 0
        rows[label] = json.loads(capsys.readouterr().out)["estimate_series"]
    assert [row["n"] for row in rows["plain"]] == [row["n"] for row in rows["weighted"]] == [2]
    assert rows["weighted"][0]["log_s_over_n"] > rows["plain"][0]["log_s_over_n"]


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--bogus", "1"], ["bogus"], ["estimate", "--n-max", "3"], ["estimate", "--format", "xml"]],
    ids=["unknown-flag", "unknown-command", "removed-n-max", "unknown-format"],
)
def test_malformed_command_line_is_validation_error(argv, capsys):
    # every setting is a config key; exit 2 is kept for computation errors
    config = os.path.join(CONFIG_DIR, "carpet.json")
    assert main([*argv, "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: wtp ")
    assert "\nwtp: error: " in captured.err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--config" in out and "--format" in out and "--n-max" not in out


@pytest.mark.parametrize("command", ["entropy", "estimate", "dimension", "variational"])
def test_overflowing_potential_is_computation_error(tmp_path, capsys, command):
    with open(os.path.join(CONFIG_DIR, "carpet_pressure.json")) as fh:
        doc = json.load(fh)
    doc["potential"]["table"][0][1] = 1000.0
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1000.0" in err
    assert "Traceback" not in err


def _unrepresentable_z0_config(tmp_path, kind):
    # "underflow": every carpet weight exp(-1e4) is 0.0, so Z_0 = 0;
    # "overflow": each weight exp(709) is finite, their prefix sum is not
    with open(os.path.join(CONFIG_DIR, "carpet_pressure.json")) as fh:
        doc = json.load(fh)
    if kind == "underflow":
        doc["potential"]["table"] = [[[d], -1e4] for d in doc["system"]["sponge"]["digits"]]
    else:
        doc["system"]["sponge"]["digits"] = [[0, 0], [0, 1], [0, 2]]
        doc["potential"]["table"] = [[[[0, k]], 709.0] for k in range(3)]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", ["entropy", "dimension", "variational", "estimate"])
@pytest.mark.parametrize("kind, z0", [("underflow", "0.0"), ("overflow", "inf")])
def test_unrepresentable_z0_is_computation_error(tmp_path, capsys, command, kind, z0):
    # exit 2 with one error line, not a math domain traceback or Infinity
    path = _unrepresentable_z0_config(tmp_path, kind)
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: Z_0 is {z0}: the weights {kind} a float\n"


def test_overflowing_potential_names_the_digit(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "carpet_pressure.json")) as fh:
        doc = json.load(fh)
    doc["potential"]["table"] = [[[[1, 1]], 900.0], [[[0, 2]], 710.5], [[[0, 0]], 1.0]]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["dimension", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: exp of potential value 710.5 for ((0, 2),) overflows a float\n"


def _overflowing_weights_config(tmp_path):
    # a window-2 potential, so the bottom DP has several states: exp(200) is
    # finite, but the four windows of a word of length 4 overflow S_4
    doc = _carpet_config()
    digits = doc["system"]["sponge"]["digits"]
    doc["potential"] = {"window": 2, "table": [[[x, y], 200.0] for x in digits for y in digits]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_weights_are_computation_error(tmp_path, capsys):
    # exit 2, not Infinity
    path = _overflowing_weights_config(tmp_path)
    assert main(["estimate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: S_N at N = 4 is inf" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_state_weights_past_float_range_are_a_number(tmp_path, capsys):
    """A sponge's S_N = S_1^N: with exp(700) on one carpet digit, S_2 no
    longer fits a float, but log S_N = N log S_1 does, and every row is
    log S_1 of the nested sum over the digits."""
    with open(os.path.join(CONFIG_DIR, "carpet_pressure.json")) as fh:
        doc = json.load(fh)
    doc["potential"]["table"][0][1] = 700.0
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", "--config", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["estimate_series"]
    f = {tuple(d): v for (d,), v in doc["potential"]["table"]}
    a1 = math.log(2) / math.log(3)
    fibers = {}
    for d in doc["system"]["sponge"]["digits"]:
        fibers[d[0]] = fibers.get(d[0], 0.0) + math.exp(f.get(tuple(d), 0.0))
    log_s1 = math.log(sum(g**a1 for g in fibers.values()))
    assert [row["n"] for row in rows] == list(range(1, 13))
    assert {row["log_s_over_n"] for row in rows} == {rows[0]["log_s_over_n"]}
    assert rows[0]["log_s_over_n"] == pytest.approx(log_s1, rel=1e-14)


def _estimate_in_subprocess(path):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach the real stderr
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "wtp.cli", "estimate", "--config", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_overflow_stderr_is_the_error_line_only(tmp_path):
    proc = _estimate_in_subprocess(_overflowing_weights_config(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: S_N at N = 4 is inf: the weights overflow a float\n"


def test_overflow_summing_bottom_weights_is_the_error_line_only(tmp_path):
    # sofic chains with a potential take the estimator; at N = 1 two labels
    # weighing exp(709) each fall in one transfer-matrix cell, whose sum overflows
    with open(os.path.join(CONFIG_DIR, "golden_sofic.json")) as fh:
        doc = json.load(fh)
    labels = sorted({tuple(label) for _s, _t, label in doc["system"]["sofic"]["edges"]})
    doc["potential"] = {"window": 1, "table": [[[list(label)], 709.0] for label in labels]}
    path = tmp_path / "golden_overflow.json"
    path.write_text(json.dumps(doc))
    proc = _estimate_in_subprocess(path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: S_N at N = 1 is nan: the weights overflow a float\n"


def test_count_past_float_range_is_the_error_line_only(tmp_path):
    # more than 1000**103 words of one level-2 letter on a two-vertex graph
    # (three follower states): the count does not fit a float; exit 2
    # naming N, not a traceback
    edges = [["a", "a", [0, k]] for k in range(1000)] + [["a", "b", [0, 1000]], ["b", "a", [0, 1001]]]
    doc = {"system": {"sofic": {"bases": [2, 1002], "vertices": ["a", "b"], "edges": edges}},
           "estimator": {"n_max": 110}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = _estimate_in_subprocess(path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: a word count at N = 103 overflows a float\n"


def test_one_state_count_past_float_range_is_a_number(tmp_path, capsys):
    """On a sponge S_N = S_1^N, so a count of 1000**103 words is no error:
    log S_103 is 103 a_1 log 1000, with a_1 = log 2 / log 1000."""
    doc = {"system": {"sponge": {"bases": [2, 1000], "digits": [[0, k] for k in range(1000)]}},
           "estimator": {"n_max": 110}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", "--config", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["estimate_series"]
    assert [row["n"] for row in rows] == list(range(1, 111))
    a1 = math.log(2) / math.log(1000)
    assert 103 * rows[102]["log_s_over_n"] == pytest.approx(103 * a1 * math.log(1000), rel=1e-15)
    assert 103 * a1 * math.log(1000) == pytest.approx(71.39415959767436, rel=1e-15)


@pytest.mark.parametrize("command", ["entropy", "estimate"])
def test_window_two_series_starts_at_window(tmp_path, capsys, command):
    from wtp.estimator import nested_count

    doc = _carpet_config()
    doc["potential"] = {
        "window": 2,
        "table": [[[[0, 0], [1, 1]], 0.8], [[[1, 1], [0, 2]], -0.3], [[[0, 2], [0, 2]], 1.1]],
    }
    doc["estimator"] = {"n_max": 5}
    path = tmp_path / "window2.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["estimate_series"]
    assert [row["n"] for row in rows] == [2, 3, 4, 5]
    config = parse_config(doc)
    for row in rows:
        count = nested_count(config.chain, config.exponents, config.potential, row["n"])
        assert row["log_s_over_n"] == count.per_symbol
    # the Fekete bound is the running minimum from N = 2
    values = [row["log_s_over_n"] for row in rows]
    assert [row["fekete_bound"] for row in rows] == [min(values[: k + 1]) for k in range(len(values))]


@pytest.mark.parametrize("command", ["entropy", "estimate"])
def test_empty_language_is_computation_error(tmp_path, capsys, command):
    # no cycle: no path, hence no admissible word, is longer than 2 edges
    edges = [
        ["1", "0", [0, 0, 0]],
        ["3", "1", [1, 0, 0]],
        ["3", "2", [1, 0, 0]],
        ["3", "2", [1, 0, 3]],
        ["4", "0", [0, 0, 1]],
        ["4", "1", [0, 0, 2]],
    ]
    doc = {
        "system": {"sofic": {"bases": [2, 3, 4], "vertices": list("01234"), "edges": edges}},
        "exponents": "from-bases",
    }
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: S_N = 0 at N = 3:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["entropy", "estimate"])
@pytest.mark.parametrize("window", [1, 2])
def test_underflowing_weights_are_named(tmp_path, capsys, command, window):
    # every admissible golden word weighs exp(-1e4), which is 0.0, so S_1 is 0:
    # the error names the underflow, not a missing word
    with open(os.path.join(CONFIG_DIR, "golden_sofic.json")) as fh:
        doc = json.load(fh)
    chain = parse_config(doc).chain
    words = [word for word in itertools.product(chain.alphabet(1), repeat=window) if chain.admissible(1, word)]
    doc["potential"] = {"window": window, "table": [[[list(x) for x in word], -1e4] for word in words]}
    path = tmp_path / "golden_underflow.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: S_N = 0 at N = {window}: admissible level-2 words of length {window} exist, "
        "but their weights underflow a float\n"
    )


@pytest.mark.parametrize("command", ["entropy", "estimate"])
def test_empty_language_under_a_potential_is_not_an_underflow(tmp_path, capsys, command):
    # the acyclic graph above with a potential: S_3 = 0 because no word of length 3 exists
    doc = {
        "system": {"sofic": {"bases": [2, 3], "vertices": list("012"),
                             "edges": [["1", "0", [0, 0]], ["2", "1", [1, 2]]]}},
        "exponents": "from-bases",
        "potential": {"window": 1, "table": [[[[0, 0]], -1.0]]},
    }
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: S_N = 0 at N = 3: no admissible level-2 word of length 3 has a positive weight\n"
    )


# exact repr strings of report numbers: the README promises bit-for-bit
# reproducible reports, so a refactor must leave every one of them unchanged
PINNED_GOLDEN_LOG_S_OVER_N = [
    "1.628676715175886",
    "1.5714628207599688",
    "1.539114083139638",
    "1.5190415537489241",
    "1.5057995096979633",
    "1.4965762558676774",
    "1.489853871078114",
    "1.4847656153603273",
]
PINNED_CARPET_PRESSURE_H = "1.1909043085072897"


def test_reports_match_pinned_reprs():
    with open(os.path.join(CONFIG_DIR, "golden_sofic.json")) as fh:
        config = parse_config(fh.read())
    config.n_max = 8
    series = run(config, "estimate").estimate_series
    assert [repr(row["log_s_over_n"]) for row in series] == PINNED_GOLDEN_LOG_S_OVER_N
    with open(os.path.join(CONFIG_DIR, "carpet_pressure.json")) as fh:
        config = parse_config(fh.read())
    assert repr(run(config, "entropy").closed_form["h_a_nats"]) == PINNED_CARPET_PRESSURE_H


def test_dimension_on_carpet():
    report = run(parse_config(_carpet_config()), "dimension")
    cf = report.closed_form
    assert cf["hausdorff_dimension"] == pytest.approx(1.349, abs=1e-3)
    assert cf["minkowski_dimension"] == pytest.approx(1.369, abs=1e-3)
    assert report.warnings == []


def test_dimension_under_window_two_potential(tmp_path, capsys):
    # the dimensions do not depend on the potential; h_a has no closed form
    doc = _carpet_config()
    doc["potential"] = {"window": 2, "table": [[[[0, 0], [1, 1]], 0.8]]}
    path = tmp_path / "window2.json"
    path.write_text(json.dumps(doc))
    assert main(["dimension", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    plain = run(parse_config(_carpet_config()), "dimension").closed_form
    assert report["closed_form"] == {
        "hausdorff_dimension": plain["hausdorff_dimension"],
        "minkowski_dimension": plain["minkowski_dimension"],
    }
    assert report["warnings"] == [
        "closed form unavailable: potentials wider than window 1 are estimator-only"
    ]


def test_entropy_on_golden_chain():
    report = run(parse_config(_golden_config()), "entropy")
    assert report.closed_form["h_a_nats"] == pytest.approx(1.4598, abs=5e-5)
    assert report.closed_form["h_over_log_m1"] == pytest.approx(2.1062, abs=1e-3)
    assert any("ambiguity" in w for w in report.warnings)


def test_dimension_on_golden_chain_reports_both():
    report = run(parse_config(_golden_config()), "dimension")
    assert report.closed_form["h_a_nats"] == pytest.approx(1.4598, abs=5e-5)
    assert report.closed_form["h_over_log_m1"] == pytest.approx(2.1062, abs=1e-3)
    quotient = report.closed_form["h_a_nats"] / math.log(2)
    assert report.closed_form["h_over_log_m1"] == pytest.approx(quotient, abs=1e-15)
    assert any("ambiguity" in w for w in report.warnings)


@pytest.mark.parametrize("window", [1, 2])
def test_sofic_dimension_under_a_potential_has_no_closed_form(tmp_path, capsys, window):
    # the potential used to be dropped: the report gave the potential-free h_a
    doc = _golden_config()
    word = [[0, 0, 0], [0, 0, 1]][:window]
    doc["potential"] = {"window": window, "table": [[word, 5.0]]}
    path = tmp_path / "potential.json"
    path.write_text(json.dumps(doc))
    assert main(["dimension", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closed form unavailable: sofic chains with potentials are estimator-only\n"


def test_unaligned_sofic_dimension_is_one_error_line(tmp_path, capsys):
    # count matrices [[1,0],[0,1]] and [[2,1],[0,1]] share no positive eigenvector
    edges = [
        ["a", "a", [0, 0]], ["b", "b", [0, 0]], ["a", "a", [1, 0]],
        ["a", "a", [1, 1]], ["b", "a", [1, 0]], ["b", "b", [1, 1]],
    ]
    doc = {"system": {"sofic": {"bases": [2, 2], "vertices": ["a", "b"], "edges": edges}}}
    path = tmp_path / "unaligned.json"
    path.write_text(json.dumps(doc))
    assert main(["dimension", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closed form unavailable: count matrices share no positive eigenvector\n"


AMBIGUITY_WARNING = (
    "dimension ambiguity: the weighted entropy h (nats) and the quotient "
    "h / log m_1 are both reported; the sponge dimension formula divides by "
    "log m_1, while the nats value itself also circulates as the dimension "
    "of this family; this report does not choose between them"
)
GOLDEN_PATH_COUNT_WARNING = (
    "presentation not right-resolving (vertex '2' has two outgoing edges labeled (1, 0, 3)): "
    "this value counts graph paths and may exceed the chain's word-based entropy; "
    "compare the estimate series"
)


@pytest.mark.parametrize("command", ["entropy", "dimension", "estimate"])
def test_golden_closed_form_carries_path_count_caveat(command):
    # two edges out of vertex 2 share a label, so the eigenvalues count paths
    config = parse_config(_golden_config())
    config.n_max = 3
    report = run(config, command)
    assert report.closed_form["h_a_nats"] == pytest.approx(1.4598, abs=5e-5)
    assert report.warnings[-1] == GOLDEN_PATH_COUNT_WARNING
    assert sum("right-resolving" in w for w in report.warnings) == 1
    assert report.warnings == [AMBIGUITY_WARNING, GOLDEN_PATH_COUNT_WARNING]


@pytest.mark.parametrize("command", ["entropy", "dimension", "estimate"])
def test_right_resolving_closed_form_has_no_caveat(command):
    # per-label count matrices [[1,1],[1,1]] and [[0,1],[1,0]] share the
    # eigenvector (1, 1); no vertex repeats a label
    edges = [
        ["1", "1", [0, 0]], ["1", "2", [0, 1]], ["1", "2", [1, 0]],
        ["2", "1", [0, 0]], ["2", "2", [0, 1]], ["2", "1", [1, 0]],
    ]
    doc = {"system": {"sofic": {"bases": [2, 2], "vertices": ["1", "2"], "edges": edges}}}
    doc["estimator"] = {"n_max": 3}
    report = run(parse_config(doc), command)
    assert report.closed_form["h_a_nats"] == pytest.approx(math.log(3))
    assert len(report.warnings) == 1 and "ambiguity" in report.warnings[0]
    assert report.warnings == [AMBIGUITY_WARNING]


@pytest.mark.parametrize("command", ["entropy", "dimension", "estimate"])
def test_dead_vertex_adds_no_caveat(tmp_path, capsys, command):
    # right-resolving, but vertex b has no outgoing edge; both count matrices
    # [[1,0],[1,0]] share the eigenvector (1, 1) with eigenvalue 1
    edges = [["a", "a", [0, 0]], ["a", "b", [0, 1]], ["a", "a", [1, 0]], ["a", "b", [1, 1]]]
    doc = {"system": {"sofic": {"bases": [2, 2], "vertices": ["a", "b"], "edges": edges}}}
    doc["estimator"] = {"n_max": 3}
    path = tmp_path / "dead_vertex.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["closed_form"]["h_a_nats"] == 0.6931471805599453
    assert report["warnings"] == [AMBIGUITY_WARNING]
    if command == "estimate":
        # S_N counts 2^(N+1) words: log 2 * (1 + 1/N)
        rows = report["estimate_series"]
        assert [row["n"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert row["log_s_over_n"] == pytest.approx(math.log(2) * (1 + 1 / row["n"]), rel=1e-15)


def test_estimate_series_matches_library():
    from wtp.estimator import entropy_estimate
    from wtp.weights import exponents_from_bases

    doc = _golden_config()
    doc["estimator"] = {"n_max": 5}
    report = run(parse_config(doc), "estimate")
    chain = golden_mean_chain()
    series = entropy_estimate(chain, exponents_from_bases((2, 3, 4)), n_max=5)
    got = [row["log_s_over_n"] for row in report.estimate_series]
    assert got == [v for _n, v in series.entries]
    feketes = [row["fekete_bound"] for row in report.estimate_series]
    assert feketes == series.fekete_bounds


def test_variational_on_carpet():
    report = run(parse_config(_carpet_config()), "variational")
    assert abs(report.variational["gap_to_closed_form"]) <= 1e-6
    assert report.variational["value"] == pytest.approx(
        report.closed_form["h_a_nats"], abs=1e-6
    )


@pytest.mark.parametrize("name", ["carpet.json", "carpet_pressure.json"])
def test_variational_value_is_the_objective_on_its_maximizer(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        config = parse_config(fh.read())
    report = run(config, "variational")
    probs = {tuple(d): p for d, p in report.variational["maximizer"]}
    dist = variational.SymbolDistribution(system=config.chain.system, probs=probs)
    value = variational.bernoulli_objective(config.chain.system, config.exponents, dist, config.potential).value
    assert report.variational["value"].hex() == value.hex()
    h = report.closed_form["h_a_nats"]
    assert abs(report.variational["gap_to_closed_form"]) <= 1e-12 * max(1.0, abs(h))


def test_variational_contracts_once_for_its_bound(monkeypatch):
    # one contraction for the closed form and one for the Hausdorff
    # dimension; the maximizer is read off the closed form's tables
    contractions = []
    kp_recursion = sponge.kp_recursion

    def counted(*args, **kwargs):
        contractions.append(args)
        return kp_recursion(*args, **kwargs)

    monkeypatch.setattr(sponge, "kp_recursion", counted)
    monkeypatch.setattr(variational, "kp_recursion", counted)
    with open(os.path.join(CONFIG_DIR, "carpet_pressure.json")) as fh:
        report = run(parse_config(fh.read()), "variational")
    assert len(contractions) == 2
    assert report.variational["gap_to_closed_form"] <= 1e-6


def test_variational_on_underflowing_prefix(tmp_path, capsys):
    # exp(-1e4) is 0.0: the prefix (1,) has table value 0, and its digit
    # gets probability 0 instead of a division by zero
    doc = _carpet_config()
    doc["potential"] = {"window": 1, "table": [[[[1, 1]], -1e4]]}
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(doc))
    assert main(["variational", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)["variational"]
    assert abs(report["value"] - 0.4373271798194368) <= 1e-15
    assert dict((tuple(d), p) for d, p in report["maximizer"])[(1, 1)] == 0.0


def test_variational_on_sofic_rejected():
    with pytest.raises(UnsupportedCombination):
        run(parse_config(_golden_config()), "variational")


def test_report_roundtrip_is_bit_stable():
    config = parse_config(_carpet_config())
    first = run(config, "dimension")
    echoed = first.to_dict()["provenance"]["config"]
    second = run(parse_config(json.loads(json.dumps(echoed))), "dimension")
    assert first.to_json() == second.to_json()


def test_cli_main_json(tmp_path, capsys):
    path = tmp_path / "carpet.json"
    path.write_text(json.dumps(_carpet_config()))
    code = main(["dimension", "--config", str(path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closed_form"]["hausdorff_dimension"] == pytest.approx(1.349, abs=1e-3)


def test_cli_main_table_format(tmp_path, capsys):
    path = tmp_path / "carpet.json"
    config = _carpet_config()
    config["estimator"] = {"n_max": 3}
    path.write_text(json.dumps(config))
    code = main(["estimate", "--config", str(path), "--format", "table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "log S_N / N" in out
    assert "fekete bound" in out


def test_cli_missing_config_is_validation_error(capsys):
    assert main(["entropy", "--config", "/nonexistent.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_bad_config_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"system": {}}')
    assert main(["entropy", "--config", str(path)]) == 1


def test_cli_budget_triggers_computation_error(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({**_golden_config(), "estimator": {"budget": 100}}))
    assert main(["estimate", "--config", str(path)]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_budget_fails_before_counting(tmp_path, capsys, monkeypatch):
    """n_max 16 on the golden chain: N = 15 is past the budget, and the error
    (exit 2) comes before N = 1..14 are counted."""
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({**_golden_config(), "estimator": {"n_max": 16, "budget": 3**14}}))

    def never(*_args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr(enumeration, "_bottom_matrices", never)
    monkeypatch.setattr(enumeration, "_level2_values", never)
    assert main(["estimate", "--config", str(path)]) == 2
    assert f"enumeration needs {3**15} words, budget is {3**14}" in capsys.readouterr().err


def test_cli_one_letter_series_to_n_2000_is_quick(tmp_path, capsys):
    """One level-2 letter on a two-cycle (three follower states, two words of
    each length): the budget does not stop the series, and N = 1..2000 cost
    one DP position each (about 0.3 s on two vCPUs, where rebuilding every N
    took 10 s)."""
    path = tmp_path / "one.json"
    edges = [["a", "b", [0, 0, 0]], ["b", "a", [0, 0, 1]]]
    path.write_text(json.dumps({"system": {"sofic": {"bases": [2, 3, 4], "vertices": ["a", "b"], "edges": edges}},
                                "exponents": "from-bases", "estimator": {"n_max": 2000}}))
    start = time.perf_counter()
    assert main(["estimate", "--config", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert len(json.loads(capsys.readouterr().out)["estimate_series"]) == 2000


def test_cli_n_max_key_sets_the_series(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({**_golden_config(), "estimator": {"n_max": 2}}))
    code = main(["estimate", "--config", str(path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in out["estimate_series"]] == [1, 2]


def test_cli_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    import wtp.cli as cli_module
    from wtp.checks import CheckResult

    path = tmp_path / "carpet.json"
    path.write_text(json.dumps({**_carpet_config(), "estimator": {"n_max": 4}}))
    seen = []

    def failing(config):
        seen.append(config)
        return [CheckResult("stub", False, "forced")]

    monkeypatch.setattr(cli_module, "run_all_checks", failing)
    assert main(["check", "--config", str(path)]) == 3
    assert [(c.chain.rank, c.n_max) for c in seen] == [(2, 4)]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_closed_stdout_is_one_error_line(fmt):
    # the reader closes its end of the pipe before wtp writes a byte
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wtp.cli", "dimension", "--config", os.path.join(CONFIG_DIR, "carpet.json"),
             "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


SPONGE_CLAIMS = [
    "submultiplicativity", "closed-form-below-fekete", "degenerate-collapses", "pressure-shift",
    "variational-witness", "weights-consistency",
]


@pytest.mark.slow
@pytest.mark.parametrize("name, claims", [
    ("carpet.json", SPONGE_CLAIMS),
    ("carpet_pressure.json", SPONGE_CLAIMS),
    ("golden_sofic.json", [c for c in SPONGE_CLAIMS if c != "variational-witness"]),
])
def test_cli_check_passes(name, claims, capsys):
    code = main(["check", "--config", os.path.join(CONFIG_DIR, name)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert all(row["passed"] for row in out["checks"])
    assert [row["name"] for row in out["checks"]] == claims


def test_cli_one_state_estimate_is_charged_the_words_of_s1(tmp_path, capsys):
    """The carpet has one bottom state, so N = 60 (2^60 level-2 words) forms
    only the 2 words of S_1 and stays within the default budget."""
    with open(os.path.join(CONFIG_DIR, "carpet.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "carpet.json"
    path.write_text(json.dumps({**doc, "estimator": {"n_max": 60}}))
    assert main(["estimate", "--config", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["estimate_series"]
    assert [row["n"] for row in rows] == list(range(1, 61))
