"""The report writer against json.dumps(indent=2), its oracle.

Core claims:
    - Report.to_json writes exactly the string json.dumps(to_dict(), indent=2)
      writes, for any JSON-like value in a report: ints and bools, floats
      with NaN and +-inf, non-ASCII and control-character strings, empty and
      nested lists, tuples and dicts, and lists of same-shaped rows
    - what the fast writer does not lay out (non-str keys, subclasses such as
      numpy scalars) goes to json.dumps, and so do its errors: a circular
      reference or an int past the str-digits limit raises what json.dumps
      raises
    - the full report of every command on the shipped configs and on a
      1400-digit rank-4 sponge with a window-1 potential is byte for byte
      json.dumps's
"""
import itertools
import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.cli import COMMANDS, Report, _encode, _Fallback, parse_config, run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def oracle(doc) -> str:
    """The reference layout the writer must reproduce byte for byte."""
    return json.dumps(doc, indent=2)


def _report(value) -> Report:
    return Report(command="dimension", provenance={"config": value, "version": "x"}, warnings=[value])


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "%s", "%d", "\x00\x1f\x7f", "é ü ∞ 𝔸", "\ud800"])
)
# lists of same-shaped rows take the %-template path
rows = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(), min_size=k, max_size=k), max_size=6)
) | st.lists(
    st.tuples(st.lists(st.lists(st.integers(), min_size=2, max_size=2), min_size=1, max_size=1), st.floats()).map(
        list
    ),
    max_size=6,
)
keys = st.text(max_size=4) | st.integers() | st.floats() | st.booleans() | st.none()
json_like = st.recursive(
    scalars | rows,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=5)
    | st.dictionaries(keys, children, max_size=3),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_like)
def test_writer_matches_json_dumps(value):
    report = _report(value)
    assert report.to_json() == oracle(report.to_dict())


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {"a": {2.5: []}}, [np.float64(0.5)], [np.int32(1)]])
def test_values_the_writer_does_not_lay_out_take_the_fallback(value):
    with pytest.raises(_Fallback):
        _encode(value, 0)


def _error(call):
    try:
        call()
    except (ValueError, RecursionError, TypeError) as e:
        return type(e), str(e)
    return None


def test_numpy_float_matches_json_dumps():
    # np.float64 subclasses float, so json.dumps writes it as one
    report = _report([np.float64(0.1), np.float64("nan")])
    assert report.to_json() == oracle(report.to_dict())


def test_errors_are_json_dumps_errors():
    circular: list = [1]
    circular.append(circular)
    for value in (circular, [10**5000], {"a": [[10**5000]]}, [np.int64(1)]):
        report = _report(value)
        expected = _error(lambda: oracle(report.to_dict()))
        assert expected is not None
        assert _error(report.to_json) == expected


def test_deep_nesting_matches_json_dumps():
    value: list = []
    for _ in range(2000):
        value = [value]
    report = _report(value)
    expected = _error(lambda: oracle(report.to_dict()))
    assert _error(report.to_json) == expected
    if expected is None:
        assert report.to_json() == oracle(report.to_dict())


def _shipped_reports():
    for name in sorted(os.listdir(CONFIG_DIR)):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            text = fh.read()
        for command in COMMANDS:
            config = parse_config(text)
            config.n_max = 5
            if command == "variational" and "sofic" in text:
                continue  # sponge chains only
            yield run(config, command)


def test_shipped_config_reports_match_json_dumps():
    reports = list(_shipped_reports())
    assert len(reports) == 3 * 5 - 1  # variational skips the sofic chain
    for report in reports:
        assert report.to_json() == oracle(report.to_dict())


def test_large_sponge_reports_match_json_dumps():
    rng = random.Random(1400)
    bases = (6, 8, 10, 12)
    digits = sorted(rng.sample(list(itertools.product(*(range(m) for m in bases))), 1400))
    doc = {
        "system": {"sponge": {"bases": list(bases), "digits": [list(d) for d in digits]}},
        "exponents": "from-bases",
        "potential": {"window": 1, "table": [[[list(d)], rng.gauss(0.0, 1.0)] for d in digits]},
        "estimator": {"n_max": 1},
    }
    text = json.dumps(doc)
    for command in ("dimension", "entropy", "estimate", "variational"):
        report = run(parse_config(text), command)
        assert report.to_json() == oracle(report.to_dict())
    assert math.isfinite(report.variational["value"])
