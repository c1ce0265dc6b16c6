"""Mutated shipped configs end in a report or in a typed error.

Core claim: whatever a config holds, parse_config followed by run, for
every command that reads the config, ends in a Report or in a WtpError of
its documented exit class (ValidationError: exit 1, ComputationError:
exit 2), never in another exception.  The mutations swap types, drop keys,
append junk, and put in out-of-range and huge integers and NaN and
+-Infinity literals, anywhere in the document.  The invariant suite (`check`)
audits the config it is given, so it runs here with the other commands.
"""
import copy
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.cli import parse_config, run
from wtp.errors import ComputationError, ValidationError, WtpError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = {}
for _name in sorted(os.listdir(CONFIG_DIR)):
    with open(os.path.join(CONFIG_DIR, _name)) as _fh:
        SHIPPED[_name] = json.load(_fh)
COMMANDS = ("dimension", "entropy", "estimate", "variational", "check")
# each example runs in milliseconds under this cap
BUDGET_CAP = 10**4

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.sampled_from([2**63, 10**30, -(10**30), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 700.0, -1e-12]),
    st.text(max_size=3),
    st.sampled_from(["from-bases", "1", "a"]),
    st.lists(st.integers(-2, 5), max_size=4),
    # fresh containers: a mutation may append to them
    st.builds(list),
    st.builds(dict),
    st.builds(lambda: {"window": 1, "table": []}),
)


def mostly(strategy):
    """`strategy` seven times in eight, any of `values` otherwise."""
    return st.integers(0, 7).flatmap(lambda k: values if k == 0 else strategy)


def _paths(doc, prefix=()):
    """The path of every value in the document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _cap(doc):
    if not isinstance(doc, dict):
        return
    if not doc.get("estimator"):  # missing, null or empty: the defaults apply
        doc["estimator"] = {"budget": BUDGET_CAP}
    elif isinstance(doc["estimator"], dict):
        value = doc["estimator"].get("budget", BUDGET_CAP + 1)
        if type(value) is int and value > BUDGET_CAP:
            doc["estimator"]["budget"] = BUDGET_CAP


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    if draw(st.booleans()):
        doc["estimator"] = {"n_max": draw(st.integers(-1, 14)), "budget": draw(st.integers(-1, BUDGET_CAP))}
    if draw(st.booleans()):
        # a potential on the config's own digits, each window once, so that
        # runs get past parsing
        body = next(iter(doc["system"].values()))
        digits = body["digits"] if "digits" in body else [label for _s, _t, label in body["edges"]]
        window = draw(st.integers(1, 3))
        words = st.lists(st.sampled_from(digits), min_size=window, max_size=window)
        entries = st.tuples(words, mostly(st.floats(-3, 3))).map(list)
        table = draw(st.lists(entries, max_size=4, unique_by=lambda entry: json.dumps(entry[0])))
        doc["potential"] = {"window": window, "table": table}
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "drop", "append"]))
        if action == "replace":
            parent[path[-1]] = draw(values)
        elif action == "drop":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], list):
            parent[path[-1]].append(draw(values))
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.text(max_size=3))] = draw(values)
    _cap(doc)
    return json.dumps(doc)  # NaN and Infinity become JSON literals


def test_capped_shipped_configs_parse():
    # a cap that put in a rejected section would stop every example at parse
    for name, shipped in SHIPPED.items():
        doc = copy.deepcopy(shipped)
        _cap(doc)
        assert parse_config(json.dumps(doc)).budget == BUDGET_CAP, name


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_mutated_config_ends_in_report_or_typed_error(text):
    for command in COMMANDS:
        try:
            report = run(parse_config(text), command)
        except WtpError as e:
            assert isinstance(e, (ValidationError, ComputationError)), repr(e)
        else:
            json.loads(report.to_json())
