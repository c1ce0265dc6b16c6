"""Configuration ingestion, command dispatch, and machine-readable reporting.

Commands: entropy, dimension, estimate, variational, check.  Configs and
reports are JSON; floats are emitted with Python's shortest round-trip
representation, so re-running on a report's echoed config reproduces the
numbers bit for bit.  Exit codes: 0 success, 1 validation error,
2 computation error, 3 invariant-suite failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .defaults import DEFAULT_BUDGET, DEFAULT_N_MAX
from .errors import (
    ClosedFormUnavailable,
    ParseError,
    UnsupportedCombination,
    ValidationError,
    WindowUnsupported,
    WtpError,
)
from .sponge import (
    ClosedForm,
    Potential,
    closed_form,
    hausdorff_dimension,
    minkowski_dimension,
)
from .symbolic import (
    LabeledGraph,
    SoficChain,
    SpongeChain,
    validate_digit_system,
)
from .weights import Exponents, exponents_from_bases


# Entry points of the modules that config parsing and `closed_form` do
# without: each imports its module at the first call.
# `run` looks these names up at call time, so a caller may replace them here.


def run_all_checks(config):
    from .checks import run_all_checks

    return run_all_checks(config)


def entropy_estimate(*args, **kwargs):
    from .estimator import entropy_estimate

    return entropy_estimate(*args, **kwargs)


COMMANDS = ("entropy", "dimension", "estimate", "variational", "check")
# report warning for each caveat code of a ClosedForm, filled with its detail
CAVEAT_WARNINGS = {
    "dimension-ambiguity": "{}",
    "not-right-resolving": (
        "presentation not right-resolving ({}): this value counts graph paths and may "
        "exceed the chain's word-based entropy; compare the estimate series"
    ),
}


@dataclass
class RunConfig:
    raw: dict
    chain: SoficChain
    exponents: Exponents
    potential: Potential | None
    n_max: int
    budget: int


@dataclass
class Report:
    command: str
    provenance: dict
    closed_form: dict | None = None
    estimate_series: list | None = None
    variational: dict | None = None
    checks: list | None = None
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "closed_form": self.closed_form,
            "estimate_series": self.estimate_series,
            "variational": self.variational,
            "checks": self.checks,
            "warnings": self.warnings,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        """The bytes of `json.dumps(self.to_dict(), indent=2)`, laid out by `_encode`."""
        doc = self.to_dict()
        try:
            return _encode(doc, 0)
        except (_Fallback, RecursionError, ValueError):
            # json.dumps is the reference layout: it writes what _encode does
            # not lay out (non-str keys, subclasses) and raises its own errors
            # (circular references, ints past the str-digits limit)
            return json.dumps(doc, indent=2)


# Report writer.  json.dumps(indent=2) lays out containers in pure Python, one
# generator step per value; the echoed digit set and the potential table of a
# 1400-digit sponge hold over 10^4 values.  _encode writes the same bytes but
# fills a whole list of same-shaped rows from one %-template.


class _Fallback(Exception):
    """A value _encode does not lay out; json.dumps writes the whole report."""


def _float_str(x: float) -> str:
    # json.dumps's spellings of the non-finite floats
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_NON_FINITE = frozenset({"nan", "inf", "-inf"})  # float.__repr__ of the non-finite floats


@lru_cache(maxsize=None)
def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _container(items, depth: int, brackets: str = "[]") -> str:
    """Encoded items laid out one per line inside `brackets`, as at `depth`."""
    if not items:
        return brackets
    inner = _newline(depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + _newline(depth) + brackets[1]


def _shape(value):
    """Layout of a value built from lists, tuples, ints, floats and strs, else None.

    A scalar's shape is its type, a list's the tuple of its items' shapes.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        shapes = tuple(map(_shape, value))
        return None if None in shapes else shapes
    return kind if kind is int or kind is float or kind is str else None


@lru_cache(maxsize=256)
def _template(shape, depth: int) -> str:
    """%-template of a value of `shape` at `depth`: %d per int, %s per float or str."""
    if type(shape) is not tuple:
        return "%d" if shape is int else "%s"
    return _container([_template(s, depth + 1) for s in shape], depth)


@lru_cache(maxsize=16)  # a report has a few long lists; the templates are large
def _rows_template(shape, depth: int, n: int) -> str:
    """%-template of a list of `n` values of `shape` at `depth`."""
    return _container((_template(shape, depth + 1),) * n, depth)


def _columns(shape, values: list, out: list) -> bool:
    """Append to `out` one fill column per scalar position of `shape`.

    False when some value does not have `shape`.  Ints go in as they are
    (%d writes int.__repr__), floats and strs already encoded.
    """
    if type(shape) is tuple:
        if not {list, tuple}.issuperset(map(type, values)) or set(map(len, values)) != {len(shape)}:
            return False
        return all(_columns(s, list(map(itemgetter(k), values)), out) for k, s in enumerate(shape))
    if set(map(type, values)) != {shape}:
        return False
    if shape is float:
        text = list(map(float.__repr__, values))
        out.append(text if _NON_FINITE.isdisjoint(text) else list(map(_float_str, values)))
    else:
        out.append(values if shape is int else list(map(encode_basestring_ascii, values)))
    return True


def _encode(value, depth: int) -> str:
    """`value` as json.dumps(indent=2) writes it at nesting `depth`; _Fallback otherwise."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        shape = _shape(value[0])
        columns: list = []
        if shape is not None and _columns(shape, value, columns):
            fill = tuple(itertools.chain.from_iterable(zip(*columns)))
            return _rows_template(shape, depth, len(value)) % fill
        return _container([_encode(v, depth + 1) for v in value], depth)
    if kind is dict:
        if not {str}.issuperset(map(type, value)):
            raise _Fallback
        return _container(
            [encode_basestring_ascii(k) + ": " + _encode(v, depth + 1) for k, v in value.items()],
            depth,
            "{}",
        )
    scalar = _SCALARS.get(kind)
    if scalar is None:
        raise _Fallback
    return scalar(value)


def _expect(doc, key, kind, path):
    if key not in doc:
        raise ParseError(f"{path}.{key}", "missing")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def _only(doc: dict, path: str, *keys: str) -> dict:
    """`doc` if it holds no key but `keys`: an unread key, echoed, would misstate the run."""
    for key in doc:
        if key not in keys:
            raise ParseError(f"{path}.{key}", f"expected only the keys {', '.join(keys)} in {path}")
    return doc


def _integer(value, path) -> int:
    if type(value) is not int:  # JSON booleans are not integers here
        raise ParseError(path, f"expected an integer, got {value!r}")
    return value


def _count(value, path) -> int:
    if _integer(value, path) < 1:
        raise ParseError(path, f"expected an integer >= 1, got {value!r}")
    return value


def _all_of(kind, values) -> bool:
    """Every value has exactly type `kind`; a set of types, so no Python step per value."""
    return {kind}.issuperset(map(type, values))


def _integers(values, path) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ParseError(path, f"expected a list of integers, got {values!r}")
    if not _all_of(int, values):
        for i, value in enumerate(values):
            _integer(value, f"{path}[{i}]")
    return tuple(values)


def _integer_rows(rows, path) -> list[tuple[int, ...]]:
    """`_integers` on each row; the paths of the rows are built only for a failing check."""
    if _all_of(list, rows) and _all_of(int, itertools.chain.from_iterable(rows)):
        return list(map(tuple, rows))
    return [_integers(row, f"{path}[{k}]") for k, row in enumerate(rows)]


def _real(value, path) -> float:
    if type(value) not in (int, float):
        raise ParseError(path, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ParseError(path, f"{value} is out of float range") from None
    if not math.isfinite(x):
        raise ParseError(path, f"expected a finite number, got {x}")
    return x


def _potential_table(entries) -> dict | None:
    """The potential table when every `[word, value]` entry is well formed and
    its value a finite float, checked a whole list at a time; None otherwise,
    and `parse_config` then checks entry by entry to name the first bad one."""
    if not (_all_of(list, entries) and set(map(len, entries)) <= {2}):
        return None
    words = list(map(itemgetter(0), entries))
    values = list(map(itemgetter(1), entries))
    if not (_all_of(list, words) and _all_of(float, values) and all(map(math.isfinite, values))):
        return None
    letters = list(itertools.chain.from_iterable(words))
    if not (_all_of(list, letters) and _all_of(int, itertools.chain.from_iterable(letters))):
        return None
    return dict(zip([tuple(map(tuple, word)) for word in words], values))


def parse_config(doc) -> RunConfig:
    """Validate a config document (dict or JSON text) and fill defaults.

    Every malformed field or unread key raises a ParseError carrying its JSON path.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as e:
            # ValueError: malformed text, bad UTF-8, an int literal past the
            # str-digits limit; RecursionError: nesting too deep to decode
            raise ParseError("$", f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")

    _only(doc, "$", "system", "exponents", "potential", "estimator")
    system = _only(_expect(doc, "system", dict, "$"), "$.system", "sponge", "sofic")
    kinds = [k for k in ("sponge", "sofic") if k in system]
    if len(kinds) != 1:
        raise ParseError("$.system", "exactly one of 'sponge' or 'sofic' required")
    kind = kinds[0]
    path = f"$.system.{kind}"
    body = _expect(system, kind, dict, "$.system")
    bases = _integers(_expect(body, "bases", None, path), f"{path}.bases")
    if kind == "sponge":
        _only(body, path, "bases", "digits")
        digits = _expect(body, "digits", list, path)
        digit_system = validate_digit_system(bases, _integer_rows(digits, f"{path}.digits"))
        chain: SoficChain = SpongeChain(digit_system)
    else:
        _only(body, path, "bases", "vertices", "edges")
        vertices = _expect(body, "vertices", list, path)
        edges = _expect(body, "edges", list, path)
        parsed_edges = []
        for k, e in enumerate(edges):
            if not (isinstance(e, list) and len(e) == 3):
                raise ParseError(f"{path}.edges[{k}]", "expected [source, target, [digit...]]")
            src, dst, label = e
            parsed_edges.append((str(src), str(dst), _integers(label, f"{path}.edges[{k}][2]")))
        # the digit set is the set of edge labels; validation range-checks each
        digit_system = validate_digit_system(bases, [lab for _s, _t, lab in parsed_edges])
        graph = LabeledGraph(
            vertices=tuple(str(v) for v in vertices),
            edges=tuple(parsed_edges),
            system=digit_system,
        )
        chain = SoficChain(graph)

    r = chain.rank
    exponents_raw = doc.get("exponents", "from-bases")
    if exponents_raw == "from-bases":
        exponents = exponents_from_bases(chain.system.bases)
    elif isinstance(exponents_raw, list):
        if len(exponents_raw) != r - 1:
            raise ParseError("$.exponents", f"need {r - 1} entries for rank {r}")
        exponents = Exponents(tuple(_real(x, f"$.exponents[{i}]") for i, x in enumerate(exponents_raw)))
    else:
        raise ParseError("$.exponents", "expected 'from-bases' or a list of reals")

    potential = None
    if doc.get("potential") is not None:
        pot = _only(_expect(doc, "potential", dict, "$"), "$.potential", "window", "table")
        window = _count(_expect(pot, "window", None, "$.potential"), "$.potential.window")
        table_raw = _expect(pot, "table", list, "$.potential")
        table = _potential_table(table_raw)
        if table is None:
            table = {}
            for k, entry in enumerate(table_raw):
                if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
                    raise ParseError(f"$.potential.table[{k}]", "expected [word, value]")
                word, value = entry
                key = tuple(_integers(d, f"$.potential.table[{k}][0][{t}]") for t, d in enumerate(word))
                table[key] = _real(value, f"$.potential.table[{k}][1]")
        # an entry whose word is not one window long, on a letter outside the
        # digit set, or on a window given before could never apply; the loop
        # only names the first such entry
        digits = chain.system.digits
        if (len(table) < len(table_raw) or not set(map(len, table)) <= {window}
                or not digits.issuperset(itertools.chain(*table))):
            seen = set()
            for k, (word, _value) in enumerate(table_raw):
                key = tuple(map(tuple, word))
                if len(key) != window:
                    raise ParseError(f"$.potential.table[{k}][0]",
                                     f"expected a word of length {window} (the window), got {word}")
                for t, letter in enumerate(key):
                    if letter not in digits:
                        raise ParseError(f"$.potential.table[{k}][0][{t}]", f"expected a digit, got {list(letter)}")
                if key in seen:
                    raise ParseError(f"$.potential.table[{k}][0]", f"expected a window not given before, got {word}")
                seen.add(key)
        # a sofic chain carries only the windows that its follower automaton reads
        # from state 0, where the estimator's DP starts; sponges carry every word
        if window > 1 and not isinstance(chain, SpongeChain):
            aut = chain.automaton(1)
            for k, word in enumerate(table):
                if aut.run(word) is None:
                    raise ParseError(f"$.potential.table[{k}][0]",
                                     f"expected a word that the chain carries, got {list(map(list, word))}")
        potential = Potential(window=window, table=table)

    est = {} if doc.get("estimator") is None else _expect(doc, "estimator", dict, "$")
    _only(est, "$.estimator", "n_max", "budget")
    return RunConfig(
        raw=doc,
        chain=chain,
        exponents=exponents,
        potential=potential,
        n_max=_count(est.get("n_max", DEFAULT_N_MAX), "$.estimator.n_max"),
        budget=_count(est.get("budget", DEFAULT_BUDGET), "$.estimator.budget"),
    )


def _dimensions(config: RunConfig) -> dict:
    sys_ = config.chain.system
    return {
        "hausdorff_dimension": hausdorff_dimension(sys_),
        "minkowski_dimension": minkowski_dimension(sys_),
    }


def _report_closed_form(config: RunConfig, report: Report) -> ClosedForm:
    """`closed_form` on the config, laid out in the report as its route's
    fields, its caveats as report warnings; returns the `ClosedForm`."""
    result = closed_form(config.chain, config.exponents, config.potential)
    report.warnings += [CAVEAT_WARNINGS[code].format(detail) for code, detail in result.caveats]
    h = result.h_a_nats
    if result.route == "sponge":
        report.closed_form = {"h_a_nats": h, "z0": result.z0, **_dimensions(config)}
    else:
        report.closed_form = {
            "h_a_nats": h,
            "h_over_log_m1": h / math.log(config.chain.system.bases[0]),
            "bracket_value": math.exp(h),
        }
    return result


def run(config: RunConfig, command: str) -> Report:
    """Dispatch a command; numeric work is delegated to the library modules."""
    if command not in COMMANDS:
        raise UnsupportedCombination(f"unknown command {command!r}")
    report = Report(
        command=command,
        provenance={"config": config.raw, "version": __version__},
    )
    sponge = isinstance(config.chain, SpongeChain)

    if command == "check":
        results = run_all_checks(config)
        report.checks = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        if not all(r.passed for r in results):
            report.warnings.append("invariant suite failed")
        return report

    if command == "variational":
        if not sponge:
            raise UnsupportedCombination("variational optimization is restricted to sponge chains")
        try:
            closed = _report_closed_form(config, report)
        except WindowUnsupported as e:
            raise UnsupportedCombination("variational optimization takes window-1 potentials") from e
        from .variational import bernoulli_objective, optimal_measure_from_recursion

        # the witness is read off the closed form's tables, its value evaluated apart from them
        system, a, f = config.chain.system, config.exponents, config.potential
        dist = optimal_measure_from_recursion(system, a, f, closed)
        value = bernoulli_objective(system, a, dist, f).value
        report.variational = {
            "value": value,
            "gap_to_closed_form": closed.h_a_nats - value,
            "maximizer": [[list(d), p] for d, p in sorted(dist.probs.items())],
        }
        return report

    try:
        _report_closed_form(config, report)
    except ClosedFormUnavailable as e:
        unavailable = f"closed form unavailable: {e}"
        if command == "dimension" and not sponge:
            raise ClosedFormUnavailable(unavailable) from e
        report.warnings.append(unavailable)
        if command == "dimension":
            # a sponge's dimensions do not depend on the potential; h_a does
            report.closed_form = _dimensions(config)
    if command == "dimension":
        return report

    # entropy: closed form when available, estimator fallback otherwise;
    # estimate: closed form when available, estimator series always
    if command == "estimate" or report.closed_form is None:
        series = entropy_estimate(
            config.chain,
            config.exponents,
            config.potential,
            n_max=config.n_max,
            budget=config.budget,
        )
        report.estimate_series = [
            {"n": n, "log_s_over_n": v, "fekete_bound": b}
            for (n, v), b in zip(series.entries, series.fekete_bounds)
        ]
    return report


def _format_table(report: Report) -> str:
    lines = [f"command: {report.command}"]
    if report.closed_form:
        for key, value in report.closed_form.items():
            lines.append(f"{key:>22}: {value!r}")
    if report.estimate_series:
        lines.append(f"{'N':>4} {'log S_N / N':>22} {'fekete bound':>22}")
        for row in report.estimate_series:
            lines.append(f"{row['n']:>4} {row['log_s_over_n']:>22.16f} {row['fekete_bound']:>22.16f}")
    if report.variational:
        lines.append(f"{'variational value':>22}: {report.variational['value']!r}")
        lines.append(f"{'gap to closed form':>22}: {report.variational['gap_to_closed_form']!r}")
    if report.checks is not None:
        for row in report.checks:
            lines.append(f"{'PASS' if row['passed'] else 'FAIL'} {row['name']}: {row['detail']}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wtp",
        description="Weighted topological entropy and pressure of symbolic chains.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help exits 0; a malformed command line is a validation error
        return 0 if e.code == 0 else 1

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        report = run(config, args.command)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except WtpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        print(report.to_json() if args.format == "json" else _format_table(report))
        sys.stdout.flush()
    except BrokenPipeError as e:
        # the reader has gone; what is still buffered goes to devnull, so
        # the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 1
    if report.checks is not None and not all(r["passed"] for r in report.checks):
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
