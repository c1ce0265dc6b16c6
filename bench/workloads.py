"""The four workloads: seeded inputs, one round of operations, output checks.

A workload's `setup` makes its inputs from the seed alone (never from wtp's
own output, so that a change to wtp cannot change what is measured) and
builds what the operations need.  `ops` returns one round: a list of
(label, callable) pairs that the worker runs in order, round after round.
`check` compares the first output of each operation with values computed in
`oracles`, or with properties the method must have, and returns the
failures it finds.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles
from tracer import TRACE_PREFIX

REL_TOL = 1e-9


def _close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def _submultiplicative(logs: dict, failures: list, label: str) -> None:
    """log S_{n+m} <= log S_n + log S_m for every pair inside the series."""
    for n, m in itertools.combinations_with_replacement(sorted(logs), 2):
        if n + m in logs and logs[n + m] > logs[n] + logs[m] + REL_TOL * max(1.0, abs(logs[n + m])):
            failures.append(f"{label}: S_{n + m} > S_{n} * S_{m}")


def _balanced_sizes(rng: random.Random, total: int, parts: int) -> list[int]:
    """`total` split into `parts` sizes that differ by at most one, in random order."""
    sizes = [total // parts + (k < total % parts) for k in range(parts)]
    rng.shuffle(sizes)
    return sizes


def random_sponge_digits(rng: random.Random, bases, shape, size: int) -> list[tuple]:
    """`size` digits whose length-j prefixes take exactly shape[j-1] values.

    Every level's alphabet size and every fiber size is fixed, so the
    estimator's arrays and the cost of an operation do not depend on the
    seed; the seed picks which coordinates occur.
    """
    prefixes = [()]
    for j, count in enumerate(shape):
        parents, prefixes = prefixes, []
        for parent, children in zip(parents, _balanced_sizes(rng, count, len(parents))):
            prefixes += [parent + (c,) for c in rng.sample(range(bases[j]), children)]
    digits = []
    for prefix, fiber in zip(prefixes, _balanced_sizes(rng, size, len(prefixes))):
        digits += [prefix + (c,) for c in rng.sample(range(bases[-1]), fiber)]
    return sorted(digits)


class Workload:
    name = ""
    tail_pct = 90  # latency_tail_s is this percentile ...
    min_ops = 100  # ... so a run holds at least this many operations

    def __init__(self, root: Path, wtp):
        self.root = root
        self.wtp = wtp

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self, tracer=None) -> list:
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError


class SoficEstimate(Workload):
    """`estimate` in process on the golden chain and on random sofic graphs."""

    name = "sofic-estimate"
    bases = (2, 4, 5)
    golden_n_max = 13
    # (level-2 letters, n_max, follower states, vertices, extra edges):
    # letters^n_max * states is 0.75..0.9 of the golden chain's 3^13 * 7 DP
    # entries, so every operation holds about the same memory, and the state
    # count is exact (and the likeliest one), so neither an operation's cost
    # nor the search for a graph depends much on the seed.
    specs = [
        (3, 12, 18, 6, 18),
        (5, 8, 22, 6, 30),
        (7, 7, 12, 5, 17),
    ]
    per_spec = 2

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        golden = json.loads((self.root / "configs" / "golden_sofic.json").read_text())
        golden["estimator"] = {"n_max": self.golden_n_max}
        self.configs = [("golden", golden)]
        for spec in self.specs:
            for k in range(self.per_spec):
                self.configs.append((f"k{spec[0]}-{k}", self._random_config(rng, *spec)))
        self.texts = [(label, json.dumps(doc)) for label, doc in self.configs]

    def _random_config(self, rng, letters, n_max, states, nverts, extra) -> dict:
        m1, m2, m3 = self.bases
        verts = [str(i) for i in range(nverts)]
        for _ in range(100_000):
            alphabet = rng.sample(list(itertools.product(range(m1), range(m2))), letters)
            if len({p[0] for p in alphabet}) < m1:
                continue  # keep the level-3 alphabet at its full size m1
            edges = set()

            def edge(s, t, prefix):
                edges.add((verts[s], verts[t], prefix + (rng.randrange(m3),)))

            # a cycle through every vertex and a loop at one: irreducible, aperiodic
            for i in range(nverts):
                edge(i, (i + 1) % nverts, rng.choice(alphabet))
            edge(0, 0, rng.choice(alphabet))
            for prefix in alphabet:
                edge(rng.randrange(nverts), rng.randrange(nverts), prefix)
            for _ in range(extra):
                edge(rng.randrange(nverts), rng.randrange(nverts), rng.choice(alphabet))
            edges = sorted(edges)
            count, full = oracles.follower_state_count(verts, edges)
            if count == states and not full:
                return {
                    "system": {"sofic": {
                        "bases": list(self.bases),
                        "vertices": verts,
                        "edges": [[s, t, list(label)] for s, t, label in edges],
                    }},
                    "exponents": "from-bases",
                    "estimator": {"n_max": n_max},
                }
        raise RuntimeError(f"no graph with {states} follower states")

    def ops(self, tracer=None) -> list:
        cli = self.wtp.cli

        def estimate(text):
            return cli.run(cli.parse_config(text), "estimate").to_json()

        return [(label, lambda text=text: estimate(text)) for label, text in self.texts]

    def check(self, outputs: dict) -> list[str]:
        failures = []
        h_golden = oracles.golden_entropy()
        for label, doc in self.configs:
            if label not in outputs:
                continue
            report = json.loads(outputs[label])
            series = report["estimate_series"]
            n_max = doc["estimator"]["n_max"]
            if [row["n"] for row in series] != list(range(1, n_max + 1)):
                failures.append(f"{label}: series does not cover N = 1..{n_max}")
                continue
            logs = {row["n"]: row["n"] * row["log_s_over_n"] for row in series}
            running = math.inf
            for row in series:
                running = min(running, row["log_s_over_n"])
                if row["fekete_bound"] != running:
                    failures.append(f"{label}: Fekete bound at N={row['n']} is not the running minimum")
            if label == "golden":
                if not _close(report["closed_form"]["h_a_nats"], h_golden):
                    failures.append(f"golden: closed form {report['closed_form']['h_a_nats']} != {h_golden}")
                low = [row["n"] for row in series if row["fekete_bound"] < h_golden - 1e-12]
                if low:
                    failures.append(f"golden: Fekete bound below the closed form at N = {low}")
                continue
            sofic = doc["system"]["sofic"]
            a = oracles.exponents_from_bases(sofic["bases"])
            for n in range(1, min(4, n_max) + 1):
                words = oracles.sofic_words(sofic["vertices"], sofic["edges"], n)
                expected = math.log(oracles.nested_count_from_words(words, a))
                if abs(logs[n] - expected) > 1e-12 * max(1.0, abs(expected)):
                    failures.append(f"{label}: log S_{n} = {logs[n]}, brute force {expected}")
            _submultiplicative(logs, failures, label)
        return failures


class SpongeEstimate(Workload):
    """entropy_estimate / nested_count called directly on full-shift chains."""

    name = "sponge-estimate"
    # (label, bases, prefix counts per length, digits, potential window, n_max);
    # the last prefix count is the level-2 alphabet, enumerated to the power n_max
    cases = [
        ("rank3", (3, 4, 5), (2, 5), 12, 0, 9),
        ("rank4", (2, 3, 4, 5), (2, 4, 6), 14, 0, 8),
        ("rank3-w1", (3, 4, 5), (2, 6), 14, 1, 8),
        ("rank4-w1", (2, 3, 4, 5), (2, 3, 5), 12, 1, 9),
        ("rank3-w2", (3, 4, 5), (2, 5), 10, 2, 8),
        ("rank4-w2", (2, 3, 4, 5), (2, 3, 5), 10, 2, 8),
        # fibers of 37 and 36 digits: max_fiber^N passes 2^52 from N = 10, so the
        # exact big-integer path runs
        ("rank2-exact", (2, 64), (2,), 73, 0, 17),
    ]

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        wtp = self.wtp
        self.chains = []
        for label, bases, shape, size, window, n_max in self.cases:
            digits = random_sponge_digits(rng, bases, shape, size)
            table = None
            if window == 1:
                table = {d: rng.gauss(0.0, 1.0) for d in digits}
                potential = wtp.Potential(window=1, table={(d,): v for d, v in table.items()})
            elif window == 2:
                table = {(x, y): rng.gauss(0.0, 1.0) for x in digits for y in digits if rng.random() < 0.5}
                potential = wtp.Potential(window=2, table=table)
            else:
                potential = None
            chain = wtp.SpongeChain(wtp.validate_digit_system(bases, digits))
            a = wtp.exponents_from_bases(bases)
            self.chains.append((label, bases, digits, table, window, n_max, chain, a, potential))

    def ops(self, tracer=None) -> list:
        estimator = self.wtp.estimator
        out = []
        for label, _b, _d, _t, window, n_max, chain, a, potential in self.chains:
            if window >= 2:
                # entropy_estimate starts at N = 1, where window 2 cannot be evaluated
                def op(chain=chain, a=a, potential=potential, n_max=n_max):
                    return {n: estimator.nested_count(chain, a, potential, n).log_value
                            for n in range(2, n_max + 1)}
            else:
                def op(chain=chain, a=a, potential=potential, n_max=n_max):
                    series = estimator.entropy_estimate(chain, a, potential, n_max=n_max)
                    return {n: n * v for n, v in series.entries}
            out.append((label, op))
        return out

    def check(self, outputs: dict) -> list[str]:
        failures = []
        for label, bases, digits, table, window, n_max, *_ in self.chains:
            if label not in outputs:
                continue
            logs = outputs[label]
            first = 2 if window >= 2 else 1
            if sorted(logs) != list(range(first, n_max + 1)):
                failures.append(f"{label}: series does not cover N = {first}..{n_max}")
                continue
            a = oracles.exponents_from_bases(bases)
            if window <= 1:
                # the nested count factorizes on full shifts: S_N = Z_0^N
                log_z0 = math.log(oracles.nested_sum(digits, a, table))
                for n, log_s in logs.items():
                    if abs(log_s / n - log_z0) > 1e-9:
                        failures.append(f"{label}: log S_{n}/{n} = {log_s / n}, log Z_0 = {log_z0}")
                continue
            log_z0 = math.log(oracles.nested_sum(digits, a))
            w1 = oracles.weight_w1(a)
            values = list(table.values()) + [0.0]
            lo, hi = w1 * min(values), w1 * max(values)
            for n, log_s in logs.items():
                excess = log_s / n - log_z0
                if not lo - 1e-9 <= excess <= hi + 1e-9:
                    failures.append(f"{label}: log S_{n}/{n} - log Z_0 = {excess} outside [{lo}, {hi}]")
            _submultiplicative(logs, failures, label)
        return failures


class VariationalCertify(Workload):
    """dimension, entropy and variational in process on large sponges."""

    name = "variational-certify"
    # (bases, digits); the ascent costs about |D|^2 per iteration
    cases = [
        ((6, 8, 10, 12), 400),
        ((10, 12, 14), 650),
        ((6, 8, 10, 12), 900),
        ((10, 12, 14), 1150),
        ((6, 8, 10, 12), 1400),
    ]
    commands = ("dimension", "entropy", "variational")

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.configs = []
        for bases, size in self.cases:
            pool = list(itertools.product(*(range(m) for m in bases)))
            digits = sorted(rng.sample(pool, size))
            table = {d: rng.gauss(0.0, 1.0) for d in digits}
            doc = {
                "system": {"sponge": {"bases": list(bases), "digits": [list(d) for d in digits]}},
                "exponents": "from-bases",
                "potential": {"window": 1, "table": [[[list(d)], v] for d, v in table.items()]},
            }
            self.configs.append((f"r{len(bases)}-{size}", bases, digits, table, json.dumps(doc)))

    def ops(self, tracer=None) -> list:
        cli = self.wtp.cli

        def certify(text):
            return tuple(cli.run(cli.parse_config(text), c).to_json() for c in self.commands)

        return [(label, lambda text=text: certify(text)) for label, *_rest, text in self.configs]

    def check(self, outputs: dict) -> list[str]:
        failures = []
        for label, bases, digits, table, _text in self.configs:
            if label not in outputs:
                continue
            reports = dict(zip(self.commands, (json.loads(t) for t in outputs[label])))
            a = oracles.exponents_from_bases(bases)
            h = math.log(oracles.nested_sum(digits, a, table))
            expected = {
                "h_a_nats": h,
                "hausdorff_dimension": oracles.hausdorff_dimension(bases, digits),
                "minkowski_dimension": oracles.minkowski_dimension(bases, digits),
            }
            for command in self.commands:
                closed = reports[command]["closed_form"]
                for key, value in expected.items():
                    if not _close(closed[key], value):
                        failures.append(f"{label} {command}: {key} = {closed[key]}, expected {value}")
            v = reports["variational"]["variational"]
            if v["value"] > h + 1e-9 or abs(v["value"] - h) > 1e-6:
                failures.append(f"{label}: variational value {v['value']} vs closed form {h}")
            probs = [p for _d, p in v["maximizer"]]
            if min(probs) < -1e-12 or abs(sum(probs) - 1.0) > 1e-9:
                failures.append(f"{label}: maximizer is not a probability vector")
            if sorted(tuple(d) for d, _p in v["maximizer"]) != digits:
                failures.append(f"{label}: maximizer is not indexed by the digit set")
        return failures


class CliCold(Workload):
    """The README's example commands, each in a fresh `python -m wtp.cli`."""

    name = "cli-cold"
    commands = [
        ("dimension", "carpet.json"),
        ("entropy", "golden_sofic.json"),
        ("estimate", "golden_sofic.json"),
        ("variational", "carpet_pressure.json"),
        ("check", "carpet.json"),
    ]

    def setup(self, seed: int) -> None:
        self.configs = {}
        for _c, name in self.commands:
            path = self.root / "configs" / name
            self.configs[name] = (path, json.loads(path.read_text()))
        # the seed fixes the order of the commands within a round
        self.order = list(self.commands)
        random.Random(seed).shuffle(self.order)

    def ops(self, tracer=None) -> list:
        child = str(Path(__file__).resolve().parent / "cli_child.py")

        def call(command, path):
            argv = ["-m", "wtp.cli"] if tracer is None else [child]
            proc = subprocess.run(
                [sys.executable, *argv, command, "--config", str(path)],
                capture_output=True, text=True, cwd=self.root, env=os.environ, timeout=120,
            )
            if tracer is not None:
                for line in proc.stderr.splitlines():
                    if line.startswith(TRACE_PREFIX):
                        tracer.add_child_trace(json.loads(line[len(TRACE_PREFIX):]))
            if proc.returncode != 0:
                raise RuntimeError(f"wtp {command} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return proc.stdout

        return [
            (command, lambda c=command, p=self.configs[name][0]: call(c, p))
            for command, name in self.order
        ]

    def check(self, outputs: dict) -> list[str]:
        failures = []
        h_golden = oracles.golden_entropy()
        for command, name in self.commands:
            if command not in outputs:
                continue
            try:
                report = json.loads(outputs[command])
            except json.JSONDecodeError:
                failures.append(f"{command}: output is not JSON")
                continue
            doc = self.configs[name][1]
            if command == "dimension":
                sponge = doc["system"]["sponge"]
                bases, digits = sponge["bases"], [tuple(d) for d in sponge["digits"]]
                closed = report["closed_form"]
                expected = {
                    "h_a_nats": oracles.carpet_entropy(),
                    "hausdorff_dimension": oracles.hausdorff_dimension(bases, digits),
                    "minkowski_dimension": oracles.minkowski_dimension(bases, digits),
                }
                for key, value in expected.items():
                    if not _close(closed[key], value):
                        failures.append(f"dimension: {key} = {closed[key]}, expected {value}")
            elif command in ("entropy", "estimate"):
                if not _close(report["closed_form"]["h_a_nats"], h_golden):
                    failures.append(f"{command}: closed form {report['closed_form']['h_a_nats']} != {h_golden}")
                if command == "estimate":
                    low = [r["n"] for r in report["estimate_series"] if r["fekete_bound"] < h_golden - 1e-12]
                    if low or not report["estimate_series"]:
                        failures.append(f"estimate: Fekete bound below the closed form at N = {low}")
            elif command == "variational":
                sponge = doc["system"]["sponge"]
                digits = [tuple(d) for d in sponge["digits"]]
                table = {d: 0.0 for d in digits}
                for (word, value) in doc["potential"]["table"]:
                    table[tuple(word[0])] = value
                h = math.log(oracles.nested_sum(digits, oracles.exponents_from_bases(sponge["bases"]), table))
                value = report["variational"]["value"]
                if value > h + 1e-9 or abs(value - h) > 1e-6:
                    failures.append(f"variational: value {value} vs closed form {h}")
            elif command == "check":
                if not report["checks"] or not all(c["passed"] for c in report["checks"]):
                    failures.append("check: not every invariant check passed")
        return failures


WORKLOADS = {w.name: w for w in (SoficEstimate, SpongeEstimate, VariationalCertify, CliCold)}
