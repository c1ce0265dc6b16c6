"""Every report on the shipped configs is pinned by the sha256 of its bytes.

Core claims:
    - `wtp dimension`, `entropy`, `estimate`, `variational` and `check` on
      each shipped config print exactly the pinned report (14 reports), so
      the README's bit-for-bit promise holds across refactors
    - `variational` on the sofic config exits 1 with one error line
    - every setting of a run is in its report's echoed config: rerun on
      that config, each pinned report, and a golden estimate with its own
      `n_max` and budget, prints the same bytes

An intended report change updates its pin here and records in CHANGES.md
why the bytes changed.
"""
import hashlib
import json
import os

import pytest

from wtp.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# sha256 of the standard output of `wtp <command> --config configs/<name>`
REPORT_SHA256 = {
    ("carpet.json", "dimension"): "00aba8f4d0de0d56e7d4a976435087a0d6bc0f30ca1073ce21e8a2fca879c531",
    ("carpet.json", "entropy"): "8810f09c21ffb9c9dc148160389456eae0d7c74c18a8c6bfb466ae85ce36aef9",
    ("carpet.json", "estimate"): "a9fa30ef7811465cf04f42bc114c59be98dad1ec7011e3bed60492c043449d2e",
    ("carpet.json", "variational"): "42f8e561580d1f41aaf2893cb3e4983aeb1c9d703abae3fe2d721a5c53302280",
    ("carpet_pressure.json", "dimension"): "6ecc9dce75e8c338422fb83ceb4bc7e4bff511d6c31d05515c3f10762477c630",
    ("carpet_pressure.json", "entropy"): "d325f8bb1ba13338f994fd3f7e8a84faedcd5151f19545fb855c15f144085eee",
    ("carpet_pressure.json", "estimate"): "b6980341fc8b3447ad6841a9af46680c038abe32f98c4568265fb971fbe10c07",
    ("carpet_pressure.json", "variational"): "48f1507d1a8a25519fe7e86e8c106dbdaeb7431de522259167c145d6b23534cb",
    ("golden_sofic.json", "dimension"): "669e817428bf01b4ef88df16f02399eaae9d93866b3b2aecfa657a9badb35f8a",
    ("golden_sofic.json", "entropy"): "810750339e3a0b04336e7c8aa01e805e1028fe285626e0a376906f9f609f46af",
    ("golden_sofic.json", "estimate"): "1e154e3138f2aa6c54424d6375bb3389af19872d252bc8fec5fc16f269eea4d2",
    ("carpet.json", "check"): "fffe12e123099ebae06435ba2515204341064bcbb1cba025f5d4f2ed611bcdae",
    ("carpet_pressure.json", "check"): "d401f2f01b27fc19c500e03e21395e2c6877d872121110d9c2a9538191af356f",
    ("golden_sofic.json", "check"): "911a40fd970c38fc0c0fed5ce91876c77feb951caa5846199fc548ddc91083d9",
}


def test_every_shipped_config_is_pinned():
    configs = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".json"))
    commands = ("dimension", "entropy", "estimate", "variational", "check")
    expected = {(name, c) for name in configs for c in commands} - {("golden_sofic.json", "variational")}
    assert set(REPORT_SHA256) == expected


@pytest.mark.parametrize("name, command", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(name, command, capsys):
    assert main([command, "--config", os.path.join(CONFIG_DIR, name)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == REPORT_SHA256[name, command]


def test_sofic_variational_is_rejected(capsys):
    assert main(["variational", "--config", os.path.join(CONFIG_DIR, "golden_sofic.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: variational optimization is restricted to sponge chains\n"


def _echo_cases():
    for name, command in sorted(REPORT_SHA256):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            yield pytest.param(fh.read(), command, id=f"{name}-{command}")
    with open(os.path.join(CONFIG_DIR, "golden_sofic.json")) as fh:
        doc = json.load(fh)
    doc["estimator"] = {"n_max": 5, "budget": 1000000}
    yield pytest.param(json.dumps(doc), "estimate", id="golden_sofic.json-estimate-n_max-5")


@pytest.mark.parametrize("text, command", _echo_cases())
def test_echoed_config_reruns_to_the_same_bytes(text, command, tmp_path, capsys):
    first, second = tmp_path / "config.json", tmp_path / "echoed.json"
    first.write_text(text)
    assert main([command, "--config", str(first)]) == 0
    report = capsys.readouterr().out
    second.write_text(json.dumps(json.loads(report)["provenance"]["config"]))
    assert main([command, "--config", str(second)]) == 0
    assert capsys.readouterr().out == report
