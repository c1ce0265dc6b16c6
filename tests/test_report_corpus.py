"""Every report on the shipped configs is pinned by the sha256 of its bytes.

Core claims:
    - `wtp dimension`, `entropy`, `estimate` and `variational` on each
      shipped config, and `wtp check` on the carpet config, print exactly
      the pinned report (12 reports), so the README's bit-for-bit promise
      holds across refactors
    - `variational` on the sofic config exits 1 with one error line

An intended report change updates its pin here and records in CHANGES.md
why the bytes changed.
"""
import hashlib
import os

import pytest

from wtp.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# sha256 of the standard output of `wtp <command> --config configs/<name>`
REPORT_SHA256 = {
    ("carpet.json", "dimension"): "00aba8f4d0de0d56e7d4a976435087a0d6bc0f30ca1073ce21e8a2fca879c531",
    ("carpet.json", "entropy"): "8810f09c21ffb9c9dc148160389456eae0d7c74c18a8c6bfb466ae85ce36aef9",
    ("carpet.json", "estimate"): "a9fa30ef7811465cf04f42bc114c59be98dad1ec7011e3bed60492c043449d2e",
    ("carpet.json", "variational"): "fcd72ddccb60cfad4b2fb8aca49beb043056c36aeee4c4917eceb189a5cd3552",
    ("carpet_pressure.json", "dimension"): "6ecc9dce75e8c338422fb83ceb4bc7e4bff511d6c31d05515c3f10762477c630",
    ("carpet_pressure.json", "entropy"): "d325f8bb1ba13338f994fd3f7e8a84faedcd5151f19545fb855c15f144085eee",
    ("carpet_pressure.json", "estimate"): "b6980341fc8b3447ad6841a9af46680c038abe32f98c4568265fb971fbe10c07",
    ("carpet_pressure.json", "variational"): "226d38c2e11c2a62d371859dda8251a62061215482eda1197cb23b2b3e9b99ef",
    ("golden_sofic.json", "dimension"): "330a95d9a5a97059c29906cf0056c9d716163f3393e054c3c8739539aede8c2c",
    ("golden_sofic.json", "entropy"): "f16c92bee442cb785ea215013d8770e4b31e916de6ed4674a2218ec8be680171",
    ("golden_sofic.json", "estimate"): "27cffdd186f0864cd808a59ccf2b20d70b1474619fcc24b133da090eceba7508",
    ("carpet.json", "check"): "943de41487a36e8d8161651ec2f84b05065b30a1449804cfe4927db15c57fbae",
}


def test_every_shipped_config_is_pinned():
    configs = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".json"))
    commands = ("dimension", "entropy", "estimate", "variational")
    expected = {(name, c) for name in configs for c in commands} - {("golden_sofic.json", "variational")}
    assert set(REPORT_SHA256) == expected | {("carpet.json", "check")}


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
