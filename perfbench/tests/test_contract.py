"""The command line contract of ``perfbench/run.py`` and ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_definition_is_well_formed():
    assert set(DEFINITION) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DEFINITION["command"] == ["python3", "perfbench/run.py"]
    assert DEFINITION["paths"] == ["perfbench"]
    assert isinstance(DEFINITION["run_seconds"], int) and 1 <= DEFINITION["run_seconds"] <= 60
    assert 2 <= len(DEFINITION["workloads"]) <= 8
    names = [w["name"] for w in DEFINITION["workloads"]]
    for workload in DEFINITION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = DEFINITION["end_to_end"] + DEFINITION["per_layer"]
    names += [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in DEFINITION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DEFINITION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in metrics:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in DEFINITION["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DEFINITION["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ yields no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "serial-stores", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_declared_metric(trace, section):
    done = _run(ROOT, "--workload", "serial-stores", "--seed", "8", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in DEFINITION[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())
