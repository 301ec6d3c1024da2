"""Tests of the benchmark harness itself. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at smoke size, traced and untraced, and must pass all
of its checks; damaged outputs must be counted as failed operations; and
without the package sources the harness must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_passes_every_check(workload, trace):
    result = bench.run_workload(workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= bench.SETUP_REPEATS + bench.MIN_PASSES
    wanted = bench.benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for name, metric in result["metrics"].items():
        if not trace or metric["unit"] == "s":
            assert metric["value"] > 0, name


def damage_output(monkeypatch, command: str, damage) -> None:
    """Make ``damage(path)`` hit the output of the second ``command``."""
    real = bench.run_cli
    seen = []

    def run_cli(args, workdir, deadline, summary=None):
        op = real(args, workdir, deadline, summary)
        if args[0] == command:
            seen.append(op)
            if len(seen) == 2:
                damage(Path(args[args.index("--out") + 1]))
        return op

    monkeypatch.setattr(bench, "run_cli", run_cli)


def test_truncated_predictions_are_a_failed_operation(monkeypatch):
    def drop_last_row(path):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))

    damage_output(monkeypatch, "predict", drop_last_row)
    result = bench.run_workload("synthf-pipeline", seed=3, seconds=0, trace=False,
                                smoke=True)
    assert not result["correct"]
    assert result["failed"] == 1


def test_model_bytes_differing_between_passes_are_a_failed_operation(monkeypatch):
    def append_space(path):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(" ")

    damage_output(monkeypatch, "train", append_space)
    result = bench.run_workload("synthc-deep", seed=3, seconds=0, trace=False,
                                smoke=True)
    assert not result["correct"]
    assert result["failed"] == 1


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    found = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "synthc-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert found.returncode != 0
    assert '"correct"' not in found.stdout
