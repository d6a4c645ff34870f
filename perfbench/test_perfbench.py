"""Self-tests of the reader→sink benchmark.

Run from the repository root with ``python -m pytest perfbench -q``.
Each test drives ``perfbench/run.py`` as the benchmark's caller would, at
``--seconds 1`` (5 for the traced run, so its few milliseconds of wire
transit stay small next to the wall time it reconciles) so a whole run
takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Per-layer self times that, with ``bench.unaccounted_share``, must add
#: up to the traced round's wall time on the load generator's clock.
SELF_TIMES = (
    "serve.self_s", "serve.idle_s", "durable.self_s", "wal.append_s",
    "engine.self_s", "rules.condition_s", "rules.actions_s", "sql.s",
    "outbox.deliver_s", "sink.s", "checkpoint.s",
)


def _run(*args: str, cwd: str = ROOT, seconds: int = 1) -> tuple[int, str]:
    command = [sys.executable, "perfbench/run.py", "--seed", "5",
               "--seconds", str(seconds), *args]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return done.returncode, done.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _assert_units(result: dict, declared: list) -> None:
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_the_gate(workload):
    code, stdout = _run("--workload", workload, "--trace", "0")
    result = _result(stdout)
    assert code == 0, stdout
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    _assert_units(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_lost_delivery_fails_the_run():
    code, stdout = _run("--workload", "returns-revise", "--trace", "0",
                        "--drop-delivery", "3")
    result = _result(stdout)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert "FAILED" in stdout


def test_traced_self_times_reconcile_with_wall_time():
    code, stdout = _run("--workload", "hospital-sql", "--trace", "1", seconds=5)
    assert code == 0, stdout
    result = _result(stdout)
    _assert_units(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    covered = sum(metrics[name] for name in SELF_TIMES) / metrics["bench.wall_s"]
    assert abs(covered + metrics["bench.unaccounted_share"] - 1.0) <= 0.10
    assert metrics["bench.unaccounted_share"] < 0.10
    # hospital-sql exercises SQL: Rule 3 parses once per reading.
    assert metrics["sql.parses"] == metrics["wal.records"] - 1
    assert metrics["speculate.provisional"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, stdout = _run("--workload", "returns-revise", "--trace", "0",
                        cwd=str(tmp_path))
    assert code != 0
    assert '"correct"' not in stdout
