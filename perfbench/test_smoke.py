"""Smoke test of the benchmark itself.

    python -m pytest perfbench/test_smoke.py -q

Runs every workload at minimal size (``--size smoke``), untraced and
traced, through the command line, and checks that the last output line
names every metric of ``BENCHMARK.json`` with its unit.  Also checks that
a corrupted output fails the command, and that the command fails without
printing a result when the program is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def _command(workload: str, trace: int) -> list:
    return [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        _command(workload, trace), cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_corrupted_warm_row_fails_the_command(monkeypatch, capsys):
    import run
    from repro.service.client import SweepClient

    original = SweepClient.rows
    reads = []

    def corrupted(self, sweep_id, **filters):
        payload = original(self, sweep_id, **filters)
        reads.append(sweep_id)
        if len(reads) == 2:  # the first warm read-back; the first is cold
            payload["rows"][0]["qloss_percent"] *= 1.0 + 1e-12
        return payload

    monkeypatch.setattr(SweepClient, "rows", corrupted)
    code = run.main(_command("sweep_service", 0)[2:])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        _command("compare", 0), cwd=tmp_path, capture_output=True, text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
