"""Smoke test for the benchmark: every workload at 1% size, traced and untraced.

Run from the repository root (about a minute):

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    """(result line, sidecar) per (workload, trace flag)."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--scale", "0.01")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            sidecar = json.loads((BENCH / "_run" / f"{name}-seed0-trace{trace}.json").read_text())
            out[(name, trace)] = (result, sidecar)
    return out


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_result_line_has_every_metric_with_its_unit(runs, name, trace):
    result, _ = runs[(name, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(runs, name):
    untraced, traced = runs[(name, 0)][1], runs[(name, 1)][1]
    assert untraced["output_digests"] == traced["output_digests"]
    assert len(traced["pass_seconds"]["traced"]) >= 1


def test_each_workload_reaches_its_layers(runs):
    pipeline = runs[("pipeline-15k", 1)][0]["metrics"]
    recovery = runs[("recovery-mc", 1)][0]["metrics"]
    estimate = runs[("estimate-150k", 1)][0]["metrics"]
    assert pipeline["experiment.read_csv.calls"]["value"] == 4  # one per estimate call
    assert pipeline["experiment.write_csv.bytes"]["value"] > 0
    assert pipeline["cli.main.verify.s"]["value"] > 0
    assert pipeline["verify.rows_failed"]["value"] == 0
    assert recovery["experiment.subject_stream.calls"]["value"] == 16 * 3 * 10
    assert recovery["estimation.mwu_exact.calls"]["value"] == 32
    assert recovery["experiment.write_csv.s"]["value"] == 0
    assert estimate["estimation.mwu_test.calls"]["value"] == 30
    assert estimate["estimation.tobit_right.s"]["value"] == 0
    assert pipeline["estimation.tobit_right.s"]["value"] > 0
    assert estimate["experiment.simulate_dataset.s"]["value"] == 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
