"""The benchmark's own tests, on tiny caps (degree 4, weight 4).

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _quiet(*args):
    pass


def _units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(run.SMOKE_WORKLOADS))
def test_smoke_end_to_end_metrics(name):
    r = run.run_workload(run.SMOKE_WORKLOADS[name], 1, 0, False, log=_quiet)
    assert (r.correct, r.failed, r.attempted) == (True, 0, 2), r.notes
    assert _units(r.metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in r.metrics.values())


@pytest.mark.parametrize("name", sorted(run.SMOKE_WORKLOADS))
def test_smoke_layer_metrics_and_counts_repeat(name):
    r = run.run_workload(run.SMOKE_WORKLOADS[name], 2, 1.5, True, log=_quiet)
    assert r.correct and r.failed == 0, r.notes
    assert r.attempted >= 5  # warm-up plus at least two untraced/traced pairs
    assert _units(r.metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert r.metrics["trees.calls"][0] > 0
    assert r.metrics["cli.output_bytes"][0] > 0


NEGATIVE_CONTROLS = {
    "prim-semiinf-d4": run.check_semiinf((1, 1, 3, 12)),
    "homology-w4": run.check_homology(3),
    "antipode-d4": run.check_antipode(4, 21),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_changed_constant_is_a_counted_failure(name):
    w = run.SMOKE_WORKLOADS[name]
    broken = run.Workload(w.name, w.argv, NEGATIVE_CONTROLS[name], w.warmup)
    r = run.run_workload(broken, 1, 0, False, log=_quiet)
    assert not r.correct
    assert r.attempted == 2 and r.failed == 1  # the warm-up is not gated


def test_cli_prints_result_line_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology-w4", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology-w7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
