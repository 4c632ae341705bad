"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench

Every workload runs in this process with its sizes shrunk to a few inputs,
plain and traced.  The pinned records describe the full-size inputs, so the
tiny runs are checked by the identities and cross-checks alone.  The plain
run must print every end-to-end metric of BENCHMARK.json by name with its
unit and fail nothing; the traced run must report every per-layer metric.
A directory holding only the benchmark must be refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Class attributes that shrink each workload to a few inputs.
TINY = {
    workloads.Verify: {"RUNS": (
        ("swap_q", {"max_bar_degree": 2, "max_poly_degree": 1,
                    "samples": 10, "degree4_samples": 10}),)},
    workloads.Splitting: {"CONFIGS": ("swap_q",), "TWISTED": 1,
                          "BARSKEW": {1: 1, 2: 1, 3: 1}},
    workloads.PBWSweep: {"TABLES": 4},
    workloads.PBWOracle: {"COUNTS": {
        "swap_q": 2, "swap_gf2": 2, "z3_unipotent_gf3": 2, "v4_gf2": 2,
        "z4_rot_q": 1}},
}


@pytest.fixture
def tiny(monkeypatch):
    for cls, sizes in TINY.items():
        for name, value in sizes.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(run, "load_pins", lambda name, seed: {})


def run_tiny(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds",
                     "1", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return lines, result


def expect_metrics(lines, result, spec):
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    assert printed["fail_ratio"] == "ratio"
    fail_line = next(line for line in lines
                     if line.startswith("metric fail_ratio "))
    assert float(fail_line.split()[2]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_prints_every_end_to_end_metric(tiny, capsys, workload):
    lines, result = run_tiny(capsys, workload, 0)
    expect_metrics(lines, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tiny, capsys, workload):
    lines, result = run_tiny(capsys, workload, 1)
    expect_metrics(lines, result, SPEC["per_layer"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert not done.stdout.strip()
