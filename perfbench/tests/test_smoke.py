"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(line for line in lines if line.startswith("# fingerprint "))
    return json.loads(lines[-1]), fingerprint


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_fingerprint(workload):
    first, fp1 = _result(_run(workload, trace=0))
    second, fp2 = _result(_run(workload, trace=0))
    traced, fp3 = _result(_run(workload, trace=1))
    assert fp1 == fp2 == fp3
    for result, kind in ((first, "end_to_end"), (second, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _expected(kind)
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert all(v["value"] > 0 for v in first["metrics"].values())
    assert traced["metrics"]["tracing.attributed_pct"]["value"] >= 80.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("diagnose", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
