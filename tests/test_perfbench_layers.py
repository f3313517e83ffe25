"""The benchmark reads netdiag through module attributes and return
shapes; a change in netdiag that breaks them must fail here rather than
in the benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS_PY = ROOT / "perfbench" / "layers.py"


def test_every_traced_attribute_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYER_CALLS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in layers.LAYER_CALLS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("workload", ["synth", "diagnose", "train"])
def test_traced_tiny_run_checks_every_output(workload):
    # A traced run at tiny sizes: every traced call and every output check
    # of the workload runs at least once.
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", "1", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
