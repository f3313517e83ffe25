"""Set-up, closed loop, checks and report of one benchmark run.

Imported by run.py once netdiag's sources are on sys.path.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy

import layers
import speed
import workloads

SETUPS = 3  # set-up repeats; setup_s is their median
SETUP_PROBES = 5  # speed-kernel runs before and after each set-up
HARD_CAP_S = 150.0  # the loop never outlives this, whatever --seconds says
MAX_REPORTED_FAILURES = 5

# name -> unit.  op_ms_p75 is the tail: every workload leaves at least
# ten operations beyond it in a 30 s run (train, the slowest, about 110),
# and on a shared host p90 spread by 0.10-0.13 of its median over ten seeds.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "ops_per_s": "1/s",
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; failed operations count as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if unknown."""
    libdir = Path(numpy.__path__[0]).parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(src: Path) -> str:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    return (
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"blas_threads={blas_threads()} src_lines={src_lines}"
    )


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(workload, seconds: float, tracer, workroot: Path, meter):
    """Set up SETUPS times, then the closed loop.  Returns the set-up
    (seconds, speed factor) pairs, per-operation (seconds, speed factor,
    ok, traced) samples and the failure count; seconds are raw."""
    meter.factor(SETUP_PROBES)  # first kernel runs are cold
    setups = []
    for i in range(SETUPS):
        workdir = workroot / f"setup{i}"
        workdir.mkdir()
        before = meter.factor(SETUP_PROBES)
        t0 = perf_counter()
        if tracer is not None:
            tracer.call("setup", before, workload.set_up, workdir)
        else:
            workload.set_up(workdir)
        elapsed = perf_counter() - t0
        setups.append((elapsed, (before + meter.factor(SETUP_PROBES)) / 2))
        if i:
            shutil.rmtree(workroot / f"setup{i - 1}")

    samples: list[tuple[float, float, bool, bool]] = []
    failures = []
    # At least one pass over the inputs (two when traced: one untraced block, one traced).
    min_ops = workload.block * (1 if tracer is None else 2)
    start = perf_counter()
    k = 0
    while k < min_ops or perf_counter() - start < seconds:
        if perf_counter() - start > HARD_CAP_S:
            break
        traced = tracer is not None and (k // workload.block) % 2 == 1
        args = workload.prepare(k)
        scale = meter.factor()
        elapsed = None
        t0 = perf_counter()
        try:
            result = tracer.call("op", scale, workload.run, args) if traced else workload.run(args)
            elapsed = perf_counter() - t0
            workload.verify(k, args, result)
            ok = True
        except Exception:  # every failure is counted and reported, never fatal
            elapsed = perf_counter() - t0 if elapsed is None else elapsed
            ok = False
            failures.append(traceback.format_exc())
        samples.append((elapsed, scale, ok, traced))
        k += 1
    for text in failures[:MAX_REPORTED_FAILURES]:
        print(text, file=sys.stderr)
    return setups, samples, len(failures)


def end_to_end(setups, samples, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; `scaled=False` gives the raw figures."""

    def t(seconds, scale):
        return seconds * scale if scaled else seconds

    latencies = [t(s, f) if ok else math.inf for s, f, ok, _ in samples]
    busy = sum(t(s, f) for s, f, _, _ in samples)
    return {
        "setup_s": layers.median([t(s, f) for s, f in setups]),
        "peak_rss_mib": peak_rss_mib(),
        "op_ms_p50": percentile(latencies, 50) * 1e3,
        "op_ms_p75": percentile(latencies, 75) * 1e3,
        "ops_per_s": sum(ok for _, _, ok, _ in samples) / busy,
    }


def run(args, root: Path, src: Path) -> int:
    tracer = layers.Tracer() if args.trace else None
    workload = workloads.make(args.workload, args.seed, workloads.SIZES[args.size], src)
    (root / ".perfbench_work").mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_work"))
    complete = True
    try:
        meter = speed.Meter()
        setups, samples, failed = run_workload(workload, args.seconds, tracer, workroot, meter)
        for name, call, check in workload.probes():
            try:
                check(tracer.call(name, meter.factor(), call) if tracer is not None else call())
            except Exception:  # a failed probe is a failed check, reported
                traceback.print_exc()
                complete = False
        try:
            outcome = workload.outcome()
        except Exception:  # a failed first pass leaves the fingerprint incomplete
            traceback.print_exc()
            outcome, complete = {"fingerprint": None}, False
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(setups, samples)
        units = END_TO_END_UNITS
    else:
        untraced = [s * f for s, f, ok, traced in samples if ok and not traced]
        metrics = layers.layer_metrics(tracer.spans, untraced, outcome)
        units = layers.PER_LAYER_METRICS

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"# env {environment(src)}")
    print(f"# ops attempted={len(samples)} failed={failed} error_rate={failed / len(samples):.6f}")
    print(f"# fingerprint {workloads.digest(outcome['fingerprint'])}")
    factors = [f for _, f, _, _ in samples]
    raw = end_to_end(setups, samples, scaled=False)
    print(f"# speed factor median={layers.median(factors):.4f} min={min(factors):.4f} max={max(factors):.4f}; raw "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items() if k != "peak_rss_mib"))
    outcomes = {k: v for k, v in outcome.items() if k != "fingerprint"}
    if outcomes:
        print("# outcome " + " ".join(f"{k}={v:.6f}" for k, v in sorted(outcomes.items())))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0

