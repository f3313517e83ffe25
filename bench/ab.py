"""Alternating-pair A/B runs of perfbench on two checkouts.

    python3 bench/ab.py PARENT CHANGE --workload synth --seeds 1901 1902 1903 --seconds 30 --out BENCH.json

PARENT and CHANGE are checkouts of the repository (git clone or git
archive).  For the k-th seed (k from 0) both sides run
`python3 perfbench/run.py --workload W --seed S --seconds T --trace X`
in their own checkout, one after the other: the parent first when k is
even, the change first when k is odd, so neither side always runs on a
warmer or cooler host.

For every metric of BENCHMARK.json (`end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`) that all runs report and some run reads
other than 0 (a layer the workload does not run reads 0), the summary holds
each side's median and quartiles (`statistics.quantiles`, exclusive
method) and, counted in the metric's better direction:

- `change_wins`: the pairs in which the change did strictly better;
- `median_gap`: parent median minus change median, positive when the
  change is better;
- `parent_iqr`: the parent's third quartile minus its first.

A metric with a `bound` in BENCHMARK.json (the share of the parent's
median by which the change may be worse) also gets:

- `relative_move`: the change median over the parent median, minus 1,
  signed so that positive is worse;
- `within_bound`: whether `relative_move` is at most the bound;
- `resolved`: whether the medians differ by more than `parent_iqr`, in
  either direction, or every change run beats every parent run.  A move
  that is not resolved is reported as unresolved, not as unchanged.

The entry also keeps every run's values, attempted and failed counts
and fingerprint, and each checkout's `src_lines`: the line count of its
`src/netdiag/*.py`, which the ROADMAP tracks next to the bench numbers,
and `src_lines_by_module`, that count per module.
`--out` names a JSON file: the entry replaces the workload's entry under
`workloads` (or `per_layer` with `--trace 1`), and every other key of an
existing file is kept.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PROTOCOL = (
    "alternating pairs: for the k-th seed (k from 0) the parent runs first when k is even and the change "
    "first when k is odd; values are perfbench's calibrated metrics"
)


def schedule(seeds: list[int]) -> list[tuple[int, tuple[str, str]]]:
    """Each seed with the order in which the two sides run on it."""
    return [(seed, SIDES if k % 2 == 0 else SIDES[::-1]) for k, seed in enumerate(seeds)]


def parse_run(stdout: str) -> dict:
    """One perfbench run: its metric values, counts and fingerprint, from
    the result line (the last line, JSON) and the `# fingerprint` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next((line.split()[-1] for line in lines if line.startswith("# fingerprint ")), None)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fingerprint": fingerprint,
    }


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles of values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per metric of `better` (name -> "lower" or "higher") that every run
    reports and some run reads other than 0: each side's spread,
    change_wins, median_gap and parent_iqr, and for a metric of `bounds`
    (name -> bound) relative_move, within_bound and resolved.
    runs[side][k] is the side's run on the k-th seed."""
    bounds = bounds or {}
    summary = {}
    for name, direction in better.items():
        values = {side: [run["metrics"].get(name) for run in runs[side]] for side in SIDES}
        every = values["parent"] + values["change"]
        if None in every or not any(every):
            continue
        sign = 1.0 if direction == "lower" else -1.0
        entry = {side: spread(values[side]) for side in SIDES}
        entry["change_wins"] = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        entry["median_gap"] = sign * (entry["parent"]["median"] - entry["change"]["median"])
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        if name in bounds:
            move = sign * (entry["change"]["median"] / entry["parent"]["median"] - 1)
            entry["relative_move"] = move
            entry["within_bound"] = move <= bounds[name]
            entry["resolved"] = abs(entry["median_gap"]) > entry["parent_iqr"] or all(
                sign * (p - c) > 0 for p in values["parent"] for c in values["change"])
        summary[name] = entry
    return summary


def workload_entry(seeds: list[int], runs: dict[str, list[dict]], better: dict[str, str],
                   bounds: dict[str, float] | None = None) -> dict:
    """The summary and every run's values, rounded to 4 decimals."""
    fingerprints = {side: [run["fingerprint"] for run in runs[side]] for side in SIDES}
    summary = summarize(runs, better, bounds)
    entry = {
        "seeds": seeds,
        "pairs": len(seeds),
        "summary": summary,
        "per_run": {
            side: {
                **{name: [run["metrics"][name] for run in runs[side]] for name in summary},
                **{key: [run[key] for run in runs[side]] for key in ("attempted", "failed", "correct")},
            }
            for side in SIDES
        },
        "fingerprints": fingerprints,
        "fingerprints_equal_on_every_seed": fingerprints["parent"] == fingerprints["change"],
    }
    return _rounded(entry)


def _rounded(value):
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def src_lines_by_module(checkout: Path) -> dict[str, int]:
    """Lines (newlines, as `wc -l` counts them) of each of the checkout's
    src/netdiag/*.py, by module name."""
    paths = sorted((checkout / "src" / "netdiag").glob("*.py"))
    return {path.stem: path.read_bytes().count(b"\n") for path in paths}


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or update")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    checkouts = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for seed, order in schedule(args.seeds):
        for side in order:
            runs[side].append(run_perfbench(checkouts[side], args.workload, seed, args.seconds, args.trace))
            print(f"seed {seed} {side}: " + " ".join(
                f"{name}={runs[side][-1]['metrics'][name]:.4g}" for name in list(better)[:5]
                if name in runs[side][-1]["metrics"]), file=sys.stderr)

    document = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    document.setdefault("protocol", PROTOCOL)
    document.setdefault("command", "python3 perfbench/run.py --workload W --seed S --seconds T --trace X, "
                                   "run from a checkout of each side")
    key = "per_layer" if args.trace else "workloads"
    by_module = {side: src_lines_by_module(checkouts[side]) for side in SIDES}
    document.setdefault(key, {})[args.workload] = {
        "seconds": args.seconds, **workload_entry(args.seeds, runs, better, bounds),
        "src_lines": {side: sum(by_module[side].values()) for side in SIDES},
        "src_lines_by_module": by_module}
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
