"""Layered benchmark of the netdiag operator pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 30 --trace 0

It imports netdiag from `src/` next to this directory, sets the
workload up several times (reporting the median set-up time), runs the
workload's operation in a closed loop with one caller for `--seconds`
(and at least one pass over its inputs), checks every output, and prints
as its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones, from a run that alternates
blocks of untraced and traced operations so that it also reports its
own tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One single-threaded process: pin BLAS before numpy is imported, here
# and in the CLI subprocesses that inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("synth", "diagnose", "train")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="input sizes (tiny: smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "netdiag" / "__init__.py").is_file():
        print(f"error: no netdiag sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness

    return harness.run(args, ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
