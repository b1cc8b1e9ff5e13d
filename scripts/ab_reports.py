#!/usr/bin/env python3
"""In-process A/B of two source trees on one benchmark workload.

Usage: python scripts/ab_reports.py WORKLOAD SRC_A SRC_B [--rounds 6] [--seed 1]

Each round runs the workload's distinct inputs through ``qwitness.cli.main``
once per tree, each tree in a fresh interpreter, alternating which tree goes
first. Every input is reported once untimed, then once timed, into a
temporary file. Prints the median milliseconds per report of each tree in
each round, then the median over rounds, then what a no-regression rule
reads: how many rounds B was faster than A, and the distance between the
quartiles of A's round medians, to set against the gap between the two
medians. Inputs come from ``perfbench/workloads.py``, which is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, os, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from workloads import generate
from qwitness.cli import main
_warmup, inputs = generate(sys.argv[2], int(sys.argv[3]))
distinct = list({tuple(argv): list(argv) for argv in inputs}.values())
out = os.path.join(tempfile.mkdtemp(), "report.json")
times = []
for argv in distinct:
    main(argv + ["--out", out])
    start = time.perf_counter()
    main(argv + ["--out", out])
    times.append(time.perf_counter() - start)
os.remove(out)
os.rmdir(os.path.dirname(out))
print(json.dumps(times))
"""


def run_side(src: str, workload: str, seed: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "perfbench"), workload, str(seed)],
        env=env, capture_output=True, text=True, check=True)
    return 1000.0 * statistics.median(json.loads(done.stdout))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sides = {"A": args.src_a, "B": args.src_b}
    medians = {"A": [], "B": []}
    for k in range(args.rounds):
        for side in ("A", "B") if k % 2 == 0 else ("B", "A"):
            medians[side].append(run_side(sides[side], args.workload, args.seed))
        print(f"round {k + 1}: A {medians['A'][-1]:.3f} ms  B {medians['B'][-1]:.3f} ms",
              flush=True)
    a, b = (statistics.median(medians[side]) for side in ("A", "B"))
    print(f"median over {args.rounds} rounds: A {a:.3f} ms  B {b:.3f} ms  (B/A {b / a:.3f})")
    wins = sum(map(float.__gt__, medians["A"], medians["B"]))
    print(f"B faster in {wins} of {args.rounds} rounds; median gap A - B {a - b:.3f} ms")
    if args.rounds > 1:
        q1, _, q3 = statistics.quantiles(medians["A"], n=4, method="inclusive")
        print(f"A interquartile spread {q3 - q1:.3f} ms ({q1:.3f} to {q3:.3f} ms)")


if __name__ == "__main__":
    main()
