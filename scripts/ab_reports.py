#!/usr/bin/env python3
"""In-process A/B of two source trees on one benchmark workload.

Usage: python scripts/ab_reports.py WORKLOAD SRC_A SRC_B [--rounds 10] [--seed 1]

Each round runs the workload's distinct inputs through ``qwitness.cli.main``
once per tree, each tree in a fresh interpreter, alternating which tree goes
first. Every input is reported once untimed, then once timed, into a
temporary file. Prints the median milliseconds per report of each tree in
each round, then the median over rounds, then what a no-regression rule
reads: how many rounds B was faster than A, and the distance between the
quartiles of A's round medians, to set against the gap between the two
medians. The two runs of a round follow each other, so a drift in host speed
across rounds moves both; the median and quartiles of the per-round B/A
ratio are printed last, and they are not widened by that drift the way A's
spread is. Inputs come from ``perfbench/workloads.py``, which is only read.

Each run also hashes every report it writes. When a run's report bytes
differ from the first run's on some input, the script stops with exit
status 1 and names the first such input, so every A/B is also a byte check.
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
import hashlib, json, os, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from workloads import generate
from qwitness.cli import main
_warmup, inputs = generate(sys.argv[2], int(sys.argv[3]))
distinct = list({tuple(argv): list(argv) for argv in inputs}.values())
out = os.path.join(tempfile.mkdtemp(), "report.json")
times, digests = [], []
for argv in distinct:
    main(argv + ["--out", out])
    start = time.perf_counter()
    main(argv + ["--out", out])
    times.append(time.perf_counter() - start)
    with open(out, "rb") as fh:
        digests.append(hashlib.sha256(fh.read()).hexdigest())
os.remove(out)
os.rmdir(os.path.dirname(out))
print(json.dumps({"argv": distinct, "times": times, "sha256": digests}))
"""


def run_side(src: str, workload: str, seed: int) -> dict:
    """One fresh interpreter's pass over the distinct inputs."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "perfbench"), workload, str(seed)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def first_difference(run: dict, first: dict) -> list[str] | None:
    """The first input whose report bytes differ between two runs, else None."""
    for argv, digest, expected in zip(first["argv"], run["sha256"], first["sha256"]):
        if digest != expected:
            return argv
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sides = {"A": args.src_a, "B": args.src_b}
    medians = {"A": [], "B": []}
    first = None
    for k in range(args.rounds):
        for side in ("A", "B") if k % 2 == 0 else ("B", "A"):
            run = run_side(sides[side], args.workload, args.seed)
            first = first or run
            differs = first_difference(run, first)
            if differs is not None:
                sys.exit(f"{side}'s reports differ from the first run's on: {' '.join(differs)}")
            medians[side].append(1000.0 * statistics.median(run["times"]))
        print(f"round {k + 1}: A {medians['A'][-1]:.3f} ms  B {medians['B'][-1]:.3f} ms",
              flush=True)
    a, b = (statistics.median(medians[side]) for side in ("A", "B"))
    print(f"median over {args.rounds} rounds: A {a:.3f} ms  B {b:.3f} ms  (B/A {b / a:.3f})")
    wins = sum(map(float.__gt__, medians["A"], medians["B"]))
    print(f"B faster in {wins} of {args.rounds} rounds; median gap A - B {a - b:.3f} ms")
    if args.rounds > 1:
        q1, _, q3 = statistics.quantiles(medians["A"], n=4, method="inclusive")
        print(f"A interquartile spread {q3 - q1:.3f} ms ({q1:.3f} to {q3:.3f} ms)")
        ratios = list(map(float.__truediv__, medians["B"], medians["A"]))
        q1, mid, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        print(f"per-round B/A: median {mid:.3f}, quartiles {q1:.3f} to {q3:.3f}")


if __name__ == "__main__":
    main()
