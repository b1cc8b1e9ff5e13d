"""One benchmark process: set up, then run reports through `qwitness.cli.main`.

Modes:
  setup    import, generate inputs, run the warm-up report, print when ready;
  measure  the same set-up, then a closed loop of untraced reports for --seconds;
  trace    the same set-up, then a fixed number of reports untraced and again
           traced, for per-layer metrics and the tracing overhead.

The loop has one client on one thread: each report starts after the previous
report file is written. BLAS and OpenMP are pinned to one thread before numpy
loads. Reports are written to separate files and checked only after the timed
loop, so checking costs no measured time.
"""

from __future__ import annotations

import os

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import qwitness  # noqa: E402
from qwitness import cli  # noqa: E402

from checks import Checker, load_golden  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402


def monotonic() -> float:
    """A clock shared by every process on the machine, so parent and child agree."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in PINNED_THREADS},
    }


def report_once(argv: list[str], path: str):
    """(exit code or error text, seconds from entering cli.main to the file written)."""
    start = time.perf_counter()
    try:
        rc = cli.main(argv + ["--out", path])
    except (Exception, SystemExit) as exc:  # a failed report, not a failed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start


def read_body(path: str) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["report"]
    except (OSError, ValueError, KeyError):
        return None


class Run:
    """Inputs, output files and checks of one worker process."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = out_dir
        self.warmup, self.inputs = generate(workload, seed)
        self.done: list[tuple[list[str], object, str]] = []  # (argv, rc, report path)

    def report(self, i: int) -> float:
        argv = self.inputs[i % len(self.inputs)]
        path = os.path.join(self.out_dir, f"r{len(self.done)}.json")
        rc, seconds = report_once(argv, path)
        self.done.append((argv, rc, path))
        return seconds

    def check(self) -> tuple[list[str], list[dict]]:
        """(problems per report, report bodies); removes the report files."""
        golden = None
        if self.seed == DEFAULT_SEED:
            golden = load_golden().get(self.workload.name, {})
        checker = Checker(self.workload.allowed_findings, golden)
        problems, bodies = [], []
        for argv, rc, path in self.done:
            body = read_body(path) if rc == 0 else None
            found = checker.problems(argv, rc, body)
            problems.append("; ".join(found))
            bodies.append(body)
            if os.path.exists(path):
                os.remove(path)
        return problems, bodies


COUNTER_UNITS = {
    "quantum.support_pairs": "count",
    "quantum.dense_amplitudes": "count",
    "quantum.support_fill": "ratio",
    "quantum.counting_bytes_computed": "B",
    "quantum.skip_ratio": "ratio",
    "cover.greedy_ratio": "ratio",
    "witnesses.marked_pairs": "count",
}


def counters(bodies: list[dict]) -> dict:
    """Exact per-report counters computed from report fields, as metrics."""
    n = len(bodies)
    support = dense = counting_bytes = marked = skipped = greedy = 0
    for body in bodies:
        if body is None:
            continue
        qb = body["quantum"]
        if qb["skipped"]:
            skipped += 1
        else:
            support += qb["support"]
            dense += 1 << qb["total_qubits"]
            counting_bytes += (1 << qb["counting"]["phase_bits"]) * qb["support"] * 16
            marked += qb["marked_pairs"]
        if body["covers"]["min_cover"]["kind"] == "GreedyCover":
            greedy += 1
    values = {
        "quantum.support_pairs": support / n,
        "quantum.dense_amplitudes": dense / n,
        # amplitudes per dense vector that the support can ever populate (flag 0 and 1)
        "quantum.support_fill": 2 * support / dense if dense else 0.0,
        "quantum.counting_bytes_computed": counting_bytes / n,
        "quantum.skip_ratio": skipped / n,
        "cover.greedy_ratio": greedy / n,
        "witnesses.marked_pairs": marked / n,
    }
    return {k: {"value": v, "unit": COUNTER_UNITS[k]} for k, v in values.items()}


def measure(run: Run, seconds: float) -> dict:
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        times.append(run.report(len(times)))
    elapsed = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems, _bodies = run.check()
    return {"times": times, "elapsed": elapsed, "peak_rss_kib": peak_kib,
            "problems": problems}


def trace(run: Run, seconds: float, spans_path: str) -> dict:
    """K reports untraced, then the same K traced; K depends on --seconds only."""
    k = math.ceil(seconds * run.workload.nominal_rate / 2)
    untraced = sum(run.report(i) for i in range(k))
    with Tracer() as tracer:
        traced = 0.0
        for i in range(k):
            tracer.report_id = i
            traced += run.report(i)
    tracer.write(spans_path)
    problems, bodies = run.check()
    return {
        "reports": k,
        "untraced_s": untraced,
        "traced_s": traced,
        "missing": tracer.missing,
        "problems": problems,
        **tracer.summary(),
        "counters": counters(bodies[k:]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(qwitness.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"qwitness imported from {qwitness.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    run = Run(args.workload, args.seed, args.out_dir)
    report_once(run.warmup, os.path.join(args.out_dir, "warmup.json"))
    result = {"ready": monotonic(), "environment": environment()}
    if args.mode == "measure":
        result.update(measure(run, args.seconds))
    elif args.mode == "trace":
        spans = os.path.join(args.out_dir, "spans.jsonl")
        result.update(trace(run, args.seconds, spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
