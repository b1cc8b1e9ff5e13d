"""qwitness benchmark: seeded `analyze` workloads through `qwitness.cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload composite-range --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics of an untraced closed loop;
`--trace 1` prints the per-layer metrics of a traced run over a fixed number of
reports. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A summary of the run, with the
environment it ran in, goes to `.perfbench_out/<workload>-seed<seed>-trace<k>/`.

Each number comes from child processes started here, one at a time: set-up is
measured in SETUP_SAMPLES fresh processes (the last of which runs the timed
loop), from just before the process is started to just before its first timed
report, and `setup_s` is their median. Set-up includes the interpreter, the
numpy and qwitness imports, input generation and one warm-up report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS, TRACED  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
TAIL_MIN_BEYOND = 10
# every child must end within this many seconds of the start, so that the
# whole command ends within three minutes
DEADLINE_S = 165.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child(mode: str, args, out_dir: str, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion: (its result, seconds to ready)."""
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", out_dir]
    started = monotonic()
    try:
        # run() kills the worker and waits for it when the timeout expires
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least TAIL_MIN_BEYOND
    samples above it: the (TAIL_MIN_BEYOND + 1)-th largest sample, at nearest
    rank. It moves smoothly with the sample count, so a run that completes a
    few more reports does not jump to another fixed percentile. Below
    2 * TAIL_MIN_BEYOND samples that would fall under the median, which is
    reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_MIN_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1]


def commit_of(root: str) -> str | None:
    """The commit checked out at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over the package sources, naming the code measured without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "qwitness")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, out_dir: str, deadline: float) -> tuple[dict, dict, dict]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        _result, ready = child("setup", args, out_dir, deadline)
        setups.append(ready)
    result, ready = child("measure", args, out_dir, deadline)
    setups.append(ready)
    times, problems = result["times"], result["problems"]
    ok = sum(1 for p in problems if not p)
    percentile, tail_value = tail(times)
    metrics = {
        "report_s.p50": metric(statistics.median(times), "s"),
        "report_s.tail": metric(tail_value, "s"),
        "reports_per_s": metric(ok / result["elapsed"], "1/s"),
        "peak_rss_mib": metric(result["peak_rss_kib"] / 1024.0, "MiB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    details = {
        "reports": len(times),
        "tail_percentile": percentile,
        "setup_samples_s": setups,
        "timed_run_s": result["elapsed"],
    }
    return metrics, details, result


def per_layer(args, out_dir: str, deadline: float) -> tuple[dict, dict, dict]:
    result, _ready = child("trace", args, out_dir, deadline)
    k = result["reports"]
    traced = result["traced_s"]
    metrics = {}
    for layer in LAYERS:
        self_s = result["self_s"][layer]
        metrics[f"{layer}.self_s"] = metric(self_s / k, "s")
        metrics[f"{layer}.share"] = metric(self_s / traced, "ratio")
    for layer, name in TRACED:
        key = f"{layer}.{name}"
        metrics[f"{key}.calls"] = metric(result["calls"][key] / k, "count")
        metrics[f"{key}.s"] = metric(result["seconds"][key] / k, "s")
    metrics.update(result["counters"])
    metrics["trace.overhead_s"] = metric((traced - result["untraced_s"]) / k, "s")
    metrics["trace.attributed_share"] = metric(
        sum(result["self_s"].values()) / traced, "ratio")
    details = {"reports_per_pass": k, "missing_functions": result["missing"],
               "spans": os.path.join(out_dir, "spans.jsonl")}
    return metrics, details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qwitness benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qwitness", "cli.py")):
        print(f"perfbench: no qwitness sources under {ROOT}/src", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        if args.trace:
            metrics, details, result = per_layer(args, out_dir, deadline)
        else:
            metrics, details, result = end_to_end(args, out_dir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems = result["problems"]
    failed = sum(1 for p in problems if p)
    summary = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **result["environment"],
            "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "commit": commit_of(ROOT),
            "source_sha256": source_digest(ROOT),
        },
        "details": details,
        "failed_ratio": failed / len(problems),
        "failures": sorted({p for p in problems if p})[:20],
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    warmup = os.path.join(out_dir, "warmup.json")
    if os.path.exists(warmup):
        os.remove(warmup)

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in details.items():
        print(f"# {name}: {value}")
    print(f"# failed_ratio: {summary['failed_ratio']}")
    for problem in summary["failures"]:
        print(f"# FAILED: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
