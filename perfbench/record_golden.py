"""Record golden.json: the semantic projection of every default-seed input.

    python3 perfbench/record_golden.py

Run it only at a commit whose reports are known to be right; the benchmark
compares every default-seed report against this file. Each report is first
checked against the independent oracle, and nothing is written if one fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import worker
from checks import GOLDEN_PATH, Checker, argv_key, projection
from workloads import DEFAULT_SEED, WORKLOADS, generate


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        path = os.path.join(tmp, "report.json")
        for name, workload in WORKLOADS.items():
            checker = Checker(workload.allowed_findings, None)
            _warmup, inputs = generate(name, DEFAULT_SEED)
            golden[name] = {}
            for argv in inputs:
                rc, _seconds = worker.report_once(argv, path)
                body = worker.read_body(path) if rc == 0 else None
                problems = checker.problems(argv, rc, body)
                if problems:
                    print(f"{argv_key(argv)}: {problems}", file=sys.stderr)
                    return 1
                golden[name][argv_key(argv)] = projection(body)
            print(f"{name}: {len(inputs)} inputs")
    # one input per line, so that a change in one report shows as one changed line
    lines = []
    for name in sorted(golden):
        entries = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden[name].items())]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(entries) + "\n }")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
