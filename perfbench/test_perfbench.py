"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import worker  # first: puts the checkout's src/ on sys.path
import qwitness.cover
import qwitness.pipeline
from checks import Checker, projection
from run import tail
from tracer import TRACED, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, generate


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload, tmp_path):
    def traced_counts():
        run = worker.Run(workload, 5, str(tmp_path))
        result = worker.trace(run, 1.0, str(tmp_path / "spans.jsonl"))
        assert result["missing"] == []
        assert not any(result["problems"])
        return result["calls"], result["counters"]

    first = traced_counts()
    assert first == traced_counts()
    calls, _counters = first
    assert calls["cli.main"] > 0 and calls["pipeline.analyze"] == calls["cli.main"]


def test_inputs_depend_on_the_seed_only():
    for name in WORKLOADS:
        assert generate(name, 3) == generate(name, 3)
        assert generate(name, 3) != generate(name, 4)


def test_traced_names_exist_and_wrappers_are_removed():
    original = qwitness.cover.min_set_cover
    with Tracer() as tracer:
        assert tracer.missing == []
        assert qwitness.pipeline.min_set_cover is not original
        assert qwitness.cover.min_set_cover is qwitness.pipeline.min_set_cover
    assert qwitness.pipeline.min_set_cover is original
    assert qwitness.cover.min_set_cover is original


def test_a_vanished_function_reports_zero_calls(tmp_path):
    traced = TRACED + (("cover", "folded_away"),)
    with Tracer(traced) as tracer:
        rc, _seconds = worker.report_once(
            ["analyze", "--range", "2", "30", "--question", "composite"],
            str(tmp_path / "r.json"))
    assert rc == 0
    summary = tracer.summary()
    assert tracer.missing == ["cover.folded_away"]
    assert summary["calls"]["cover.folded_away"] == 0
    # paradox_detect calls min_set_cover inside cover: the nested span is seen
    assert summary["calls"]["cover.min_set_cover"] == 2
    assert summary["calls"]["sequences.build_bitstring"] == 2


def test_self_time_subtracts_child_spans():
    tracer = Tracer((("pipeline", "analyze"), ("cover", "exact_cover")))
    tracer.spans = [(0, 0.0, 10.0, -1, 0), (1, 2.0, 5.0, 0, 0)]
    summary = tracer.summary()
    assert summary["self_s"]["pipeline"] == 7.0
    assert summary["self_s"]["cover"] == 3.0
    assert summary["seconds"]["pipeline.analyze"] == 10.0


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    assert tail(times) == (90.0, 90.0)
    assert tail(times[:19]) == (50.0, 10.0)


def _default_seed_report(workload, tmp_path):
    _warmup, inputs = generate(workload, DEFAULT_SEED)
    argv = inputs[0]
    path = str(tmp_path / "r.json")
    rc, _seconds = worker.report_once(argv, path)
    return argv, rc, worker.read_body(path)


def test_checker_accepts_good_and_rejects_wrong_reports(tmp_path):
    name = "sparse-lists"
    argv, rc, body = _default_seed_report(name, tmp_path)
    golden = {" ".join(argv): projection(body)}
    checker = Checker(WORKLOADS[name].allowed_findings, golden)
    assert checker.problems(argv, rc, body) == []
    assert checker.problems(argv, 2, None) == ["exit 2"]

    flipped = copy.deepcopy(body)
    bits = flipped["bitstring"]
    flipped["bitstring"] = ("1" if bits[0] == "0" else "0") + bits[1:]
    problems = checker.problems(argv, rc, flipped)
    assert "bitstring differs from the oracle" in problems

    moved = copy.deepcopy(body)
    moved["compressibility"]["regime"] = "Overcomplete"
    moved["findings"] = ["quantum stage skipped: disabled by options"]
    problems = checker.problems(argv, rc, moved)
    assert any(p.startswith("findings") for p in problems)
    assert any("differs from golden" in p for p in problems)


def test_projection_ignores_added_certificate_counters(tmp_path):
    _argv, _rc, body = _default_seed_report("mobius-classical", tmp_path)
    extended = copy.deepcopy(body)
    extended["covers"]["min_cover"]["certificate"] = {"nodes": 12, "prunes": 3}
    assert projection(extended) == projection(body)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-lists", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_prints_exactly_the_declared_metrics(trace):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if trace == "0" else "per_layer"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-lists",
         "--seed", "9", "--seconds", "1", "--trace", trace],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
