"""Canonical reports compared byte for byte with the files in tests/golden/.

Each case is one CLI invocation; its expected output was recorded once and is
never edited by hand. A change that is meant to leave reports unchanged must
keep every file identical. To re-record after an intended report change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import os
import sys
from pathlib import Path

import pytest

from qwitness.cli import ENV_QUBIT_CAP, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "analyze-recurrence-1-20": [
        "analyze", "--range", "1", "20", "--question", "recurrence", "--p", "2", "--q", "1",
    ],
    "analyze-composite-2-100": ["analyze", "--range", "2", "100", "--question", "composite"],
    "analyze-mobius-sf25": ["analyze", "--squarefree", "25", "--question", "mobius-plus-one"],
    "witness-mobius-sf25": ["witness", "--squarefree", "25", "--question", "mobius-plus-one"],
    "simulate-recurrence-1-8": [
        "simulate", "--range", "1", "8", "--question", "recurrence",
        "--p", "4", "--q", "1", "--phase-bits", "4",
    ],
    "simulate-composite-2-30": ["simulate", "--range", "2", "30", "--question", "composite"],
    "list-composite": [
        "analyze", "--list", "4,9,15,49,77,221,323,1001", "--question", "composite",
    ],
    "list-prime": ["analyze", "--list", "2,3,10,17,91,101,257,1021", "--question", "prime"],
    "list-even": ["analyze", "--list", "3,8,14,27,100,513,1022", "--question", "even"],
    "list-recurrence": [
        "analyze", "--list", "4,7,10,22,31,100,1000", "--question", "recurrence",
        "--p", "3", "--q", "1",
    ],
    "list-mobius-plus-one": [
        "analyze", "--list", "2,3,5,6,10,15,30,105,210,1001", "--question", "mobius-plus-one",
    ],
    "list-identity": ["analyze", "--list", "5,12,40,333,1000", "--question", "identity"],
    "witness-composite-2-100": ["witness", "--range", "2", "100", "--question", "composite"],
    "witness-list-composite": [
        "witness", "--list", "1,2,3,4,9,25,31,49,77,91,97,121,143,169,961,1021,1022",
        "--question", "composite",
    ],
    "witness-list-mobius-plus-one": [
        "witness", "--list", "1,2,3,5,6,7,10,14,15,21,30,35,105,210,1001,1002",
        "--question", "mobius-plus-one",
    ],
    "analyze-mobius-sf120-classical": [
        "analyze", "--squarefree", "120", "--question", "mobius-plus-one", "--no-quantum",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(tmp_path, monkeypatch, name):
    monkeypatch.delenv(ENV_QUBIT_CAP, raising=False)  # it feeds meta.options.qubit_cap
    out = tmp_path / f"{name}.json"
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    os.environ.pop(ENV_QUBIT_CAP, None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        target = GOLDEN / f"{name}.json"
        fresh = target.with_suffix(".new")
        code = main([*argv, "--out", str(fresh)])
        if code != 0:
            fresh.unlink(missing_ok=True)
            sys.exit(f"{name}: exit {code}; {target.name} left as it was")
        fresh.replace(target)
        print(f"{name}: recorded", file=sys.stderr)
