"""The example scripts' stdout compared byte for byte with tests/golden/.

Each script runs in its own process against this checkout's sources. To
re-record after an intended change, run the script with ``PYTHONPATH=src``
and redirect its stdout to ``tests/golden/script-<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["run_worked_examples", "counting_accuracy"])
def test_script_output_matches_golden_file(name):
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        check=True,
    )
    assert run.stdout == (GOLDEN / f"script-{name}.txt").read_bytes()
