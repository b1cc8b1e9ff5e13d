"""The output contract as a hash manifest: every run in tests/golden/manifest.json
must give the same exit code and the same stdout and stderr bytes.

Each entry holds one CLI argv, its exit code and the sha256 of what it wrote to
stdout and to stderr. The argvs are the distinct default-seed inputs of the
benchmark workloads under ``analyze`` and ``witness``, the list inputs under
``simulate`` as well, the cover reproducers with a high ``--exact-threshold``,
``simulate`` on composite [2, 300], the out-of-range ``--phase-bits``
values 0, 21 and 40 (exit 2), and four short ``--list`` edge cases: a
composite whose sqrt(max) is past the sieve guard (exit 2), a semiprime with
both factors past 10^5, a prime near 10^15 (sqrt(max) about 3.2 * 10^7), and
a composite list whose wide pool leaves most candidates covering no target;
then two wide self-pairing relations under ``--no-quantum``, the primes in
[1, 10^5] and the identity question on [1, 3000], where every witness is
forced.
A change that is meant to leave reports unchanged keeps every entry. To
re-record the hashes of the listed argvs after an intended report change, run
``PYTHONPATH=src python tests/test_manifest.py`` and list every changed entry.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from qwitness.cli import ENV_QUBIT_CAP, main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(argv: list[str]) -> dict:
    """One in-process run: its argv, exit code and output hashes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue())}


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def dump(entries: list[dict]) -> None:
    # one entry per line, so a re-recorded manifest diffs by run
    lines = ",\n".join(json.dumps(e) for e in entries)
    MANIFEST.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def test_every_run_matches_the_manifest(monkeypatch):
    monkeypatch.delenv(ENV_QUBIT_CAP, raising=False)  # it feeds meta.options.qubit_cap
    entries = load()
    assert entries
    for entry in entries:
        assert replay(entry["argv"]) == entry, f"output changed for {entry['argv']}"


if __name__ == "__main__":
    os.environ.pop(ENV_QUBIT_CAP, None)
    dump([replay(entry["argv"]) for entry in load()])
