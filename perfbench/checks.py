"""Correctness gate for every report the benchmark makes.

A report fails when `cli.main` raised or returned non-zero, when its findings
hold anything but the workload's expected note, when its bitstring differs from
an independent sympy oracle, or, on the default seed, when its semantic
projection differs from the one recorded at the seed commit (golden.json).

The projection holds only the fields whose meaning the ROADMAP promises to
keep; counters a later change may add to the report (for example solver
statistics in a cover certificate) stay out of it.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def projection(body: dict) -> dict:
    """The semantic fields of a report body."""
    covers = body["covers"]
    quantum = body["quantum"]
    primary = body["randomness"]["primary"]
    counting = quantum["counting"]
    return {
        "bitstring_sha256": hashlib.sha256(body["bitstring"].encode()).hexdigest(),
        "q": body["q"],
        "min_cover": [covers["min_cover"]["kind"], covers["min_cover"]["m"]],
        "exact_cover": [covers["exact_cover"]["kind"], covers["exact_cover"]["m"]],
        "m": body["compressibility"]["m"],
        "regime": body["compressibility"]["regime"],
        "paradox": body["paradox"]["detected"],
        "marked_pairs": quantum["marked_pairs"],
        "estimated_m": None if counting is None else counting["estimated_m"],
        "primary": None if primary is None else [primary["regime"], primary["schmidt_rank"]],
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Oracle:
    """Independent answers: sympy primality and Möbius, parity, the 3x+1 orbit."""

    def __init__(self):
        import sympy  # imported here: its load time belongs to no measurement

        self._isprime = sympy.isprime
        self._mobius = sympy.mobius

    def elements(self, argv: list[str]) -> list[int]:
        if "--range" in argv:
            i = argv.index("--range")
            return list(range(int(argv[i + 1]), int(argv[i + 2]) + 1))
        if "--list" in argv:
            return [int(v) for v in argv[argv.index("--list") + 1].split(",")]
        n = int(argv[argv.index("--squarefree") + 1])
        out, k = [], 1
        while len(out) < n:
            if self._mobius(k) != 0:
                out.append(k)
            k += 1
        return out

    def bitstring(self, argv: list[str], elements: list[int]) -> str:
        question = argv[argv.index("--question") + 1]
        if question == "recurrence":
            p = int(argv[argv.index("--p") + 1])
            q = int(argv[argv.index("--q") + 1])
            orbit, x = set(), 1
            while x <= max(elements):
                orbit.add(x)
                x = p * x + q
            answer = orbit.__contains__
        elif question == "composite":
            answer = lambda s: s > 1 and not self._isprime(s)
        elif question == "prime":
            answer = self._isprime
        elif question == "even":
            answer = lambda s: s % 2 == 0
        elif question == "mobius-plus-one":
            answer = lambda s: int(self._mobius(s)) == 1
        else:
            raise ValueError(f"no oracle for question {question!r}")
        return "".join("1" if answer(s) else "0" for s in elements)


class Checker:
    """Checks reports against the oracle and, when given, the golden projections."""

    def __init__(self, allowed_findings: tuple[str, ...], golden: dict | None):
        self.allowed_findings = set(allowed_findings)
        self.golden = golden
        self.oracle = Oracle()
        self._expected: dict[str, tuple[list[int], str]] = {}

    def expected(self, argv: list[str]) -> tuple[list[int], str]:
        key = argv_key(argv)
        if key not in self._expected:
            elements = self.oracle.elements(argv)
            self._expected[key] = (elements, self.oracle.bitstring(argv, elements))
        return self._expected[key]

    def problems(self, argv: list[str], rc, body: dict | None) -> list[str]:
        """Every reason this report counts as failed; empty when it is correct."""
        if rc != 0:
            return [f"exit {rc}"]
        if body is None:
            return ["no report written"]
        out = []
        unexpected = [f for f in body["findings"] if f not in self.allowed_findings]
        if unexpected:
            out.append(f"findings {unexpected}")
        elements, bits = self.expected(argv)
        if body["sequence"]["elements"] != elements:
            out.append("sequence elements differ from the input")
        elif body["bitstring"] != bits:
            out.append("bitstring differs from the oracle")
        if self.golden is not None:
            want = self.golden.get(argv_key(argv))
            if want is None:
                out.append("input missing from golden.json")
            elif projection(body) != want:
                out.append(f"projection {projection(body)} differs from golden {want}")
        return out
