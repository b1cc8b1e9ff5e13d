"""Command-line front end: analyze | witness | simulate.

Configuration can come from a JSON file (--config) mirroring the flag names
with underscores; explicit flags win. Report bodies are canonical: stable
field order, floats at 12 significant digits, rationals as {num, den}, and no
wall-clock metadata, so identical configs produce byte-identical files.

Exit codes: 0 success, 2 domain error, 3 qubit cap exceeded, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from math import asin, copysign, inf, sqrt
from operator import itemgetter

from . import __version__
from .cover import DEFAULT_EXACT_THRESHOLD
from .errors import DomainError, QubitCapError
from .pipeline import (
    AnalyzeOptions,
    analyze,
    covers_dict,
    cross_check,
    minimize_covered,
    quantum_stage,
    witness_stage,
)
from .quantum import (
    DEFAULT_PHASE_BITS,
    DEFAULT_QUBIT_CAP,
    MAX_PHASE_BITS,
    amplified_state,
    grover_iterations_optimal,
    grover_run,
    quantum_count,
)
from .sequences import (
    IdentityIn,
    IsComposite,
    IsEven,
    IsPrime,
    MobiusPlusOne,
    Question,
    RecurrenceMembership,
    Sequence,
)
from .number_theory import squarefree_support
from .witnesses import coverage_check

ENV_QUBIT_CAP = "QWITNESS_QUBIT_CAP"

_DEFAULTS = {
    "qubit_cap": DEFAULT_QUBIT_CAP,
    "phase_bits": DEFAULT_PHASE_BITS,
    "exact_threshold": DEFAULT_EXACT_THRESHOLD,
    "format": "json",
    "no_quantum": False,
}

_QUESTIONS = ("recurrence", "composite", "mobius-plus-one", "even", "prime", "identity")


@dataclass(frozen=True)
class RunConfig:
    sequence: Sequence
    question: Question
    options: AnalyzeOptions
    out: str | None
    format: str


def _merged(args: argparse.Namespace) -> dict:
    """Layer defaults < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    merged["qubit_cap_explicit"] = False
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # not UTF-8, not JSON, or nested past the recursion limit
            raise DomainError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = set(loaded) - (
            set(_DEFAULTS) | {"range", "list", "squarefree", "question", "p", "q", "out"}
        )
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        if "qubit_cap" in loaded:
            merged["qubit_cap_explicit"] = True
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            if key == "qubit_cap":
                merged["qubit_cap_explicit"] = True
            merged[key] = value
    return merged


def _integer(value, name: str) -> int:
    """The one place flag, config and environment numbers are converted: an
    int or the text of one, never a JSON true or 6.9."""
    if type(value) in (int, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _build_sequence(merged: dict) -> Sequence:
    picked = [k for k in ("range", "list", "squarefree") if merged.get(k) is not None]
    if len(picked) != 1:
        raise DomainError(
            "exactly one of --range, --list, --squarefree must be given, "
            f"got {picked or 'none'}"
        )
    if picked[0] == "range":
        bounds = merged["range"]
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise DomainError(f"range needs two integers A B, got {bounds!r}")
        lo, hi = (_integer(v, "range bound") for v in bounds)
        return Sequence.from_range(lo, hi)
    if picked[0] == "list":
        values = merged["list"]
        if isinstance(values, str):
            values = [v for v in values.split(",") if v != ""]
        if not isinstance(values, (list, tuple)):
            raise DomainError(f"list needs comma-separated integers, got {values!r}")
        return Sequence.from_values([_integer(v, "list element") for v in values], label="list")
    n = _integer(merged["squarefree"], "squarefree")
    return Sequence.from_values(squarefree_support(n), label=f"squarefree[{n}]")


def _build_question(merged: dict, seq: Sequence) -> Question:
    kind = merged.get("question")
    if kind is None:
        raise DomainError("--question is required")
    if kind not in _QUESTIONS:
        raise DomainError(f"unknown question {kind!r}; pick one of {_QUESTIONS}")
    p, q = merged.get("p"), merged.get("q")
    if kind == "recurrence":
        if p is None or q is None:
            raise DomainError("the recurrence question needs --p and --q")
        return RecurrenceMembership(_integer(p, "p"), _integer(q, "q"))
    if p is not None or q is not None:
        raise DomainError(f"--p/--q only apply to the recurrence question, not {kind!r}")
    if kind == "composite":
        return IsComposite()
    if kind == "mobius-plus-one":
        return MobiusPlusOne()
    if kind == "even":
        return IsEven()
    if kind == "prime":
        return IsPrime()
    return IdentityIn(frozenset(seq.elements))


def build_config(args: argparse.Namespace) -> RunConfig:
    merged = _merged(args)
    seq = _build_sequence(merged)
    question = _build_question(merged, seq)
    qubit_cap = _integer(merged["qubit_cap"], "qubit_cap")
    ceiling = os.environ.get(ENV_QUBIT_CAP)
    if ceiling is not None:
        # the environment ceiling clamps the default but refuses an explicit
        # request above it
        limit = _integer(ceiling, ENV_QUBIT_CAP)
        if merged["qubit_cap_explicit"] and qubit_cap > limit:
            raise QubitCapError(
                f"requested qubit cap {qubit_cap} exceeds the {ENV_QUBIT_CAP} "
                f"ceiling {ceiling}"
            )
        qubit_cap = min(qubit_cap, limit)
    fmt = merged["format"]
    if fmt not in ("json", "csv", "both"):
        raise DomainError(f"unknown format {fmt!r}")
    out = merged.get("out")
    if out is not None:
        if not isinstance(out, str):
            raise DomainError(f"out must be a path or null, got {out!r}")
        try:
            # a lone surrogate has no bytes, and a path ends at a null byte
            if b"\0" in os.fsencode(out):
                raise ValueError("embedded null byte")
        except ValueError as exc:
            raise DomainError(f"out {out!r} is not a file name: {exc}") from exc
    if fmt == "both" and out is None:
        raise DomainError("--format both needs --out to place the two files")
    if fmt == "both" and _csv_path(out) == out:
        raise DomainError(f"--format both would write the CSV over the report at {out!r}")
    phase_bits = _integer(merged["phase_bits"], "phase_bits")
    if not 1 <= phase_bits <= MAX_PHASE_BITS:
        raise DomainError(f"--phase-bits must be in 1..{MAX_PHASE_BITS}, got {phase_bits}")
    exact_threshold = _integer(merged["exact_threshold"], "exact_threshold")
    if exact_threshold < 0:
        raise DomainError("--exact-threshold must be >= 0")
    no_quantum = merged["no_quantum"]
    if not isinstance(no_quantum, bool):
        raise DomainError(f"no_quantum must be true or false, got {no_quantum!r}")
    options = AnalyzeOptions(qubit_cap, phase_bits, exact_threshold, run_quantum=not no_quantum)
    return RunConfig(seq, question, options, out, fmt)


_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class _FloatText(dict):
    """Float -> its canonical JSON text, for one emission.

    Zeros are never stored: 0.0 and -0.0 are equal keys but print differently.
    """

    def __missing__(self, value: float) -> str:
        if not value:
            return "-0.0" if copysign(1.0, value) < 0 else "0.0"
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        text = self[value] = repr(float(f"{value:.12g}"))
        return text


def _scalar_texts(items: list, floats: _FloatText) -> list[str] | None:
    """The JSON text of every item when all are scalars of the plain types, else None."""
    kinds = set(map(type, items))
    if not kinds <= _SCALARS:
        return None
    if len(kinds) == 1:
        kind = kinds.pop()
        return list(map(floats.__getitem__ if kind is float else _SCALAR_TEXT[kind], items))
    return [floats[v] if type(v) is float else _SCALAR_TEXT[type(v)](v) for v in items]


def _row_texts(rows: list, inner: str, floats: _FloatText) -> list[str] | None:
    """The JSON text of every row when all are non-empty lists of scalars of
    one width, else None. Cells are converted column by column and filled into
    one row template."""
    if not all(type(row) is list for row in rows):
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    width = widths.pop()
    columns = [_scalar_texts(list(map(itemgetter(k), rows)), floats) for k in range(width)]
    if None in columns:
        return None
    cell = inner + _INDENT + "{}"
    template = "[" + ",".join([cell] * width) + inner + "]"
    return list(map(template.format, *columns))


def _encode(value, level: int, floats: _FloatText, dicts: dict) -> str:
    """``json.dumps(value, indent=2)`` at nesting ``level``, floats at 12 digits.

    Lists of scalars, and lists of rows of scalars of one width, are joined in
    one step; anything else recurses. Dict keys must be strings. ``dicts``
    keeps the text of each dict object at each level, for one emission: a
    dict that appears twice is written once.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        text = dicts.get((id(value), level))
        if text is not None:
            return text
        inner = "\n" + _INDENT * (level + 1)
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            items.append(
                f"{encode_basestring_ascii(key)}: {_encode(item, level + 1, floats, dicts)}"
            )
        text = "{" + inner + ("," + inner).join(items) + "\n" + _INDENT * level + "}"
        dicts[id(value), level] = text
        return text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "\n" + _INDENT * (level + 1)
        texts = _scalar_texts(value, floats)
        if texts is None:
            texts = _row_texts(value, inner, floats)
        if texts is None:
            texts = [_encode(item, level + 1, floats, dicts) for item in value]
        return "[" + inner + ("," + inner).join(texts) + "\n" + _INDENT * level + "]"
    if isinstance(value, bool) or value is None:
        return _SCALAR_TEXT[type(value)](value)
    if isinstance(value, float):
        return floats[float(value)]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_json(body_key: str, body: dict, command: str, config: RunConfig) -> str:
    """The canonical report text: ``json.dumps(indent=2)`` with every float
    rounded to 12 significant digits, written in one pass."""
    options = config.options
    envelope = {
        "meta": {
            "generator": f"qwitness {__version__}",
            "command": command,
            "options": {
                "qubit_cap": options.qubit_cap,
                "phase_bits": options.phase_bits,
                "exact_threshold": options.exact_threshold,
                "no_quantum": not options.run_quantum,
            },
        },
        body_key: body,
    }
    return _encode(envelope, 0, _FloatText(), {}) + "\n"


def _write(path: str | None, payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def _csv_path(out: str) -> str:
    base, _ext = os.path.splitext(out)
    return base + ".csv"


def cmd_analyze(config: RunConfig) -> int:
    report = analyze(config.sequence, config.question, config.options)
    body = report.to_dict()
    body["findings"] = cross_check(report)
    if config.format in ("json", "both"):
        _write(config.out, emit_json("report", body, "analyze", config))
    if config.format in ("csv", "both"):
        path = config.out if config.format == "csv" else _csv_path(config.out)
        _write(path, report.bits.to_csv())
    return 0


def cmd_witness(config: RunConfig) -> int:
    _bits, relation, _faithful = witness_stage(config.sequence, config.question)
    coverage = coverage_check(relation)
    mini = minimize_covered(relation, coverage, config.options.exact_threshold)
    body = {
        "relation": relation.to_json_dict(),
        "coverage": {
            "uncovered": list(coverage.uncovered),
            "multiply_witnessed": [list(x) for x in coverage.multiply_witnessed],
            "shared_witnesses": [list(x) for x in coverage.shared_witnesses],
        },
        "covers": covers_dict(mini, certificate=False),
    }
    _write(config.out, emit_json("witness", body, "witness", config))
    return 0


def cmd_simulate(config: RunConfig) -> int:
    _bits, relation, _faithful = witness_stage(config.sequence, config.question)
    if not relation.candidates:
        raise DomainError("nothing to amplify: the relation has no candidate witnesses")
    layout, oracle = quantum_stage(config.sequence.elements, relation, config.options.qubit_cap)
    # raises when nothing is marked
    iterations = grover_iterations_optimal(oracle.support, oracle.marked_count)
    trace, final = grover_run(oracle, iterations)
    body = {
        "layout": {
            "s_qubits": layout.s_qubits,
            "w_qubits": layout.w_qubits,
            "flag_qubits": layout.flag_qubits,
            "total_qubits": layout.total_qubits,
        },
        "support": oracle.support,
        "marked_pairs": oracle.marked_count,
        "optimal_iterations": iterations,
        "grover_trace": trace,
        "grover_angle": asin(sqrt(oracle.marked_count / oracle.support)),
        "counting": quantum_count(oracle, config.options.phase_bits).to_json_dict(),
        # nonzero amplitudes of the amplified state as (basis index, re, im)
        "amplified_state": amplified_state(final, oracle, layout).to_json_entries(),
    }
    _write(config.out, emit_json("simulate", body, "simulate", config))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file mirroring the flags; flags win")
    parser.add_argument("--range", nargs=2, type=int, metavar=("A", "B"),
                        help="analyze the integers A..B inclusive")
    parser.add_argument("--list", dest="list", metavar="V1,V2,...",
                        help="explicit comma-separated ascending elements")
    parser.add_argument("--squarefree", type=int, metavar="N",
                        help="the first N squarefree integers")
    parser.add_argument("--question", choices=_QUESTIONS)
    parser.add_argument("--p", type=int, help="recurrence multiplier")
    parser.add_argument("--q", type=int, help="recurrence offset / residue")
    parser.add_argument("--qubit-cap", dest="qubit_cap", type=int,
                        help="register budget for the quantum stage "
                             f"(default {DEFAULT_QUBIT_CAP})")
    parser.add_argument("--phase-bits", dest="phase_bits", type=int,
                        help=f"counting precision t, 1..{MAX_PHASE_BITS} "
                             f"(default {DEFAULT_PHASE_BITS})")
    parser.add_argument("--exact-threshold", dest="exact_threshold", type=int,
                        help="max targets for exact minimization; greedy with "
                             f"an explicit tag above it (default {DEFAULT_EXACT_THRESHOLD})")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv", "both"))
    parser.add_argument("--no-quantum", dest="no_quantum", action="store_const",
                        const=True, help="classical stages only")


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qwitness",
        description="Witness-set compressibility and randomness analysis of "
                    "question-derived bitstrings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("analyze", "full report: bitstring, covers, verdict, quantum cross-checks"),
        ("witness", "emit the witness relation and cover solutions only"),
        ("simulate", "run only the quantum stage on the question's relation"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        handler = {"analyze": cmd_analyze, "witness": cmd_witness, "simulate": cmd_simulate}
        return handler[args.command](config)
    except QubitCapError as exc:
        print(f"qwitness: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"qwitness: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qwitness: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
