"""The report emission as first written, kept as an independent oracle.

Floats are rounded to 12 significant digits in a walk over the body's dicts
and lists, and the envelope is then written by ``json.dumps(indent=2)``.
Tests compare the one-pass emitter in ``qwitness.cli`` against it.
"""

from __future__ import annotations

import json

from qwitness import __version__


def round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [round_floats(v) for v in value]
    return value


def emit_json(body_key: str, body: dict, command: str, config) -> str:
    envelope = {
        "meta": {
            "generator": f"qwitness {__version__}",
            "command": command,
            "options": {
                "qubit_cap": config.options.qubit_cap,
                "phase_bits": config.options.phase_bits,
                "exact_threshold": config.options.exact_threshold,
                "no_quantum": not config.options.run_quantum,
            },
        },
        body_key: round_floats(body),
    }
    return json.dumps(envelope, indent=2) + "\n"
