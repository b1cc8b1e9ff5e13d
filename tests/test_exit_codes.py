"""A bounded fuzz of the exit-code contract.

Whatever the argv, the config file (raw bytes included) and
``QWITNESS_QUBIT_CAP``, the CLI exits 0, 2, 3 or 4 with a ``qwitness:`` or
usage message on failure, and never ends in a traceback. Every run is in
this process. Every drawn size is small: ranges of at most 100 integers,
lists of at most 32 elements below 10^9 (or past the sieve guard, which
refuses them before anything is sieved), ``--squarefree`` at most 300, a
valid ``--phase-bits`` at most 10 and an ``--exact-threshold`` at most 12,
so no run allocates more than a few MiB.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.cli import ENV_QUBIT_CAP, main

QUESTIONS = ("recurrence", "composite", "mobius-plus-one", "even", "prime", "identity")

small = st.integers(-3, 300)
# below 10^9 the sieve reaches 31623; the large ones are refused by the guard
element = st.one_of(st.integers(-2, 10**9), st.sampled_from([10**17, 2**64 - 1, 2**64]))
junk = st.sampled_from(["", "x", "1.5", "-", "0x10", " 7 ", "1_0", "٣", "9" * 5000])
out_name = st.sampled_from(["r.json", "r.csv", "r", "missing/r.json", ""])
question = st.sampled_from(QUESTIONS)
texts = small.map(str) | junk


@st.composite
def bounded_range(draw):
    lo = draw(st.integers(-3, 400) | st.integers(10**5, 10**6))
    return [lo, lo + draw(st.integers(-3, 99))]


def comma_list(values):
    return ",".join(map(str, values))


ascending = st.lists(element, max_size=32, unique=True).map(sorted)

FLAGS = {
    "--range": bounded_range().map(lambda r: ["--range", *map(str, r)])
    | st.lists(texts, max_size=3).map(lambda v: ["--range", *v]),
    "--list": ascending.map(lambda v: ["--list", comma_list(v)])
    | st.lists(element.map(str) | junk, max_size=4).map(lambda v: ["--list", comma_list(v)]),
    "--squarefree": texts.map(lambda v: ["--squarefree", v]),
    "--question": (question | junk).map(lambda v: ["--question", v]),
    "--p": texts.map(lambda v: ["--p", v]),
    "--q": texts.map(lambda v: ["--q", v]),
    "--qubit-cap": (st.integers(-3, 70).map(str) | junk).map(lambda v: ["--qubit-cap", v]),
    "--phase-bits": (st.integers(-2, 10) | st.sampled_from([21, 40, 10**20]))
    .map(lambda v: ["--phase-bits", str(v)]),
    "--exact-threshold": st.integers(-2, 12).map(lambda v: ["--exact-threshold", str(v)]),
    "--out": out_name.map(lambda v: ["--out", v]),
    "--format": st.sampled_from(["json", "csv", "both", "xml"]).map(lambda v: ["--format", v]),
    "--no-quantum": st.just(["--no-quantum"]),
    "stray": st.sampled_from([["--bogus"], ["7"], ["--range", "1"], ["--config"]]),
}
OPTIONS = ["--qubit-cap", "--phase-bits", "--exact-threshold", "--out", "--format", "--no-quantum"]


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(["analyze", "witness", "simulate"]))]
    if draw(st.integers(0, 3)):
        # a well-formed core, so that most runs get past validation
        argv += draw(FLAGS[draw(st.sampled_from(["--range", "--list", "--squarefree"]))])
        kind = draw(question)
        argv += ["--question", kind]
        if kind == "recurrence":
            argv += ["--p", str(draw(st.integers(2, 9))), "--q", str(draw(st.integers(0, 1)))]
    for flag in draw(st.lists(st.sampled_from(OPTIONS), max_size=3)):
        argv += draw(FLAGS[flag])
    if not draw(st.integers(0, 3)):
        argv += draw(FLAGS[draw(st.sampled_from(sorted(FLAGS)))])
    return argv


scalar = st.none() | st.booleans() | small | st.floats(-1e3, 1e3) | junk
value = st.recursive(
    scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(junk, inner, max_size=2),
    max_leaves=6,
)
CONFIG_KEYS = {
    "range": bounded_range() | st.lists(small | junk, max_size=3) | value,
    "list": ascending | ascending.map(comma_list) | value,
    "squarefree": small | value,
    "question": question | value,
    "p": small | value,
    "q": small | value,
    "qubit_cap": st.integers(-3, 70) | value,
    "phase_bits": st.integers(-2, 10) | st.sampled_from([21, 40]) | value,
    "exact_threshold": st.integers(-2, 12) | value,
    "format": st.sampled_from(["json", "csv", "both"]) | value,
    "no_quantum": st.booleans() | value,
    "out": out_name | st.sampled_from(["a\x00b", "a\ud800b", "a\udc80b", 7]) | value,
    "bogus": value,
}
configs = st.one_of(
    st.none(),
    st.none(),
    st.fixed_dictionaries({}, optional=CONFIG_KEYS).map(lambda d: json.dumps(d).encode()),
    st.binary(max_size=48),
    st.sampled_from([
        b'\xff\xfe{"range": [2, 9], "question": "even"}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"list": ' + b"[" * 900 + b"]" * 900 + b', "question": "even"}',
        b'{"range": [2, 9], "question": "even", "p": ' + b"9" * 5000 + b"}",
        b"\xef\xbb\xbf{}",
    ]),
)
env_values = st.none() | st.sampled_from(["", "abc", "-1", "0", "5", "24", "64", " 12 ", "1e3"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit-codes")


@given(argv=argvs(), config=configs, env=env_values)
@settings(max_examples=150, deadline=None)
def test_every_input_exits_with_a_documented_code(workdir, argv, config, env):
    if config is not None:
        (workdir / "cfg.json").write_bytes(config)
        argv = [*argv, "--config", "cfg.json"]
    environ = {} if env is None else {ENV_QUBIT_CAP: env}
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # relative --out paths land here
    try:
        with mock.patch.dict(os.environ, environ), redirect_stdout(out), redirect_stderr(err):
            if env is None:
                os.environ.pop(ENV_QUBIT_CAP, None)
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse refusing the command line
                code = stop.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code:
        assert err.getvalue().startswith(("qwitness: ", "usage: ")), (argv, err.getvalue())
