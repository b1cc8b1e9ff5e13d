"""Every function the package defines is entered by some command-line run.

``src/qwitness`` holds only what the CLI runs; reference routes and test
oracles live under ``tests/``. This runs the golden argv lists of
``test_golden`` and three more (CSV output, both formats, and a Möbius list
outside the question's domain) under ``sys.setprofile``, and checks that every
function the package's modules define, found by walking their syntax trees, is
entered at least once. A function no run enters is dead code, unless it is
named in ``UNREACHED`` with the reason it stays.
"""

import ast
import sys
from pathlib import Path

import qwitness
from qwitness.cli import ENV_QUBIT_CAP, main, make_parser
from test_golden import CASES

PACKAGE = Path(qwitness.__file__).resolve().parent

# (module file, qualified name) -> why no CLI run enters it
UNREACHED = {
    ("sequences.py", "Question.evaluate"): "abstract stub; each unfactored question overrides it",
    ("sequences.py", "Question.read"): "abstract stub; each factored question overrides it",
    ("sequences.py", "Question.describe"): "abstract stub; every question overrides it",
    ("witnesses.py", "_fault"): (
        "describes malformed marked-pair arrays, which only library callers can "
        "pass (the builders make sorted ones); test_witnesses covers it"
    ),
}

EXTRA_RUNS = {
    "csv": ["analyze", "--range", "2", "30", "--question", "composite", "--format", "csv"],
    "both": ["analyze", "--range", "2", "30", "--question", "composite", "--format", "both"],
    "mobius-outside-domain": [
        "analyze", "--list", "2,3,4,6", "--question", "mobius-plus-one",
    ],
}


def defined_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (file name, qualified name) of every def in the
    package; the first line is the first decorator's, as in the code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[str(path), first] = (path.name, prefix + child.name)
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def entered_code(runs) -> set[tuple[str, int]]:
    """(file, first line) of every package function the runs enter."""
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(None)
    return {
        (str(path), code.co_firstlineno)
        for code in seen
        if (path := Path(code.co_filename).resolve()).parent == PACKAGE
    }


def test_every_package_function_is_run_by_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_QUBIT_CAP, raising=False)
    argvs = {**CASES, **EXTRA_RUNS}
    codes = {}

    def runner(name, argv):
        def run():
            codes[name] = main([*argv, "--out", str(tmp_path / f"{name}.json")])

        return run

    make_parser.cache_clear()  # the parser is built once per process
    entered = entered_code(runner(name, argv) for name, argv in sorted(argvs.items()))
    capsys.readouterr()
    assert codes == {name: 2 if name == "mobius-outside-domain" else 0 for name in argvs}

    defined = defined_functions()
    assert set(UNREACHED) <= set(defined.values())
    unreached = {defined[key] for key in set(defined) - entered}
    assert unreached == set(UNREACHED), sorted(unreached ^ set(UNREACHED))
