"""Every top-level function in src/spdeg, and every method and property of a
class there other than the dunder methods, is used by other code in src/ (not
counting the re-exports of __init__.py), is a bench/launch.py span, or is in
the README's Library block.  Test-only references belong in tests/oracles.py
or tests/helpers.py.  Importing the CLI stays cheap: no module with a large
import cost at start-up.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import bench_launch
from test_readme import library_block

ROOT = Path(__file__).resolve().parents[1]


def _span_names():
    """The function, class and method names of the spans ("ExpPoly.limit" gives two)."""
    return {name for _, _, attr in bench_launch().SPANS for name in attr.split(".")}


def _units(tree):
    """(statement, label suffix or None): each top-level statement, and each statement of
    a class body apart; a suffix marks a function or a non-dunder method or property."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield ast.Tuple([*stmt.bases, *stmt.decorator_list]), None
            for member in stmt.body:
                public = isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                yield member, f"{stmt.name}.{member.name}" if public else None
        else:
            yield stmt, stmt.name if isinstance(stmt, ast.FunctionDef) else None


def _src_callers():
    """{label: (name, has a use in src/)} for each function, method and property of _units."""
    defs, names = [], []  # names: the identifiers of each unit of _units
    for path in sorted((ROOT / "src" / "spdeg").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt, label in _units(ast.parse(path.read_text(encoding="utf-8"))):
            names.append({n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                          if isinstance(n, (ast.Name, ast.Attribute))})
            if label:
                defs.append((f"{path.stem}.{label}", stmt.name, len(names) - 1))
    return {label: (name, any(name in n for i, n in enumerate(names) if i != own))
            for label, name, own in defs}


def test_every_src_function_has_a_use_outside_the_tests():
    used = _span_names() | set(re.findall(r"\w+", library_block()))
    callers = _src_callers()
    assert "tensor.Bracket.apply" in callers  # methods are seen
    unused = [label for label, (name, in_src) in callers.items() if name not in used and not in_src]
    assert unused == []


def test_span_only_functions_are_listed():
    # kept in src/ only because a bench/launch.py span resolves them by name: no caller in
    # src/ and no Library use; the next benchmark change drops their spans and moves them out
    library = set(re.findall(r"\w+", library_block()))
    span_only = {label for label, (name, in_src) in _src_callers().items()
                 if name in _span_names() and name not in library and not in_src}
    assert span_only == {"curvature.levi_civita", "degeneration.random_symplectic", "linalg.rref"}


def _fresh_stdout(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_heavy_modules_out():
    # dataclasses pulls in inspect, ast, dis and tokenize; numpy is only for the
    # binary64 oracles of the tests
    code = "import sys, spdeg.cli; print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))"
    assert _fresh_stdout(code) == "[]\n"


@pytest.mark.parametrize("argv", [["theorem-b", "--samples", "1"], ["remark-check"]],
                         ids=["theorem-b", "remark-check"])
def test_verb_runs_without_numpy(argv):
    # the witness certificates and the root count are exact: no number comes from numpy
    code = ("import contextlib, io, sys\nfrom spdeg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['--json', *{argv!r}])\n"
            "print(code, 'numpy' in sys.modules)")
    assert _fresh_stdout(code) == "0 False\n"
