"""The README's Library block runs as printed and gives its commented results."""

import argparse
import re
from pathlib import Path

from spdeg.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_results():
    namespace = {}
    checked = 0
    for line in library_block().splitlines():
        code, _, expected = line.partition("#")
        if not expected:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == expected.strip(), line
        checked += 1
    assert checked == 7


def _cli_table():
    """{verb: set of --flags} from the README's CLI table, '' for the global synopsis."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    synopsis = re.search(r"```\n(spdeg .*?)\n```", section).group(1)
    table = {"": set(re.findall(r"--[\w-]+", synopsis))}
    for verb, usage in re.findall(r"^\| `([\w-]+)(.*?)` \|", section, re.M):
        table[verb] = set(re.findall(r"--[\w-]+", usage))
    return table


def _long_options(parser):
    return {s for a in parser._actions for s in a.option_strings
            if s.startswith("--") and s != "--help"}


def test_readme_cli_table_matches_parser():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    expected = {"": _long_options(parser)}
    expected.update({verb: _long_options(p) for verb, p in sub.choices.items()})
    assert _cli_table() == expected
