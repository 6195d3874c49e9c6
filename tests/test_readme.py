"""The README's Library block runs as printed and gives its commented results."""

import re
from pathlib import Path

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
    assert checked == 5
