"""Every Python code block in README.md runs, so an API change cannot leave the
documentation behind."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
