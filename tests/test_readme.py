"""Every ```python block of README.md runs as written, so a recipe that
names a deleted or renamed function fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (first line number, source) of each block
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in
          re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


def test_readme_has_the_quick_start_and_sweep_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,source", BLOCKS,
                         ids=[f"line-{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # padded so a traceback points at the README's own line numbers
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "__readme__"})
