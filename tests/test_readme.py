"""README's library quick start runs as written and prints two figures."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    max_relative_load, worst_revisit = map(float, printed)
    assert max_relative_load >= 1.0 and worst_revisit >= 1.0
