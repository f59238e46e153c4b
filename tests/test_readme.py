"""README's quick starts run as written: the library block prints two
figures, and each CLI line exits 0 and writes every file it names."""

import re
import shlex
from pathlib import Path

from sectorsched import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start(title, language):
    section = README.read_text(encoding="utf-8").split(f"## Quick start ({title})", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    block = quick_start("library", "python")
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    max_relative_load, worst_revisit = map(float, printed)
    assert max_relative_load >= 1.0 and worst_revisit >= 1.0


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = quick_start("CLI", "sh").splitlines()
    assert len(lines) == 5
    side_files = []
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "sectorsched"
        assert cli.main(argv) == 0, line
        side_files += re.findall(r"\+ (\S+)", comment)
        for name in [argv[argv.index("--out") + 1]] + side_files:
            assert (tmp_path / name).is_file(), (line, name)
    assert side_files == ["p.loads.csv", "t.revisit.csv", "bench.summary.csv"]
