"""The README's CLI and library examples print what the README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from cubicomb.cli import entry

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block under ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1).splitlines()


def _shown(lines: list[str]) -> str:
    """A pattern for printed text given as README lines, where a line that
    reads ``...`` stands for any run of printed lines."""
    return "".join("(?:.*\n)*?" if line.strip() == "..." else re.escape(line) + "\n" for line in lines)


def test_cli_example_prints_the_readme_lines(tmp_path, monkeypatch, capsys):
    runs: list[tuple[list[str], list[str]]] = []
    for line in _block("## CLI", "sh"):
        if line.startswith("cubicomb "):
            runs.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            runs[-1][1].append(line[2:])
    assert [argv[:2] for argv, _ in runs] == [["gen", "torus"], ["compute", "hc"], ["verify", "adin-ds"]]
    monkeypatch.chdir(tmp_path)
    for argv, shown in runs:
        assert entry(argv) == 0, argv
        printed = capsys.readouterr().out
        assert re.fullmatch(_shown(shown), printed), (argv, printed)


def test_library_example_prints_the_readme_values():
    code = _block("## Library example", "python")
    shown = [line.split("# ", 1)[1].strip() for line in code if line.startswith("print(")]
    assert len(shown) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(code), {})
    assert out.getvalue().splitlines() == shown
