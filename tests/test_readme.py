"""README's *Library* example, run as written, so a rename in the library
fails here instead of leaving the documentation wrong."""

import re
from pathlib import Path

from binsketch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first ``python`` block under README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([
        "synth", "--classes", "20", "--programs-per-class", "5", "--functions-per-program", "8",
        "--d", "16", "--noise", "0.3", "--seed", "1",
        "--out-repo", "repo.tsv", "--out-query", "query.tsv",
    ]) == 0
    exec(compile(_library_example(), str(README), "exec"), {})
    assert (tmp_path / "repo.stru").stat().st_size > 0
