"""The README's examples run as written: every `rcar ...` line of the
"Command line" block (with the README's run file as run.cfg) and the
"Library quick start" block."""

import re
import shlex
from pathlib import Path

from rcar.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def section(title: str) -> str:
    """The README text under `## title`, up to the next `## ` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def fenced_blocks(text: str) -> list[tuple[str, str]]:
    """(language, body) of each fenced code block in text."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.M | re.S)


def commands() -> list[list[str]]:
    """The argument lists of the `rcar` lines of the command-line block,
    continuation lines joined."""
    shell = [body for lang, body in fenced_blocks(section("Command line"))
             if lang == "sh"]
    assert len(shell) == 1
    lines = shell[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rcar ")]


def test_command_line_block_lists_every_subcommand():
    names = [argv[0] for argv in commands()]
    assert set(names) == {"check", "moments", "variance", "simulate",
                          "estimate", "test", "mc", "region"}


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    run_file = [body for lang, body in fenced_blocks(section("Command line"))
                if lang == ""]
    assert len(run_file) == 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(run_file[0], encoding="utf-8")
    for argv in commands():
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_library_quick_start_runs(capsys):
    code = [body for lang, body in fenced_blocks(section("Library quick start"))
            if lang == "python"]
    assert len(code) == 1
    exec(compile(code[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
