"""README's examples run as written: its Python block, then its `dnahm`
shell commands in order, each exiting 0."""

import re
import shlex
from pathlib import Path

from dnahm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def commands():
    """The argv of each `dnahm ...` line of the shell blocks, continuations joined."""
    text = "\n".join(blocks("sh")).replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in text.splitlines()
        if line.startswith("dnahm ")
    ]


def test_examples_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (code,) = blocks("python")
    exec(compile(code, str(README), "exec"), {})
    argvs = commands()
    assert {argv[0] for argv in argvs} == {"example", "verify", "evolve", "spectral", "continuum"}
    for argv in argvs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
