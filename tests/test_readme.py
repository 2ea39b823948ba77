"""The Python examples and the command lines of README.md run as written."""

import re
import shlex
from pathlib import Path

from wgstokes import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # one namespace for all blocks: later examples reuse the quick start's names
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 4
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["solution"].report.converged
    assert namespace["rotation"].dim == 2
    assert [check.method for check in namespace["checks"]] == ["minres", "gmres"]
    assert all(check.passed for check in namespace["checks"])


def readme_commands(directory: Path) -> list[list[str]]:
    """The arguments of every wgstokes line of the sh blocks, continuations
    joined and comments dropped, after writing each argument file the README
    shows (a `NAME.args` holding block) into `directory`."""
    text = README.read_text()
    files = re.findall(r"`(\S+\.args)` holding\n\n```text\n(.*?)^```$", text, re.M | re.S)
    for name, body in files:
        (directory / name).write_text(body, encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
    lines = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
    ]
    return [argv[1:] for argv in lines if argv[:1] == ["wgstokes"]]


def parse(argv):
    # parse_args exits on a flag the subcommand does not take
    return cli.config_from_args(cli.build_parser().parse_args(argv))


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # argument files are named relative to it
    commands = readme_commands(tmp_path)
    assert len(commands) == 16
    for argv in commands:
        parse(argv)
    # the argument file example: a typed --maxit, a --mu added to the file's two
    at_file = [parse(argv) for argv in commands if "@study.args" in argv]
    assert [(cfg.maxit, cfg.mu) for cfg in at_file] == [(200, [1, 1e-4]), (None, [1, 1e-4, 1e-6])]


def test_readme_commands_read_from_an_args_file_give_the_same_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for k, argv in enumerate(readme_commands(tmp_path)):
        path = tmp_path / f"command{k}.args"
        path.write_text("\n".join(map(shlex.quote, argv)) + "\n", encoding="utf-8")
        assert parse([f"@{path}"]) == parse(argv), argv
