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


def test_readme_command_lines_parse():
    # every wgstokes line of the sh blocks, continuations joined, comments dropped
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [argv[1:] for argv in lines if argv[:1] == ["wgstokes"]]
    assert len(commands) == 14
    for argv in commands:
        # parse_args exits on a flag the subcommand does not take
        cli.config_from_args(cli.build_parser().parse_args(argv))
