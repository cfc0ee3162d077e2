"""The README "CLI tour" block, run line by line through ``cli.main``.

Each ``bincover ...`` line runs in-process in a fresh directory, one command
per ``&&`` part, and must exit 0.  The combined standard output, without the
wall-time ``time ... ms`` report lines, must hash to the pinned digest, so
any change to what the tour prints shows up here.
"""

import hashlib
import re
import shlex
from pathlib import Path

from bincover.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TOUR_DIGEST = "5387a2d5b61e53546f4ab05f7e89d96b24182d503724c52cf3dbd9f28c0b34d3"
TIME_LINE = re.compile(r"^time\s+\d+(\.\d+)? ms$")


def tour_commands() -> list[list[str]]:
    text = README.read_text()
    block = text.split("## CLI tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        for part in line.split("&&"):
            argv = shlex.split(part)
            if argv and argv[0] == "bincover":
                commands.append(argv[1:])
    return commands


def test_readme_tour_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = tour_commands()
    assert len(commands) == 10
    output = []
    for argv in commands:
        assert main(argv) == 0, argv
        output.extend(line for line in capsys.readouterr().out.splitlines() if not TIME_LINE.match(line))
    digest = hashlib.sha256("\n".join(output).encode()).hexdigest()
    assert digest == TOUR_DIGEST
