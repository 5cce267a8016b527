"""README's examples, run as written.

Each ``schwarztri`` line of the fenced block under "## Command line" is one
case, run in-process through ``cli.main``; the fenced block under
"## Library" is executed and its commented results asserted.  A README edit
that breaks an example fails here; a missing heading or block fails
collection.
"""

import json
import pathlib
import re
import shlex

import pytest

from schwarztri import Verdict
from schwarztri.cli import main

_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first fenced block of README's second-level section ``heading``."""
    text = _README.read_text(encoding="utf-8")
    section = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## |\Z)", text, re.S | re.M)
    if section is None:
        raise LookupError(f"README has no '## {heading}' section")
    block = re.search(r"^```\w*\n(.*?)^```", section[1], re.S | re.M)
    if block is None:
        raise LookupError(f"README's '## {heading}' section has no fenced block")
    return block[1]


def readme_commands() -> list[list[str]]:
    """The argv of each command line of README's "Command line" block.
    Every line that is neither blank nor a comment must be a command."""
    commands = []
    for line in readme_block("Command line").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] != "schwarztri":
            raise ValueError(f"README's command block has a line that is no command: {line!r}")
        if argv:
            commands.append(argv[1:])
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_command(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    doc = json.loads(out.splitlines()[-1])
    assert doc["command"] == argv[0]
    result = doc["result"]
    if argv[0] == "verify":
        assert result["passed"] is True
    if argv[0] == "sweep":
        records = (tmp_path / result["out_path"]).read_text(encoding="utf-8").splitlines()
        assert len(records) == result["cases"]
        assert result["disagreements"] == 0


def test_library():
    namespace = {}
    exec(readme_block("Library"), namespace)
    assert namespace["classify"](namespace["params"]).verdict is Verdict.STRONGLY_MINIMAL
    assert namespace["classify_projective"](namespace["rep"]).kind == "dense"
    assert isinstance(namespace["reps"], list) and len(namespace["reps"]) == 2
