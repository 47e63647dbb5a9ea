"""README's CLI quickstart and Python API example run as written."""

import re
import shlex
from pathlib import Path

from kstickets.checkpoint import read_checkpoint
from kstickets.cli import run
from kstickets.selection import read_ticket_file

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, lang: str) -> str:
    """The first ```lang block of README's `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quickstart_then_api_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for line in code_block("CLI quickstart", "sh").replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "kstickets"
            assert run(argv[1:]) == 0, line
    assert "certified_accuracy=" in (tmp_path / "report.txt").read_text()

    api = {}
    exec(code_block("Python API", "python"), api)
    # the API's tickets and splice are the CLI's
    assert api["tickets"].token_ids == read_ticket_file("tickets.txt").token_ids
    spliced = api["spliced"].tensor("embedding").data.tobytes()
    assert spliced == read_checkpoint("transfer.ckpt").tensor("embedding").data.tobytes()
