"""Byte-for-byte CLI output for a few cheap invocations.

``cli_golden.json`` holds, per case, the argv and the exact stdout, stderr
and exit code of ``dlaplace.cli.main``.  A refactor that must not change
what users see keeps every case passing unchanged.  A usage error leaves
``main`` through argparse's ``SystemExit``, whose code is the case's exit
code, and the usage text is wrapped at ``COLUMNS`` = 80 columns.

Re-record (only for an intended output change) with
``PYTHONPATH=src python tests/test_cli_golden.py``: it re-runs every
case's argv and rewrites the file.  A new case is added by appending an
entry with its ``argv`` alone and re-recording.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from dlaplace.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def run(argv):
    """main(argv)'s exit code, a usage error's included."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = run(case["argv"])
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]


def record(argv):
    """The case for argv: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(json.dumps([record(c["argv"]) for c in CASES],
                                 indent=2) + "\n", encoding="utf-8")
