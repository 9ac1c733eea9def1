"""Byte-for-byte CLI output for a few cheap invocations.

``cli_golden.json`` holds, per case, the argv and the exact stdout, stderr
and exit code of ``dlaplace.cli.main``.  A refactor that must not change
what users see keeps every case passing unchanged.
"""

import json
from pathlib import Path

import pytest

from dlaplace.cli import main

CASES = json.loads(
    (Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_cli_output_is_unchanged(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]
