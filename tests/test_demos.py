"""Byte-for-byte stdout of the scripts in ``demos/``.

``demos_golden.json`` maps each demo's file name to the exact stdout it
prints.  The demos are deterministic, so a change that must not alter what
they show keeps every case passing unchanged.

Re-record (only for an intended output change) with
``PYTHONPATH=src python tests/test_demos.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).with_name("demos_golden.json")


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# a missing golden file fails the completeness test below
CASES = (json.loads(GOLDEN.read_text(encoding="utf-8"))
         if GOLDEN.exists() else {})


def test_every_demo_has_a_golden_case():
    assert sorted(CASES) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_demo_output_is_unchanged(name):
    assert run_demo(name) == CASES[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {p.name: run_demo(p.name) for p in sorted(DEMOS.glob("*.py"))},
        indent=1) + "\n", encoding="utf-8")
