import subprocess
import sys
from pathlib import Path

import dlaplace

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    for name in dlaplace.__all__:
        assert hasattr(dlaplace, name), name


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI call pays the package import, so it stays free of the
    modules that generate code at import time."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import dlaplace.cli, dlaplace; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                           capture_output=True, text=True, timeout=60)
    assert child.stdout.strip() == "[]"
