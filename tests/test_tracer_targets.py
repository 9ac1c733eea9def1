"""The benchmark's tracer must still find everything it wraps.

``perfbench/tracer.py`` wraps the names in its ``TARGETS`` table from
outside the package: module attributes by rebinding them, methods by
replacing them in their own class's ``__dict__``.  A rename or a move that
breaks one of them breaks ``perfbench/run.py --trace 1``, so this test
loads the tracer by path, as the benchmark does, and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for owner, attr, name, layer, _ in tracer.TARGETS:
        assert layer in tracer.LAYERS, name
        module = importlib.import_module(owner)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            assert callable(cls.__dict__.get(method)), f"{owner}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{owner}.{attr}"
