"""The benchmark's tracer must still find everything it wraps.

``perfbench/tracer.py`` wraps the names in its ``TARGETS`` table from
outside the package: module attributes by rebinding them, methods by
replacing them in their own class's ``__dict__``.  A rename or a move that
breaks one of them breaks ``perfbench/run.py --trace 1``, so these tests
load the tracer by path, as the benchmark does, resolve every entry and
run a traced solve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dlaplace import cli

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


@pytest.mark.parametrize("text, sizes", [
    ("a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1",
     {"polys.den_degree_max": 2, "polys.coeff_bits_max": 1,
      "polys.pf_terms": 2}),
    ("a[n+2] = 2*a[n+1] - a[n] + n^12; a[1] = 1; a[2] = 2",
     {"polys.den_degree_max": 15, "polys.coeff_bits_max": 28,
      "polys.pf_terms": 15}),
], ids=["fibonacci", "forced"])
def test_traced_solve_reads_the_same_sizes(text, sizes, capsys):
    # the tracer reads partial_fractions' quotient through
    # Poly.coefficients, as rational QuadExt values; tracing changes no
    # output, and the sizes it reads are the known ones for each solve
    argv = ["solve", text, "--json"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced
    assert tracer.calls["cli.main"] == 1
    assert {key: tracer.sizes[key] for key in sizes} == sizes
