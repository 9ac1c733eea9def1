"""Every function and method in ``src/dlaplace`` is reached by a run.

The census runs the golden CLI argv (``cli_golden.json``) through
``cli.main`` and the scripts in ``demos/`` through ``runpy``, in process,
under ``sys.setprofile``, and records the code objects it enters.  A
function or method that no run reaches is either named in ``ALLOWED``
with the reason it stays, or it is surface no path needs and goes.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import runpy
import sys
from pathlib import Path

import dlaplace
from dlaplace.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")

_REFUSAL = "builds a refusal or its text, which no golden case triggers"
_REPR = "a repr, for debugging and failing asserts"
_RULE = "the paper's rule table, public with its tests"
_ORACLE = "value equality, which the tests use as their oracle"
_IMPORT = "runs when the package is imported, before the census starts"
_RECORD = "keeps a record immutable, and copies and pickles it"
_REFERENCE = "the tests' reference transforms add RatFuncs"

# qualified name -> why it stays though no run reaches it
ALLOWED = {
    "dlaplace._record.Record.__delattr__": _RECORD,
    "dlaplace._record.Record.__eq__": _ORACLE,
    "dlaplace._record.Record.__hash__": _ORACLE,
    "dlaplace._record.Record.__init_subclass__": _IMPORT,
    "dlaplace._record.Record.__reduce__": _RECORD,
    "dlaplace._record.Record.__repr__": _REPR,
    "dlaplace._record.Record.__setattr__": _RECORD,
    "dlaplace.cli._flag_value": _IMPORT,
    "dlaplace.errors.CheckFailed.__init__": _REFUSAL,
    "dlaplace.exact.QuadExt.__float__":
        "numeric._float_terms calls it on the QuadExt values of delta, "
        "convolve and partial_sums",
    "dlaplace.exact.QuadExt.__repr__": _REPR,
    "dlaplace.polys.Poly.__add__": _REFERENCE,
    "dlaplace.polys.Poly.__hash__": _ORACLE,
    "dlaplace.polys.Poly.__radd__": _REFERENCE,
    "dlaplace.polys.Poly.__repr__": _REPR,
    "dlaplace.polys.Poly.coefficients":
        "perfbench/tracer.py reads it for polys.coeff_bits_max",
    "dlaplace.polys.RatFunc.__add__": _REFERENCE,
    "dlaplace.polys.RatFunc.__eq__": _ORACLE,
    "dlaplace.polys.RatFunc.__hash__": _ORACLE,
    "dlaplace.polys.RatFunc.__radd__": _REFERENCE,
    "dlaplace.polys.RatFunc.__repr__": _REPR,
    "dlaplace.polys.RatFunc.__str__": _REFUSAL,
    "dlaplace.sequences.ClosedFormSequence.__eq__": _ORACLE,
    "dlaplace.sequences.ClosedFormSequence.__hash__": _ORACLE,
    "dlaplace.sequences.ClosedFormSequence.__repr__": _REPR,
    "dlaplace.sequences.ClosedFormSequence._term_by_term":
        "the only path for a library read past n = 4096",
    "dlaplace.solver.SolutionReport.to_json_dict":
        "library API; perfbench/tracer.py wraps it as cli.render until "
        "ROADMAP item 1 re-points that target",
    "dlaplace.transforms.convolve": _RULE,
    "dlaplace.transforms.difference": _RULE,
}


def _defined():
    """Qualified name -> code object of every function and method defined
    in the package, properties' getters included.  A cached function's
    cache is cleared, so a value an earlier test left there cannot stand
    in for a call."""
    found = {}

    def add(module, qualname, fn):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
        fn = inspect.unwrap(fn)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            found[f"{module.__name__}.{qualname}"] = fn.__code__

    for info in pkgutil.iter_modules(dlaplace.__path__, "dlaplace."):
        if info.name == "dlaplace.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif hasattr(member, "func"):     # cached_property
                        member = member.func
                    add(module, f"{value.__qualname__}.{attr}", member)
            else:
                add(module, name, value)
    return found


def _reached():
    """The code objects entered by the golden argv and the demos."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    argvs = [case["argv"] for case in
             json.loads(GOLDEN.read_text(encoding="utf-8"))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        sys.setprofile(profile)
        try:
            for argv in argvs:
                try:
                    main(list(argv))
                except SystemExit:      # a usage error
                    pass
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    return entered


def test_every_function_is_reached_or_allowed():
    defined = _defined()
    assert set(ALLOWED) <= set(defined), set(ALLOWED) - set(defined)
    entered = _reached()
    unreached = sorted(name for name, code in defined.items()
                       if code not in entered and name not in ALLOWED)
    assert not unreached, unreached
