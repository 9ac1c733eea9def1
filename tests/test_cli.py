import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import dlaplace
from dlaplace import cli, exact, numeric, polys, sequences, solver
from dlaplace.cli import build_parser, main
from dlaplace.dsl import parse_program
from dlaplace.exact import QuadExt
from dlaplace.polys import RatFunc
from dlaplace.sequences import _MEMO_LIMIT, ClosedFormSequence

FIB_TEXT = "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1"

QUADEXT_SCHEMA = {
    "type": "object",
    "required": ["rational", "radical", "radicand"],
    "properties": {
        "rational": {"type": "string"},
        "radical": {"type": "string"},
        "radicand": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

SOLVE_SCHEMA = {
    "type": "object",
    "required": ["closed_form", "transform", "values", "verified_upto"],
    "properties": {
        "closed_form": {
            "type": "object",
            "required": ["text", "terms", "deltas"],
            "properties": {
                "text": {"type": "string"},
                "terms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["coefficient", "root", "multiplicity"],
                        "properties": {
                            "coefficient": QUADEXT_SCHEMA,
                            "root": QUADEXT_SCHEMA,
                            "multiplicity": {"type": "integer", "minimum": 1},
                        },
                    },
                },
                "deltas": {
                    "type": "object",
                    "additionalProperties": QUADEXT_SCHEMA,
                },
            },
        },
        "transform": {
            "type": "object",
            "required": ["text", "num", "den"],
            "properties": {
                "text": {"type": "string"},
                "num": {"type": "array", "items": QUADEXT_SCHEMA},
                "den": {"type": "array", "items": QUADEXT_SCHEMA},
            },
        },
        "values": {"type": "array", "items": {"type": "string"}},
        "verified_upto": {"type": "integer"},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["exact", "numeric"],
    "properties": {
        "exact": {
            "type": "object",
            "required": ["passed", "upto"],
            "properties": {
                "passed": {"type": "boolean"},
                "upto": {"type": "integer"},
            },
        },
        "numeric": {
            "type": "object",
            "required": ["tolerance", "passed", "checks"],
            "properties": {
                "tolerance": {"type": "number"},
                "passed": {"type": "boolean"},
                "checks": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["s", "terms", "series", "transform",
                                     "discrepancy", "tail_bound", "passed"],
                    },
                },
            },
        },
    },
}


def test_solve_fibonacci_text(capsys):
    assert main(["solve", FIB_TEXT]) == 0
    out = capsys.readouterr().out
    assert "closed form: ((1+sqrt(5))^n - (1-sqrt(5))^n)/(2^n*sqrt(5))" in out
    assert "transform:   e^s/(e^(2s) - e^s - 1)" in out
    assert "values:      1, 1, 2, 3, 5, 8, 13, 21, 34, 55" in out
    assert "verified:    n <= 64 (exact)" in out
    assert "a(1) basis:" in out and "a(2) basis:" in out


def test_solve_display_t(capsys):
    assert main(["solve", FIB_TEXT, "--display", "t"]) == 0
    assert "transform:   t/(t^2 - t - 1)" in capsys.readouterr().out


def test_solve_terms_flag(capsys):
    assert main(["solve", FIB_TEXT, "--terms", "3"]) == 0
    assert "values:      1, 1, 2\n" in capsys.readouterr().out


def test_solve_json_schema(capsys):
    assert main(["solve", FIB_TEXT, "--json", "--terms", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SOLVE_SCHEMA)
    assert payload["values"] == ["1", "1", "2", "3", "5"]
    assert payload["transform"]["den"] == [
        {"rational": "-1", "radical": "0", "radicand": 0},
        {"rational": "-1", "radical": "0", "radicand": 0},
        {"rational": "1", "radical": "0", "radicand": 0},
    ]


def test_verify_fibonacci_text(capsys):
    assert main(["verify", FIB_TEXT]) == 0
    out = capsys.readouterr().out
    assert "exact:   recurrence and initial values hold for n <= 64" in out
    assert out.count("numeric: s = ") == 3
    assert out.rstrip().endswith("PASS")


def test_verify_json_schema(capsys):
    assert main(["verify", FIB_TEXT, "--json", "--upto", "32",
                 "--s-grid", "1.2,2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert payload["exact"] == {"passed": True, "upto": 32}
    assert payload["numeric"]["passed"] is True
    assert [c["s"] for c in payload["numeric"]["checks"]] == [1.2, 2.0]


def test_verify_grid_filtering(capsys):
    # growth rate ln 5 rules out s = 1.0 and 1.5; only 2.0 is checked
    assert main(["verify", "a[n+1] = 5*a[n]; a[1] = 1"]) == 0
    out = capsys.readouterr().out
    assert out.count("numeric: s = ") == 1
    assert "numeric: s = 2:" in out


def test_table_contents_and_determinism(capsys):
    assert main(["table"]) == 0
    first = capsys.readouterr().out
    assert main(["table"]) == 0
    assert capsys.readouterr().out == first
    for row in (
        "5^(n-1) <-> 1/(e^s - 5)",
        "a^(n-1) <-> 1/(e^s - a)",
        "n <-> e^s/(e^(2s) - 2*e^s + 1)",
        "(f*g)(n) <-> F(s)G(s)",
        "f(n+k) <-> e^(ks)*F(s) - sum_(i=1..k) f(i)*e^((k-i)s)",
        "sum_(k=1..n-1) f(k) <-> F(s)/(e^s - 1)",
        "1/n <-> s - ln(e^s - 1)",
    ):
        assert row in first


def test_table_display_t(capsys):
    assert main(["table", "--display", "t"]) == 0
    out = capsys.readouterr().out
    assert "5^(n-1) <-> 1/(t - 5)" in out
    assert "n^2 <-> (t^2 + t)/(t^3 - 3*t^2 + 3*t - 1)" in out
    assert "(f*g)(n) <-> F(t)G(t)" in out


def test_stdin_and_file_input(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO(FIB_TEXT))
    assert main(["solve", "-", "--terms", "4"]) == 0
    assert "values:      1, 1, 2, 3\n" in capsys.readouterr().out

    path = tmp_path / "fib.dl"
    path.write_text(FIB_TEXT + "\n", encoding="utf-8")
    assert main(["solve", "--file", str(path), "--terms", "4"]) == 0
    assert "values:      1, 1, 2, 3\n" in capsys.readouterr().out


def test_exit_code_parse_and_semantic(capsys):
    assert main(["solve", "a[n+2] = a[n+1] +"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["solve", "a[n+2] = a[n]; a[1] = 1"]) == 1
    assert "missing initial values" in capsys.readouterr().err


def test_exit_code_capability(capsys):
    # irreducible cubic characteristic polynomial
    code = main(["solve",
                 "a[n+3] = a[n+1] + a[n]; a[1] = 1; a[2] = 1; a[3] = 1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # resonant geometric forcing is solved, not refused
    assert main(["solve", "a[n+1] = 2*a[n] + 2^n; a[1] = 1"]) == 0
    assert "values:      1, 4, 12, 32, 80, 192, 448, 1024, 2304, 5120\n" \
        in capsys.readouterr().out
    # every grid point sits inside the divergence region
    assert main(["verify", "a[n+1] = 5*a[n]; a[1] = 1",
                 "--s-grid", "1.0"]) == 2


_QUARTIC_REFUSALS = [
    # (t^2 - 2)(t^2 - 3)
    ("a[n+4] = 5*a[n+2] - 6*a[n]; a[1] = 1; a[2] = 1; a[3] = 1; a[4] = 1",
     "no rational root, and factors of degree 4 are not split: "
     "t^4 - 5*t^2 + 6"),
    # (t^2 - t - 1)(t^2 - 3t + 1)
    ("a[n+4] = 4*a[n+3] - 3*a[n+2] - 2*a[n+1] + a[n]; "
     "a[1] = 1; a[2] = 1; a[3] = 1; a[4] = 1",
     "no rational root, and factors of degree 4 are not split: "
     "t^4 - 4*t^3 + 3*t^2 + 2*t - 1"),
    # (t^2 + 1)(t^2 + 2): no real root at all
    ("a[n+4] = -3*a[n+2] - 2*a[n]; a[1] = 1; a[2] = 1; a[3] = 1; a[4] = 1",
     "factor t^4 + 3*t^2 + 2 has complex roots"),
    # (t^2 - 2)(t^2 + 1): two real roots of four
    ("a[n+4] = a[n+2] + 2*a[n]; a[1] = 1; a[2] = 1; a[3] = 1; a[4] = 1",
     "factor t^4 - t^2 - 2 has complex roots"),
]


@pytest.mark.parametrize("text,reason", _QUARTIC_REFUSALS,
                         ids=[text for text, _ in _QUARTIC_REFUSALS])
def test_unsplit_quartics_are_not_called_irreducible(text, reason, capsys):
    # each quartic is a product of two quadratics; the engine does not
    # look for that split, so it must refuse without claiming there is
    # none, and says "complex roots" when the Sturm count shows them
    assert main(["solve", text]) == 2
    err = capsys.readouterr().err
    assert "irreducible" not in err
    assert err == f"error: {reason}\n"


@pytest.mark.xfail(strict=True, reason="ROADMAP: a certified numeric "
                   "check in exact arithmetic")
@pytest.mark.parametrize("argv", [
    ["verify", "a[n+1] = a[n] + n^12; a[1] = 1"],
    ["verify", "a[n+2] = 2*a[n+1] - a[n] + n^6; a[1]=1; a[2]=2",
     "--s-grid", "0.2,0.3"],
    ["verify", "a[n+1] = 2*a[n] + n^2*2^n; a[1] = 1"],
])
def test_correct_closed_forms_pass_the_numeric_check(argv, capsys):
    # each closed form passes its exact self-check; the numeric check
    # still reports a gap above the tolerance (exit 3)
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "a[n+1] = 2*a[n]; a[1] = 1", "--tol", "1e-20"],
    ["verify", FIB_TEXT, "--s-grid", "1.2", "--tol", "1e-30"],
])
def test_tolerance_below_double_rounding_is_refused(argv, capsys):
    # the gap is within 16 ulps of the values compared: that is rounding,
    # not a wrong closed form, so the tolerance is refused (exit 2)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "finer than double precision resolves" in err
    assert f"tolerance {float(argv[-1]):.1e} at s = " in err


def test_exit_code_check_failed(capsys, monkeypatch):
    # a report whose transform is off by 10^-6/(t - 1/2) fails the
    # numeric check, even at a tolerance below double rounding
    real = cli.solve_ivp
    wrong = RatFunc(Fraction(1, 10 ** 6), (Fraction(-1, 2), 1))

    def perturbed(spec, verify_upto):
        report = real(spec, verify_upto)
        report.transform = report.transform + wrong
        return report

    monkeypatch.setattr(cli, "solve_ivp", perturbed)
    for tol in ("1e-9", "1e-30"):
        assert main(["verify", FIB_TEXT, "--tol", tol]) == 3
        assert "differ by" in capsys.readouterr().err


@pytest.mark.parametrize("upto", ["1", "64"])
def test_verify_checks_initial_values_below_the_order(capsys, monkeypatch,
                                                       upto):
    # a closed form wrong only at n = 2, by too little for the numeric
    # check to see, must fail the exact check even when --upto is below
    # the order of the recurrence
    real = solver.inverse_transform

    def spiked(expr):
        closed = real(expr)
        return ClosedFormSequence(
            closed.terms + ((Fraction(1, 10 ** 30), 0, 2),), closed.deltas)

    monkeypatch.setattr(solver, "inverse_transform", spiked)
    assert main(["verify", FIB_TEXT, "--upto", upto]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "differ by" not in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_json_commands_solve_the_problem_once(capsys, monkeypatch, command):
    # neither prints the a(1)/a(2) basis, so neither may build it
    calls = {"transform_of": 0, "factor_roots": 0}
    for module, name in ((solver, "transform_of"), (polys, "factor_roots")):
        def counted(*args, _real=getattr(module, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert main([command, FIB_TEXT, "--json"]) == 0
    capsys.readouterr()
    assert calls == {"transform_of": 1, "factor_roots": 1}


def test_zero_solution_is_refused_only_where_the_basis_is_printed(capsys):
    # the answer is identically 0, but the basis of a[n+2] = -a[n] needs
    # the complex roots of t^2 + 1
    zero = "a[n+2] = -a[n]; a[1] = 0; a[2] = 0"
    assert main(["solve", zero, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["closed_form"]["text"] == "0"
    assert main(["verify", zero]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert main(["solve", zero]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: quadratic factor t^2 + 1 has complex roots\n"


@pytest.mark.parametrize("argv, code", [
    (["verify", FIB_TEXT, "--s-grid", "abc"], 1),
    (["verify", FIB_TEXT, "--s-grid", "inf"], 1),
    (["verify", FIB_TEXT, "--s-grid", "1.0,"], 1),
    (["verify", FIB_TEXT, "--tol", "0"], 1),
    (["verify", FIB_TEXT, "--tol", "nan"], 1),
    (["verify", FIB_TEXT, "--upto", "-1"], 1),
    (["solve", FIB_TEXT, "--verify-upto", "-5"], 1),
    (["solve", FIB_TEXT, "--terms", "-1"], 1),
    (["solve", "--file", "MISSING"], 1),
    (["solve", FIB_TEXT, "--bogus"], 1),
    ([], 1),
])
def test_bad_flag_values_end_in_an_error_message(capsys, tmp_path, argv,
                                                  code):
    argv = [str(tmp_path / "missing.dl") if a == "MISSING" else a
            for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage error
        got = exc.code
    assert got == code
    assert "error:" in capsys.readouterr().err


def test_usage_errors_keep_the_usage_line_and_help_exits_zero(capsys):
    # a usage error exits 1 like any other bad input; exit 2 is left to
    # problems outside the engine's capabilities
    with pytest.raises(SystemExit) as exc:
        main(["verify", FIB_TEXT, "--tol", "0"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dlaplace verify")
    assert "dlaplace verify: error: argument --tol:" in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dlaplace")


def _count_calls(monkeypatch, calls):
    """Count what calls names: the calls to verify_solution, to the closed
    form's reduced values and to QuadExt powers; the values its integer
    steps return; and the integer pairs the numeric check reads into
    doubles."""
    targets = {"verify_solution": (solver, "verify_solution"),
               "steps": (sequences._IntegerSteps, "take"),
               "doubles": (numeric, "value_pairs"),
               "closed_form": (ClosedFormSequence, "__call__"),
               "pow": (QuadExt, "__pow__")}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            if name in ("steps", "doubles"):
                result = list(result)
                calls[name] += len(result)
            else:
                calls[name] += 1
            return result
        return wrapper

    for name in calls:
        owner, attr = targets[name]
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))


def test_json_solve_checks_the_closed_form_once(capsys, monkeypatch):
    # one exact check, through verify_solution, in one integer pass to
    # n = 2: t^2 - t - 1 annihilates the recursion and the closed form, so
    # agreement on deg P = 2 values proves n <= 64; the printed values come
    # from the recursion, and the check compares integers, so no
    # closed-form value is reduced
    calls = dict.fromkeys(("verify_solution", "steps", "closed_form"), 0)
    _count_calls(monkeypatch, calls)
    assert main(["solve", FIB_TEXT, "--json"]) == 0
    capsys.readouterr()
    assert calls == {"verify_solution": 1, "steps": 2, "closed_form": 0}


def test_json_verify_steps_root_powers_instead_of_powering(capsys,
                                                          monkeypatch):
    # the self-check (to deg P = 2), the growth estimate (50 values) and
    # the series sums (44 terms at most) read the integer pairs of one pass
    # of the closed form; no value is re-powered from its root or reduced,
    # and each pair is divided into a double once, not once per reader
    # (50 + 44 + 21 + 14 = 129 times)
    calls = dict.fromkeys(("steps", "doubles", "closed_form", "pow"), 0)
    _count_calls(monkeypatch, calls)
    assert main(["verify", FIB_TEXT, "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["numeric"]["checks"]
    assert [check["terms"] for check in checks] == [44, 21, 14]
    assert calls == {"steps": 50, "doubles": 50, "closed_form": 0, "pow": 0}


def test_series_refused_early_steps_no_further_than_its_chunk(capsys,
                                                              monkeypatch):
    # term 52 of 3,738 is past the double range; the series reads the
    # closed form in chunks doubling from 64, so the refusal comes before
    # the horizon is stepped
    calls = dict.fromkeys(("steps",), 0)
    _count_calls(monkeypatch, calls)
    assert main(["verify", "a[n+1] = 1200000*a[n]; a[1] = 1",
                 "--s-grid", "14.0115", "--json"]) == 2
    assert capsys.readouterr().err == (
        "error: series at s = 14.0115: term 52 of 3738 is past the double "
        "range\n")
    assert calls["steps"] <= 128


def test_huge_rational_root_is_checked_on_deg_p_values(capsys, monkeypatch):
    # 1,500-digit P and Q: the closed form's coefficients pass the digit
    # limit, so the answer is refused after a check on deg P = 5 values,
    # P = (t - P/Q)(t - 1)^4, not on 64 values of ever larger numbers
    big_p, big_q = int("7" * 1500), int("3" * 1499 + "1")
    calls = dict.fromkeys(("steps",), 0)
    _count_calls(monkeypatch, calls)
    assert main(["solve", "--json", "--terms", "1",
                 f"a[n+1] = {big_p}/{big_q}*a[n] + n^3; a[1] = 1"]) == 2
    assert capsys.readouterr().err == (
        "error: the answer is too large to print: it has a number with more "
        f"than {sys.get_int_max_str_digits()} digits\n")
    assert calls == {"steps": 5}


@pytest.mark.parametrize("flags, count", [
    ([], 10), (["--verify-upto", "0", "--terms", "10"], 10),
    (["--terms", "80"], 80)])
def test_json_solve_steps_one_recursion(capsys, monkeypatch, flags, count):
    # the printed values are read off the recursion the self-check
    # stepped, which steps on past the check when --terms asks for more
    built, real = [], solver.RecursiveSequence

    class Counted(real):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

    text = "a[n+2] = a[n+1] + 2*a[n] + n^2*3^n; a[1] = 1/2; a[2] = -3"
    monkeypatch.setattr(solver, "RecursiveSequence", Counted)
    assert main(["solve", text, "--json", *flags]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert len(built) == 1
    fresh = real(built[0])
    assert values == [str(fresh(n)) for n in range(1, count + 1)]


@pytest.mark.parametrize("argv", [
    # the series at s = 2 needs 564 terms; 7^365 is past the double range
    ["verify", "a[n+2] = 13*a[n+1] - 42*a[n]; a[1] = 5; a[2] = 32"],
    ["verify", "a[n+2] = 13*a[n+1] - 42*a[n]; a[1] = 5; a[2] = 32",
     "--json"],
    # the growth estimate reads 10^8^(n-1) up to n = 50
    ["verify", "a[n+1] = 100000000*a[n]; a[1] = 1", "--s-grid", "30"],
    ["verify", "a[n+1] = 100000000*a[n]; a[1] = 1", "--s-grid", "30",
     "--json"],
    # numerator and denominator of the transform overflow at t = e^400
    ["verify", "a[n+3] = 6*a[n+2] - 11*a[n+1] + 6*a[n]; a[1] = 1; "
     "a[2] = 0; a[3] = 0", "--s-grid", "400"],
    # the root 10^400 itself is past the double range
    ["verify", f"a[n+1] = {10 ** 400}*a[n]; a[1] = 1"],
])
def test_values_past_the_double_range_are_refused(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "past the double range" in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags, named", [
    # e^720 overflows a double
    (["--s-grid", "720"], "s = 720.0"),
    # e^(s0 - 800) underflows to 0
    (["--s-grid", "800"], "s = 800.0"),
    # half of the tolerance underflows to 0
    (["--tol", "5e-324"], "tolerance 5e-324"),
])
def test_flag_values_past_the_double_range_are_refused(flags, named,
                                                       capsys):
    assert main(["verify", "a[n+1] = 2*a[n]; a[1] = 1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert named in lines[0] and "past the double range" in lines[0]


FORCED_N12 = "a[n+1] = 3*a[n] + n^12; a[1] = 1"


@pytest.mark.parametrize("argv", [
    ["solve", FIB_TEXT, "--terms"],
    ["solve", FIB_TEXT, "--json", "--terms"],
    ["solve", FORCED_N12, "--verify-upto"],
    ["solve", FORCED_N12, "--json", "--verify-upto"],
    ["verify", FORCED_N12, "--upto"],
    ["verify", FIB_TEXT, "--json", "--upto"],
])
@pytest.mark.parametrize("past", [1, 100000])
def test_horizons_past_the_memo_limit_are_refused(argv, past, capsys):
    # past the memo limit each closed-form value is evaluated term by
    # term: --verify-upto 20000 on the n^12 problem used to take 29 s
    value = _MEMO_LIMIT + past
    assert main(argv + [str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {argv[-1]} {value} exceeds the horizon "
                            f"limit {_MEMO_LIMIT}\n")


def test_horizon_at_the_memo_limit_is_solved(capsys):
    assert main(["solve", FORCED_N12, "--terms", str(_MEMO_LIMIT),
                 "--verify-upto", str(_MEMO_LIMIT)]) == 0
    out = capsys.readouterr().out
    assert f"verified:    n <= {_MEMO_LIMIT} (exact)" in out
    assert out.count(", ") == _MEMO_LIMIT - 1


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_values_past_the_digit_limit_are_refused(extra, capsys):
    # a(n) = 10^(8(n-1)) has 8n - 7 digits, more than the interpreter's
    # limit for converting an int to a string from the n named here on
    first = (sys.get_int_max_str_digits() + 7) // 8 + 1
    argv = ["solve", "a[n+1] = 100000000*a[n]; a[1] = 1", "--terms", "600"]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: a({first}) is too large to print")
    # one value short of it still prints
    assert main(argv[:-1] + [str(first - 1)] + extra) == 0
    assert str(10 ** (8 * (first - 2))) in capsys.readouterr().out


def _run_in_child(argv):
    """The CLI run on argv in a child with a 20 s limit and 1 GiB of
    address space, so a runaway child fails its test instead of
    exhausting the host's memory."""
    src = str(Path(dlaplace.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dlaplace", *argv],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (1 << 30, 1 << 30)))


def _solve_json_in_child(text):
    """Values of `solve --json` run in a child with a 20 s limit."""
    result = _run_in_child(["solve", "--json", text])
    assert result.returncode == 0
    return json.loads(result.stdout)["values"]


def test_large_radicand_solves_in_bounded_time():
    # roots 1 +- sqrt(10^12 + 1): arithmetic must not re-split the radicand
    values = _solve_json_in_child(
        "a[n+2] = 2*a[n+1] + 1000000000000*a[n]; a[1]=1; a[2]=1")
    assert values[:4] == ["1", "1", "1000000000002", "3000000000004"]


def test_quadratic_roots_split_their_radicand_once(capsys, monkeypatch):
    # roots 1 +- sqrt(1000000000039), a prime: the discriminant is split
    # once, and both roots reuse its squarefree part
    calls = []
    split = exact._squarefree_split

    def counting(d):
        calls.append(d)
        return split(d)

    monkeypatch.setattr(exact, "_squarefree_split", counting)
    monkeypatch.setattr(polys, "_squarefree_split", counting)
    text = "a[n+2] = 2*a[n+1] + 1000000000038*a[n]; a[1]=1; a[2]=1"
    assert main(["solve", "--json", text]) == 0
    assert calls == [4 * 1000000000039]
    out = json.loads(capsys.readouterr().out)
    assert [(t["root"]["rational"], t["root"]["radical"],
             t["root"]["radicand"]) for t in out["closed_form"]["terms"]] \
        == [("1", "-1", 1000000000039), ("1", "1", 1000000000039)]
    reference = solver.RecursiveSequence(parse_program(text).to_spec())
    assert out["values"] == [str(reference(n)) for n in range(1, 11)]


def test_large_constant_term_solves_in_bounded_time():
    # the root candidates need the divisors of 10^21 = 2^21 * 5^21, which
    # trial division up to sqrt(10^21) never finishes enumerating
    values = _solve_json_in_child(
        "a[n+1] = 2*a[n] + 3/1000000000000000000000^n; a[1] = 1")
    assert values[:2] == ["1", "2000000000000000000003/1000000000000000000000"]


def test_a_two_hundred_digit_coefficient_solves():
    # a(n) has a numerator and a denominator of some 200*n digits: the
    # self-check compares integer cross-products, with no gcd either side
    p, q = "7" * 200, "3" * 199 + "1"
    text = f"a[n+1] = {p}/{q}*a[n] + n^3; a[1] = 1"
    values = _solve_json_in_child(text)
    reference = solver.RecursiveSequence(parse_program(text).to_spec())
    assert values == [str(reference(n)) for n in range(1, 11)]


def test_double_pair_with_a_large_radicand_solves_in_bounded_time():
    # roots +-sqrt(10^9 + 7), each double: the constant term is near 10^18
    text = ("a[n+4] = 2000000014*a[n+2] - 1000000014000000049*a[n]; "
            "a[1]=1; a[2]=0; a[3]=0; a[4]=0")
    values = _solve_json_in_child(text)
    reference = solver.RecursiveSequence(parse_program(text).to_spec())
    assert len(values) == 10
    assert values == [str(reference(n)) for n in range(1, 11)]


@pytest.mark.parametrize("text", [
    "a[n+2] = 1/1000003*a[n+1] + 2*a[n]; a[1] = 1; a[2] = 1",
    "a[n+2] = 1/2147483647*a[n+1] + 1/2147483647*a[n]; a[1] = 1; a[2] = 1",
], ids=["1000003", "2147483647"])
def test_large_prime_in_the_leading_coefficient_is_not_a_radicand(text,
                                                                   capsys):
    # the integer quadratic p t^2 - t - 2p (and p t^2 - t - 1) has the
    # discriminant 1 + 8p^2 (and 1 + 4p), split at once; the rational
    # discriminant's numerator times its denominator also carries p^2
    assert main(["solve", "--json", text]) == 0
    out = json.loads(capsys.readouterr().out)
    reference = solver.RecursiveSequence(parse_program(text).to_spec())
    assert out["values"] == [str(reference(n)) for n in range(1, 11)]
    assert main(["verify", text]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_unsplittable_radicand_is_refused_in_bounded_time():
    # the roots (1 +- sqrt(10^30 + 57))/2 need the prime radicand
    # 10^30 + 57 split into a square and a squarefree part
    result = _run_in_child(
        ["solve", "a[n+2] = a[n+1] + 250000000000000000000000000014*a[n]; "
                  "a[1]=1; a[2]=1"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"error: cannot split the radicand {10 ** 30 + 57}: it has no prime "
        "factor below 65537 and is too large to classify\n")


def _error_in_child(argv, code, message):
    result = _run_in_child(argv)
    assert result.returncode == code
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("text, s, terms", [
    ("a[n+2] = 1/3*a[n+1] + 1/5*a[n]; a[1]=1; a[2]=0", "0.0105", 59401),
    ("a[n+1] = 1/2*a[n]; a[1]=1", "0.011", 29007),
], ids=["radical", "halving"])
def test_series_past_the_horizon_limit_is_refused_at_once(text, s, terms):
    # a sample point just above the growth rate needs tens of thousands of
    # terms; values past the horizon limit are powers of ever larger
    # numbers, so the series is capped at the same limit
    _error_in_child(["verify", text, "--s-grid", s], 2,
                    f"{terms} terms needed at s = {float(s)}, "
                    f"cap is {_MEMO_LIMIT}")


def test_radicand_past_the_digit_limit_is_refused():
    # the roots (c +- sqrt(c^2 + 4))/2 for c = 10^2200 + 1 need the
    # 4,401-digit radicand c^2 + 4, 5 times a factor with no prime below
    # 2^16, which the refusal cannot print
    c = 10 ** 2200 + 1
    d = c * c + 4
    _error_in_child(
        ["solve", "--json", f"a[n+2] = {c}*a[n+1] + a[n]; a[1] = 1; a[2] = 1"],
        2, f"cannot split the radicand of {d.bit_length()} bits: its factor of "
        f"{(d // 5).bit_length()} bits has no prime factor below 65537 and "
        "is too large to classify")


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_closed_form_past_the_digit_limit_is_refused(extra):
    # the coefficients at the root 10^1500 have about 6,000 digits, while
    # the values printed are short
    _error_in_child(
        ["solve", *extra, "--terms", "1",
         f"a[n+1] = {10 ** 1500}*a[n] + n^3; a[1] = 1"],
        2, "the answer is too large to print: it has a number with more than "
        f"{sys.get_int_max_str_digits()} digits")


def test_order_past_the_input_is_refused_in_bounded_time():
    # the missing initial values are named from the given ones, not by a
    # scan of 1..k
    _error_in_child(
        ["solve", "a[n+12345678901234567890] = a[n]; a[1] = 1"],
        1, "missing initial values: a[2], ..., a[12345678901234567890]")


LONG = "1" + "0" * sys.get_int_max_str_digits()


@pytest.mark.parametrize("text, column", [
    (f"a[n+1] = a[n]; a[1] = {LONG}", 23),
    (f"a[n+1] = a[n]; a[1] = 1/{LONG}", 25),
    (f"a[n+1] = a[n]; a[{LONG}] = 1", 18),
    (f"a[n+{LONG}] = a[n]; a[1] = 1", 5),
    (f"a[n+1] = a[n+{LONG}]; a[1] = 1", 14),
    (f"a[n+1] = a[n] + n^{LONG}; a[1] = 1", 19),
], ids=["value", "denominator", "index", "shift", "right-shift", "exponent"])
def test_number_literals_past_the_digit_limit_are_refused(text, column,
                                                          capsys):
    assert main(["solve", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: number with {len(LONG)} digits is past the limit of "
        f"{sys.get_int_max_str_digits()} digits (line 1, column {column})\n")


def test_module_entry_point():
    # the child imports the same source tree as this process
    src = str(Path(dlaplace.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "dlaplace", "solve", FIB_TEXT, "--terms", "3"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert "values:      1, 1, 2" in result.stdout


def test_parser_is_built_once_per_process():
    # parse_args does not change the parser, so main reuses one
    assert build_parser() is build_parser()


JSON_LEAVES = ["", "plain", "\u00e9\u00fc \u2211 \U0001f600",
               "\x00\x1f\t\n\r\x7f", 'say "hi"', "back\\slash", "\u2028/",
               True, False, 0, 1, None,
               10 ** 299 + 7, -10 ** 299, math.nan, math.inf, -math.inf,
               -0.0, 5e-324, 1e16, 0.1, 2.5, -17]
JSON_KEYS = ["", "k", "num", "\u00e9\u2211", "a\"b", "c\\d", "\n"]


def _json_tree(rng, depth):
    """A random tree of dicts and lists over JSON_LEAVES, empty ones
    included."""
    roll = rng.random()
    if not depth or roll < 0.35:
        return rng.choice(JSON_LEAVES)
    size = rng.choice((0, 0, 1, 2, 3, 5))
    if roll < 0.7:
        return [_json_tree(rng, depth - 1) for _ in range(size)]
    return {rng.choice(JSON_KEYS) + str(i): _json_tree(rng, depth - 1)
            for i in range(size)}


def test_json_writer_gives_the_bytes_of_json_dumps():
    rng = random.Random(1618)
    trees = [{}, [], {"": {}}, [[], {}, [[]], {"x": []}], JSON_LEAVES,
             dict(zip(JSON_KEYS, JSON_LEAVES))]
    trees += [_json_tree(rng, 5) for _ in range(400)]
    for tree in trees:
        assert cli._json_text(tree) == json.dumps(tree, indent=2)
    # an int past the digit limit raises ValueError in both
    past = {"radicand": [10 ** sys.get_int_max_str_digits()]}
    for write in (cli._json_text, lambda tree: json.dumps(tree, indent=2)):
        with pytest.raises(ValueError):
            write(past)


GOLDEN_JSON = [case["argv"] for case in json.loads(
    Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))
    if "--json" in case["argv"] and case["exit"] == 0]


@pytest.mark.parametrize("argv", GOLDEN_JSON,
                         ids=[" ".join(argv[:2]) for argv in GOLDEN_JSON])
def test_golden_json_is_the_indented_dump_of_the_payload(argv, capsys,
                                                         monkeypatch):
    # solve --json is written by SolutionReport.json_text alone: its text
    # is the one json.dumps gives its payload, and the payload is the
    # report's to_json_dict; verify --json goes through cli._json_text
    written = []

    def recorded(report, count=10, _real=solver.SolutionReport.json_text):
        written.append((report, count))
        return _real(report, count)

    monkeypatch.setattr(solver.SolutionReport, "json_text", recorded)
    assert main(list(argv)) == 0
    monkeypatch.undo()
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    if argv[0] == "solve":
        (report, count), = written
        assert payload == report.to_json_dict(count)
    else:
        assert not written
