import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import dlaplace
from dlaplace import exact, polys, solver
from dlaplace.cli import build_parser, main
from dlaplace.dsl import parse_program
from dlaplace.exact import QuadExt
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
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


def test_exit_code_check_failed(capsys):
    # an unreachable tolerance turns double rounding into a check failure
    code = main(["verify", FIB_TEXT, "--s-grid", "1.2", "--tol", "1e-30"])
    assert code == 3
    assert "differ by" in capsys.readouterr().err


@pytest.mark.parametrize("upto", ["1", "64"])
def test_verify_checks_initial_values_below_the_order(capsys, monkeypatch,
                                                       upto):
    # a closed form wrong only at n = 2, by too little for the numeric
    # check to see, must fail the exact check even when --upto is below
    # the order of the recurrence
    real = solver.inverse_transform
    spike = ClosedFormSequence(deltas={2: Fraction(1, 10 ** 30)})
    monkeypatch.setattr(solver, "inverse_transform",
                        lambda expr: real(expr) + spike)
    assert main(["verify", FIB_TEXT, "--upto", upto]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "differ by" not in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_json_commands_solve_the_problem_once(capsys, monkeypatch, command):
    # neither prints the a(1)/a(2) basis, so neither may build it
    calls = {"transform_of": 0, "factor_roots": 0}
    for module, name in ((solver, "transform_of"), (polys, "factor_roots")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
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


def test_json_solve_checks_the_closed_form_once(capsys, monkeypatch):
    # one exact check, through verify_solution; the printed values come
    # from the recursion, so only that check evaluates the closed form
    calls = {"verify_solution": 0, "closed_form": 0}
    real_verify = solver.verify_solution
    real_call = ClosedFormSequence.__call__

    def verify(*args):
        calls["verify_solution"] += 1
        return real_verify(*args)

    def evaluate(self, n):
        calls["closed_form"] += 1
        return real_call(self, n)

    monkeypatch.setattr(solver, "verify_solution", verify)
    monkeypatch.setattr(ClosedFormSequence, "__call__", evaluate)
    assert main(["solve", FIB_TEXT, "--json"]) == 0
    capsys.readouterr()
    assert calls == {"verify_solution": 1, "closed_form": 64}


def test_json_verify_steps_root_powers_instead_of_powering(capsys,
                                                          monkeypatch):
    # the self-check, the growth estimate and the series sums read the
    # closed form's memoised values; no value is re-powered from its root
    calls = {"pow": 0, "closed_form": 0}
    real_pow = QuadExt.__pow__
    real_call = ClosedFormSequence.__call__

    def power(self, exponent):
        calls["pow"] += 1
        return real_pow(self, exponent)

    def evaluate(self, n):
        calls["closed_form"] += 1
        return real_call(self, n)

    monkeypatch.setattr(QuadExt, "__pow__", power)
    monkeypatch.setattr(ClosedFormSequence, "__call__", evaluate)
    assert main(["verify", FIB_TEXT, "--json"]) == 0
    capsys.readouterr()
    assert calls == {"pow": 0, "closed_form": 193}


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
    """The CLI run on argv in a child with a 20 s limit."""
    src = str(Path(dlaplace.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dlaplace", *argv],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": path})


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


def test_double_pair_with_a_large_radicand_solves_in_bounded_time():
    # roots +-sqrt(10^9 + 7), each double: the constant term is near 10^18
    text = ("a[n+4] = 2000000014*a[n+2] - 1000000014000000049*a[n]; "
            "a[1]=1; a[2]=0; a[3]=0; a[4]=0")
    values = _solve_json_in_child(text)
    reference = solver.RecursiveSequence(parse_program(text).to_spec())
    assert len(values) == 10
    assert values == [str(reference(n)) for n in range(1, 11)]


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
