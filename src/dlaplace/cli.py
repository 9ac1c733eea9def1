"""Command line front end.

    dlaplace solve  "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1"
    dlaplace verify "a[n+1] = 2*a[n] + 1; a[1] = 1" --upto 50
    dlaplace table

Exit codes: 0 success, 1 a usage error or a parse or semantic error in the
recurrence text, 2 the problem is outside the engine's exact capabilities,
3 a verification or numeric check failed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

from .dsl import parse_program
from .errors import (CapabilityError, CheckFailed, DlaplaceError, ParseError,
                     SemanticError, VerificationFailed)
from .numeric import DEFAULT_TOLERANCE, check_closed_form_pair
from .sequences import _MEMO_LIMIT
from .solver import solve_ivp
from .transforms import geometric, n_power

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAPABILITY = 2
EXIT_VERIFY = 3

# Largest --terms, --verify-upto and --upto: closed-form values past it are
# no longer memoised, so each one would cost a full evaluation.
MAX_HORIZON = _MEMO_LIMIT


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on EXIT_PARSE, keeping 2 for refusals."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _read_program(args: argparse.Namespace) -> str:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SemanticError(f"cannot read --file: {exc}") from exc
    if args.program is None or args.program == "-":
        return sys.stdin.read()
    return args.program


def _flag_value(convert, accept, wanted: str):
    """An argparse ``type=`` that converts a flag value and checks it, so a
    bad value ends in the usage error rather than a traceback."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
    return parse


_count = _flag_value(int, lambda v: v >= 0, "an integer >= 0")
_tolerance = _flag_value(float, lambda v: math.isfinite(v) and v > 0,
                         "a finite number > 0")
_grid = _flag_value(lambda text: tuple(float(x) for x in text.split(",")),
                    lambda grid: all(map(math.isfinite, grid)),
                    "comma-separated finite numbers")


def _check_horizon(flag: str, value: int) -> None:
    if value > MAX_HORIZON:
        raise CapabilityError(
            f"{flag} {value} exceeds the horizon limit {MAX_HORIZON}")


def _display_var(display: str) -> str:
    return "e^s" if display == "exps" else "t"


def _json_text(value: object, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) of str-keyed dicts, lists and scalars,
    byte for byte, without the pure-Python encoder that indent selects."""
    if isinstance(value, (dict, list)):
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in value.items()] if isinstance(value, dict) else \
            [_json_text(v, inner) for v in value]
        start, end = "{}" if isinstance(value, dict) else "[]"
        return f"{start}{inner}{(',' + inner).join(items)}{indent}{end}" \
            if items else start + end
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if math.isfinite(value):
        return float.__repr__(value)
    return "Infinity" if value > 0 else "-Infinity" if value < 0 else "NaN"


def cmd_solve(args: argparse.Namespace) -> int:
    _check_horizon("--terms", args.terms)
    _check_horizon("--verify-upto", args.verify_upto)
    program = parse_program(_read_program(args))
    report = solve_ivp(program.to_spec(), verify_upto=args.verify_upto)
    # built before anything is printed, so a refusal prints nothing
    basis = None if args.json else report.coefficient_decomposition
    try:
        if args.json:
            text = _json_text(report.to_json_dict(args.terms))
        else:
            var = _display_var(args.display)
            values = ", ".join(report.value_texts(args.terms))
            lines = [f"closed form: {report.closed_form}",
                     f"transform:   {report.transform.render(var)}",
                     f"values:      {values}",
                     f"verified:    n <= {report.verified_upto} (exact)"]
            if basis is not None:
                lines += [f"a(1) basis:  {basis[0]}",
                          f"a(2) basis:  {basis[1]}"]
            text = "\n".join(lines)
    except ValueError:
        # an int with more digits than the interpreter converts to a string
        raise CapabilityError(
            "the answer is too large to print: it has a number with more "
            f"than {sys.get_int_max_str_digits()} digits") from None
    print(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_horizon("--upto", args.upto)
    program = parse_program(_read_program(args))
    # The solve's self-check, verify_solution, proves the initial values
    # and the recurrence for n + order <= upto.
    report = solve_ivp(program.to_spec(), verify_upto=args.upto)
    numeric = check_closed_form_pair(report.closed_form, report.transform,
                                     args.s_grid, args.tol)
    if args.json:
        print(_json_text({"exact": {"passed": True, "upto": args.upto},
                          "numeric": numeric.to_json_dict()}))
        return EXIT_OK
    print(f"exact:   recurrence and initial values hold for "
          f"n <= {args.upto}")
    for entry in numeric.entries:
        print(f"numeric: s = {entry.s:g}: series({entry.terms} terms) vs "
              f"transform differ by {entry.discrepancy:.2e} "
              f"(tolerance {args.tol:g})")
    print("PASS")
    return EXIT_OK


def _table_rows(var: str) -> list[tuple[str, str]]:
    one = geometric(1)
    five = geometric(5)
    rows = [
        ("1", one.render(var)),
        ("a^(n-1)", "1/(e^s - a)" if var == "e^s" else "1/(t - a)"),
        ("5^(n-1)", five.render(var)),
        ("n", n_power(1).render(var)),
        ("n^2", n_power(2).render(var)),
        ("n^3", n_power(3).render(var)),
    ]
    es = var == "e^s"
    F = "F(s)" if es else "F(t)"
    base = "e^s" if es else "t"
    k_pow = "e^(ks)" if es else "t^k"
    ki_pow = "e^((k-i)s)" if es else "t^(k-i)"
    rows += [
        ("f(n+k)", f"{k_pow}*{F} - sum_(i=1..k) f(i)*{ki_pow}"),
        ("f(n+1) - f(n)", f"({base} - 1)*{F} - f(1)"),
        ("n*f(n)", f"-d{F}/ds"),
        ("(f*g)(n)", f"{F}G(s)" if es else f"{F}G(t)"),
        ("sum_(k=1..n-1) f(k)", f"{F}/({base} - 1)"),
        ("1/n", "s - ln(e^s - 1)"),
    ]
    return rows


def cmd_table(args: argparse.Namespace) -> int:
    for lhs, rhs in _table_rows(_display_var(args.display)):
        print(f"{lhs} <-> {rhs}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing does not
    change it."""
    parser = _Parser(
        prog="dlaplace",
        description="Exact transform calculus for linear recurrences.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve an IVP and print its closed form")
    solve.add_argument("program", nargs="?",
                       help="recurrence text; '-' or absent reads stdin")
    solve.add_argument("--file", help="read the recurrence text from a file")
    solve.add_argument("--terms", type=_count, default=10,
                       help="how many values to print (default 10)")
    solve.add_argument("--verify-upto", type=_count, default=64,
                       help="exact self-check horizon (default 64)")
    solve.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    solve.add_argument("--display", choices=("t", "exps"), default="exps",
                       help="write transforms in t or in e^s (default)")
    solve.set_defaults(handler=cmd_solve)

    verify = sub.add_parser(
        "verify", help="solve, then check the answer exactly and numerically")
    verify.add_argument("program", nargs="?",
                        help="recurrence text; '-' or absent reads stdin")
    verify.add_argument("--file", help="read the recurrence text from a file")
    verify.add_argument("--upto", type=_count, default=64,
                        help="exact verification horizon (default 64)")
    verify.add_argument("--s-grid", type=_grid, default="1.0,1.5,2.0",
                        help="comma-separated sample points (default "
                             "1.0,1.5,2.0)")
    verify.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                        help="numeric tolerance (default 1e-9)")
    verify.add_argument("--json", action="store_true",
                        help="emit the verification report as JSON")
    verify.set_defaults(handler=cmd_verify)

    table = sub.add_parser(
        "table", help="print the rule table of the calculus")
    table.add_argument("--display", choices=("t", "exps"), default="exps",
                       help="write transforms in t or in e^s (default)")
    table.set_defaults(handler=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, SemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (VerificationFailed, CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except DlaplaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
