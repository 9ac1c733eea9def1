"""A tiny text language for recurrence initial value problems.

Grammar (whitespace insensitive):

    program    := stmt (";" stmt)*
    stmt       := recurrence | initial
    recurrence := "a[n+" INT "]" "=" expr
    initial    := "a[" INT "]" "=" signed
    expr       := signed_term (("+" | "-") term)*
    term       := RATIONAL ("*"? atom)? | atom
    atom       := "a[n+" INT "]" | "a[n]" | "n" ("^" INT)? ("*" base "^n")?
                | base "^n" | RATIONAL
    base       := RATIONAL | "(" signed ")"
    RATIONAL   := INT ("/" INT)?

A leading "-" is accepted on the first term of an expression and on
initial values (the grammar above would otherwise have no way to write a
negative coefficient).  Example:

    a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1

Parsing produces a ``DslProgram``; semantic validation (exactly one
recurrence, right-hand shifts strictly below the left-hand one, initial
values covering 1..k exactly once) happens during assembly and raises
``SemanticError``.  ``ParseError`` carries line and column.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import CapabilityError, ParseError, SemanticError
from .solver import ForcingTerm, RecurrenceSpec

_SYMBOLS = {
    "[": "LBRACK", "]": "RBRACK", "+": "PLUS", "-": "MINUS", "*": "STAR",
    "/": "SLASH", "^": "CARET", "=": "EQUALS", ";": "SEMI", "(": "LPAREN",
    ")": "RPAREN",
}


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(source) and source[i].isdigit():
                i += 1
            tokens.append(Token("INT", source[start:i], line, column))
            column += i - start
            continue
        if ch in ("a", "n"):
            tokens.append(Token("NAME", ch, line, column))
            i += 1
            column += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, column))
            i += 1
            column += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("EOF", "", line, column))
    return tokens


class DslProgram:
    """A parsed and validated IVP, normalized to collected coefficients."""

    __slots__ = ("order", "shifts", "forcing", "initials")

    def __init__(self, order: int, shifts: dict[int, Fraction],
                 forcing: dict[tuple[int, Fraction], Fraction],
                 initials: dict[int, Fraction]) -> None:
        self.order = order
        self.shifts = shifts            # j -> coefficient of a[n+j]
        self.forcing = forcing          # (p, b) -> coefficient of n^p b^n
        self.initials = initials

    def to_spec(self) -> RecurrenceSpec:
        coefficients = tuple(self.shifts.get(j, Fraction(0))
                             for j in range(self.order))
        forcing = tuple(ForcingTerm(self.forcing[key], *key)
                        for key in sorted(self.forcing))
        initials = tuple(self.initials[i] for i in range(1, self.order + 1))
        return RecurrenceSpec(self.order, coefficients, initials, forcing)


class _RawTerm:
    __slots__ = ("coefficient", "kind", "shift", "power", "base")

    def __init__(self, coefficient: Fraction, kind: str, shift: int = 0,
                 power: int = 0, base: Fraction = Fraction(1)) -> None:
        self.coefficient = coefficient
        self.kind = kind        # "shift" or "forcing" (n^power * base^n)
        self.shift = shift
        self.power = power
        self.base = base


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "EOF":
            self.index += 1
        return token

    def expect(self, kind: str, what: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {what}, found {token.text or 'end of input'!r}",
                token.line, token.column)
        return self.advance()

    # -- grammar productions --------------------------------------------

    def parse_program(self) -> DslProgram:
        recurrences: list[tuple[int, list[_RawTerm], Token]] = []
        initials: list[tuple[int, Fraction, Token]] = []
        while True:
            self.parse_stmt(recurrences, initials)
            if self.peek().kind == "SEMI":
                self.advance()
                if self.peek().kind == "EOF":
                    break
                continue
            self.expect("EOF", "';' or end of input")
            break
        return _assemble(recurrences, initials)

    def parse_stmt(self, recurrences, initials) -> None:
        opener = self.expect("NAME", "'a'")
        if opener.text != "a":
            raise ParseError("statements start with 'a['",
                             opener.line, opener.column)
        self.expect("LBRACK", "'['")
        token = self.peek()
        if token.kind == "NAME" and token.text == "n":
            self.advance()
            shift = 0
            if self.peek().kind == "PLUS":
                self.advance()
                shift = self.expect_int("a shift amount")
            self.expect("RBRACK", "']'")
            self.expect("EQUALS", "'='")
            terms = self.parse_expr()
            recurrences.append((shift, terms, opener))
        elif token.kind == "INT":
            index = self.expect_int("an index")
            self.expect("RBRACK", "']'")
            self.expect("EQUALS", "'='")
            value = self.parse_signed_rational()
            initials.append((index, value, opener))
        else:
            raise ParseError("expected 'n' or an index inside 'a[...]'",
                             token.line, token.column)

    def parse_expr(self) -> list[_RawTerm]:
        sign = 1
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1
        elif self.peek().kind == "PLUS":
            self.advance()
        terms = [self.parse_term(sign)]
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.advance().kind == "PLUS" else -1
            terms.append(self.parse_term(sign))
        return terms

    def parse_term(self, sign: int) -> _RawTerm:
        token = self.peek()
        if token.kind == "INT":
            value = self.parse_rational()
            if self.peek().kind == "CARET":
                # RATIONAL^n, a geometric atom with coefficient 1
                return self.parse_base_power(Fraction(sign), 0, value)
            if self.peek().kind == "STAR":
                self.advance()
                return self.parse_atom(sign * value, required=True)
            return self.parse_atom(sign * value, required=False)
        return self.parse_atom(Fraction(sign), required=True)

    def parse_atom(self, coefficient: Fraction, required: bool) -> _RawTerm:
        token = self.peek()
        if token.kind == "NAME" and token.text == "a":
            self.advance()
            self.expect("LBRACK", "'['")
            self.expect_name("n")
            shift = 0
            if self.peek().kind == "PLUS":
                self.advance()
                shift = self.expect_int("a shift amount")
            self.expect("RBRACK", "']'")
            return _RawTerm(coefficient, "shift", shift=shift)
        if token.kind == "NAME" and token.text == "n":
            self.advance()
            power = 1
            if self.peek().kind == "CARET":
                self.advance()
                power = self.expect_int("an exponent")
            if self.peek().kind != "STAR":
                return _RawTerm(coefficient, "forcing", power=power)
            self.advance()
            return self.parse_base_power(coefficient, power, self.parse_base())
        if token.kind in ("INT", "LPAREN"):
            base = self.parse_base()
            if token.kind == "INT" and self.peek().kind != "CARET":
                return _RawTerm(coefficient * base, "forcing")
            return self.parse_base_power(coefficient, 0, base)
        if required:
            raise ParseError(
                f"expected a term, found {token.text or 'end of input'!r}",
                token.line, token.column)
        return _RawTerm(coefficient, "forcing")

    def parse_base(self) -> Fraction:
        if self.peek().kind != "LPAREN":
            return self.parse_rational()
        self.advance()
        value = self.parse_signed_rational()
        self.expect("RPAREN", "')'")
        return value

    def parse_base_power(self, coefficient: Fraction, power: int,
                         base: Fraction) -> _RawTerm:
        """The "^n" after a base: coefficient * n^power * base^n."""
        self.expect("CARET", "'^'")
        self.expect_name("n")
        return _RawTerm(coefficient, "forcing", power=power, base=base)

    def expect_name(self, name: str) -> None:
        token = self.peek()
        if token.kind != "NAME" or token.text != name:
            raise ParseError(f"expected '{name}'", token.line, token.column)
        self.advance()

    def expect_int(self, what: str) -> int:
        """The next token as an int; one with more digits than the
        interpreter converts is refused."""
        token = self.expect("INT", what)
        try:
            return int(token.text)
        except ValueError:
            raise CapabilityError(
                f"number with {len(token.text)} digits is past the limit of "
                f"{sys.get_int_max_str_digits()} digits (line {token.line}, "
                f"column {token.column})") from None

    def parse_rational(self) -> Fraction:
        value = Fraction(self.expect_int("a number"))
        if self.peek().kind == "SLASH":
            self.advance()
            bottom = self.peek()
            denominator = self.expect_int("a denominator")
            if not denominator:
                raise ParseError("denominator cannot be zero",
                                 bottom.line, bottom.column)
            value /= denominator
        return value

    def parse_signed_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1
        elif self.peek().kind == "PLUS":
            self.advance()
        return sign * self.parse_rational()


def _assemble(recurrences, initials) -> DslProgram:
    if not recurrences:
        raise SemanticError("no recurrence statement found")
    if len(recurrences) > 1:
        raise SemanticError("more than one recurrence statement")
    order, raw_terms, _ = recurrences[0]
    if order < 1:
        raise SemanticError("the left side must be a[n+k] with k >= 1")
    shifts: dict[int, Fraction] = {}
    forcing: dict[tuple[int, Fraction], Fraction] = {}
    for term in raw_terms:
        if term.kind == "shift":
            if term.shift >= order:
                raise SemanticError(
                    f"right-hand shift a[n+{term.shift}] must be below "
                    f"the left-hand a[n+{order}]")
            shifts[term.shift] = shifts.get(term.shift, Fraction(0)) \
                + term.coefficient
        else:
            key = (term.power, term.base)
            forcing[key] = forcing.get(key, Fraction(0)) + term.coefficient
    shifts = {j: c for j, c in shifts.items() if c}
    forcing = {key: c for key, c in forcing.items() if c}
    seen: dict[int, Fraction] = {}
    for index, value, token in initials:
        if index in seen:
            raise SemanticError(f"initial value a[{index}] given twice")
        if index < 1 or index > order:
            raise SemanticError(
                f"initial value a[{index}] is outside 1..{order}")
        seen[index] = value
    # the gaps between the given indices, so the work is bounded by the
    # input and not by the order
    given = sorted(seen)
    gaps = [(lo + 1, hi - 1) for lo, hi in
            zip([0] + given, given + [order + 1]) if hi - lo > 1]
    if gaps:
        wanted = ", ".join(_run_text(i, j) for i, j in gaps)
        raise SemanticError(f"missing initial values: {wanted}")
    return DslProgram(order, shifts, forcing, seen)


def _run_text(first: int, last: int) -> str:
    """a[first] .. a[last] as text; a run of three or more is elided."""
    if last - first > 1:
        return f"a[{first}], ..., a[{last}]"
    return ", ".join(f"a[{i}]" for i in range(first, last + 1))


def parse_program(source: str) -> DslProgram:
    """Parse and validate recurrence text into a DslProgram."""
    return _Parser(_tokenize(source)).parse_program()
