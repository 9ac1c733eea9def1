"""A tiny text language for recurrence initial value problems.

Grammar (whitespace insensitive):

    program    := stmt (";" stmt)*
    stmt       := recurrence | initial
    recurrence := "a[n+" INT "]" "=" expr
    initial    := "a[" INT "]" "=" signed
    expr       := signed_term (("+" | "-") term)*
    term       := RATIONAL ("*" atom | bare)? | atom
    bare       := an atom that does not begin with INT
    atom       := "a[n+" INT "]" | "a[n]" | "n" ("^" INT)? ("*" base "^n")?
                | base "^n" | RATIONAL
    base       := RATIONAL | "(" signed ")"
    RATIONAL   := INT ("/" INT)?
    INT        := a run of decimal digits

A leading "-" is accepted on the first term of an expression and on
initial values (the grammar above would otherwise have no way to write a
negative coefficient).  A number is never juxtaposed to a number:
"2 n", "2 a[n]" and "2 (3)^n" are products, while "1 000" and "2 3^n" are
refused at the second number rather than read as 1*000 or 2*3^n.
Example:

    a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1

Parsing reads the text once into ``(kind, text, offset)`` tokens and then
by recursive descent into summands, each a ``(key, coefficient)`` pair.
Assembly collects like summands into a ``DslProgram`` and validates it
(exactly one recurrence, right-hand shifts strictly below the left-hand
one, initial values covering 1..k exactly once), raising
``SemanticError``; it runs after the whole text is read, so a parse
error anywhere wins over a semantic one.  ``ParseError`` carries line and
column, worked out from the offset only when the error is raised.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import CapabilityError, ParseError, SemanticError
from .solver import ForcingTerm, RecurrenceSpec


def _position(source: str, offset: int) -> tuple[int, int]:
    """The line and column of source[offset], both counted from 1."""
    return (source.count("\n", 0, offset) + 1,
            offset - source.rfind("\n", 0, offset))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token.  A symbol or name is its own kind,
    a number is "INT", and the list ends with kind ""."""
    tokens = []
    i, end = 0, len(source)
    while i < end:
        ch = source[i]
        start, i = i, i + 1
        if ch in "an[]+-*/^=;()":
            tokens.append((ch, ch, start))
        # isdecimal, not isdigit: int() reads exactly the decimal digits,
        # and refuses digits such as '²' that isdigit accepts
        elif ch.isdecimal():
            while i < end and source[i].isdecimal():
                i += 1
            tokens.append(("INT", source[start:i], start))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}",
                             *_position(source, start))
    tokens.append(("", "", end))
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


class _Parser:
    """Recursive descent over the tokens.  A summand is (j, c) for
    c*a[n+j] and ((p, b), c) for c*n^p*b^n."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self) -> str:
        """The next token's kind."""
        return self.tokens[self.index][0]

    def accept(self, kind: str) -> bool:
        """Step past the next token if it is of this kind."""
        if self.tokens[self.index][0] != kind:
            return False
        self.index += 1
        return True

    def fail(self, message: str, offset: int | None = None):
        """Raise ParseError at offset, by default the next token's."""
        if offset is None:
            offset = self.tokens[self.index][2]
        raise ParseError(message, *_position(self.source, offset))

    def expected(self, what: str):
        text = self.tokens[self.index][1]
        self.fail(f"expected {what}, found {text or 'end of input'!r}")

    def expect(self, kind: str, what: str) -> str:
        """The next token's text, which must be of this kind."""
        text = self.tokens[self.index][1]
        if not self.accept(kind):
            self.expected(what)
        return text

    def parse_program(self) -> DslProgram:
        recurrences: list[tuple[int, list[tuple]]] = []
        initials: list[tuple[int, Fraction]] = []
        self.parse_stmt(recurrences, initials)
        while self.accept(";") and self.peek():
            self.parse_stmt(recurrences, initials)
        self.expect("", "';' or end of input")
        return _assemble(recurrences, initials)

    def parse_stmt(self, recurrences, initials) -> None:
        if self.peek() == "n":
            self.fail("statements start with 'a['")
        self.expect("a", "'a'")
        self.expect("[", "'['")
        if self.accept("n"):
            order = self.shift()
            self.expect("=", "'='")
            recurrences.append((order, self.parse_expr()))
        elif self.peek() == "INT":
            index = self.expect_int("an index")
            self.expect("]", "']'")
            self.expect("=", "'='")
            initials.append((index, self.sign() * self.parse_rational()))
        else:
            self.fail("expected 'n' or an index inside 'a[...]'")

    def shift(self) -> int:
        """The rest of a[n+k] after its n: k, or 0 for a[n]."""
        shift = self.expect_int("a shift amount") if self.accept("+") else 0
        self.expect("]", "']'")
        return shift

    def sign(self) -> int:
        """An optional "+" or "-", as 1 or -1."""
        if self.accept("-"):
            return -1
        self.accept("+")
        return 1

    def parse_expr(self) -> list[tuple]:
        terms = [self.parse_term(self.sign())]
        while self.peek() in ("+", "-"):
            terms.append(self.parse_term(self.sign()))
        return terms

    def parse_term(self, sign: int) -> tuple:
        if self.peek() != "INT":
            return self.parse_atom(Fraction(sign), required=True)
        value = self.parse_rational()
        if self.peek() == "^":
            # RATIONAL^n, a geometric atom with coefficient 1
            return self.parse_base_power(Fraction(sign), 0, value)
        if self.peek() == "INT":
            self.expected("'*' between two numbers")
        return self.parse_atom(sign * value, required=self.accept("*"))

    def parse_atom(self, coefficient: Fraction, required: bool) -> tuple:
        kind = self.peek()
        if self.accept("a"):
            self.expect("[", "'['")
            self.expect_n()
            return self.shift(), coefficient
        if self.accept("n"):
            power = self.expect_int("an exponent") if self.accept("^") else 1
            if not self.accept("*"):
                return (power, Fraction(1)), coefficient
            return self.parse_base_power(coefficient, power,
                                         self.parse_base())
        if kind in ("INT", "("):
            base = self.parse_base()
            if kind == "INT" and self.peek() != "^":
                return (0, Fraction(1)), coefficient * base
            return self.parse_base_power(coefficient, 0, base)
        if required:
            self.expected("a term")
        return (0, Fraction(1)), coefficient

    def parse_base(self) -> Fraction:
        if not self.accept("("):
            return self.parse_rational()
        value = self.sign() * self.parse_rational()
        self.expect(")", "')'")
        return value

    def parse_base_power(self, coefficient: Fraction, power: int,
                         base: Fraction) -> tuple:
        """The "^n" after a base: coefficient * n^power * base^n."""
        self.expect("^", "'^'")
        self.expect_n()
        return (power, base), coefficient

    def expect_n(self) -> None:
        if not self.accept("n"):
            self.fail("expected 'n'")

    def expect_int(self, what: str) -> int:
        """The next token as an int; one with more digits than the
        interpreter converts is refused."""
        offset = self.tokens[self.index][2]
        text = self.expect("INT", what)
        try:
            return int(text)
        except ValueError:
            line, column = _position(self.source, offset)
            raise CapabilityError(
                f"number with {len(text)} digits is past the limit of "
                f"{sys.get_int_max_str_digits()} digits (line {line}, "
                f"column {column})") from None

    def parse_rational(self) -> Fraction:
        numerator = self.expect_int("a number")
        if not self.accept("/"):
            return Fraction(numerator)
        offset = self.tokens[self.index][2]
        denominator = self.expect_int("a denominator")
        if not denominator:
            self.fail("denominator cannot be zero", offset)
        return Fraction(numerator, denominator)


def _assemble(recurrences, initials) -> DslProgram:
    if not recurrences:
        raise SemanticError("no recurrence statement found")
    if len(recurrences) > 1:
        raise SemanticError("more than one recurrence statement")
    order, terms = recurrences[0]
    if order < 1:
        raise SemanticError("the left side must be a[n+k] with k >= 1")
    shifts: dict[int, Fraction] = {}
    forcing: dict[tuple[int, Fraction], Fraction] = {}
    for key, coefficient in terms:
        if isinstance(key, tuple):
            table = forcing
        elif key < order:
            table = shifts
        else:
            raise SemanticError(
                f"right-hand shift a[n+{key}] must be below "
                f"the left-hand a[n+{order}]")
        table[key] = table.get(key, Fraction(0)) + coefficient
    shifts = {j: c for j, c in shifts.items() if c}
    forcing = {key: c for key, c in forcing.items() if c}
    seen: dict[int, Fraction] = {}
    for index, value in initials:
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
    return _Parser(source).parse_program()
