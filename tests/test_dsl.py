import random
from fractions import Fraction

import pytest

from dlaplace.dsl import DslProgram, parse_program
from dlaplace.errors import ParseError, SemanticError
from dlaplace.solver import ForcingTerm, RecurrenceSpec

FIB_TEXT = "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1"


def test_fibonacci_program():
    program = parse_program(FIB_TEXT)
    assert program.order == 2
    assert program.shifts == {1: Fraction(1), 0: Fraction(1)}
    assert program.forcing == {}
    assert program.initials == {1: Fraction(1), 2: Fraction(1)}
    assert program.to_spec() == RecurrenceSpec(2, (1, 1), (1, 1))


def test_forcing_terms_collected():
    program = parse_program(
        "a[n+1] = 2*a[n] + n^2 + 3*2^n + 1/2; a[1] = 0")
    assert program.shifts == {0: Fraction(2)}
    assert program.forcing == {(2, 1): Fraction(1), (0, 1): Fraction(1, 2),
                               (0, 2): Fraction(3)}
    spec = program.to_spec()
    assert spec.forcing == (ForcingTerm(Fraction(1, 2), 0),
                            ForcingTerm(Fraction(3), 0, Fraction(2)),
                            ForcingTerm(Fraction(1), 2))


def test_products_and_signed_bases():
    program = parse_program("a[n+1] = 2*a[n] + n*2^n - 3*n^2*(-1/2)^n "
                            "+ (-2)^n + 1/2(3)^n; a[1] = 1")
    assert program.forcing == {(1, 2): Fraction(1),
                               (2, Fraction(-1, 2)): Fraction(-3),
                               (0, -2): Fraction(1), (0, 3): Fraction(1, 2)}
    assert program.to_spec().forcing == (
        ForcingTerm(1, 0, -2), ForcingTerm(Fraction(1, 2), 0, 3),
        ForcingTerm(1, 1, 2), ForcingTerm(-3, 2, Fraction(-1, 2)))
    assert program.render() == ("a[n+1] = 2*a[n] - 3*n^2*(-1/2)^n + n*2^n "
                                "+ (-2)^n + 1/2*3^n; a[1] = 1")
    with pytest.raises(ParseError, match=r"expected '\^', found ';'"):
        parse_program("a[n+1] = n*2; a[1] = 1")
    with pytest.raises(ParseError, match=r"expected '\)', found '\^'"):
        parse_program("a[n+1] = (-2^n; a[1] = 1")


def test_sign_handling():
    program = parse_program("a[n+1] = -a[n] + n - 3; a[1] = -3/2")
    assert program.shifts == {0: Fraction(-1)}
    assert program.forcing == {(1, 1): Fraction(1), (0, 1): Fraction(-3)}
    assert program.initials == {1: Fraction(-3, 2)}


def test_juxtaposed_coefficient_and_whitespace():
    compact = parse_program("a[n+2]=3a[n+1]-1/2a[n];a[1]=1;a[2]=2;")
    spaced = parse_program(
        "a[n + 2] =\n  3 * a[n + 1]\n  - 1/2 * a[n];\na[1] = 1;\na[2] = 2")
    assert compact == spaced
    assert compact.shifts == {1: Fraction(3), 0: Fraction(-1, 2)}


def test_like_terms_combine_and_cancel():
    program = parse_program("a[n+1] = a[n] + a[n] + n - n + 2 + 3; a[1] = 0")
    assert program.shifts == {0: Fraction(2)}
    assert program.forcing == {(0, 1): Fraction(5)}


def test_render_round_trips():
    for text in (
        FIB_TEXT,
        "a[n+1] = 2*a[n] + n^2 + 3*2^n + 1/2; a[1] = 0",
        "a[n+3] = -a[n+2] + 1/3*a[n]; a[1] = 1; a[2] = 0; a[3] = -2",
        "a[n+1] = 0; a[1] = 7",
    ):
        program = parse_program(text)
        assert parse_program(program.render()) == program


def test_render_canonical_fibonacci():
    assert parse_program(FIB_TEXT).render() == \
        "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_program("b[n+1] = 1; a[1] = 1")
    assert (info.value.line, info.value.column) == (1, 1)
    assert "unexpected character" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_program("a[n+2] = a[n+1] +")
    assert (info.value.line, info.value.column) == (1, 18)
    assert "expected a term" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_program("a[n+1] = 1/0*a[n]; a[1] = 1")
    assert (info.value.line, info.value.column) == (1, 12)
    assert "denominator" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_program("a[n+2] = a[n+1] + a[n];\na[1] = 1;\na[2] = oops")
    assert info.value.line == 3

    with pytest.raises(ParseError):
        parse_program("a[n+1] = 2^m; a[1] = 1")
    with pytest.raises(ParseError):
        parse_program("a[n+1] = a[n] a[1] = 1")


def test_semantic_errors():
    with pytest.raises(SemanticError, match="no recurrence"):
        parse_program("a[1] = 1")
    with pytest.raises(SemanticError, match="more than one"):
        parse_program("a[n+1] = a[n]; a[n+2] = a[n]; a[1] = 1")
    with pytest.raises(SemanticError, match="k >= 1"):
        parse_program("a[n] = a[n]; a[1] = 1")
    with pytest.raises(SemanticError, match="below"):
        parse_program("a[n+2] = a[n+2] + a[n]; a[1] = 1; a[2] = 1")
    with pytest.raises(SemanticError, match="twice"):
        parse_program("a[n+1] = a[n]; a[1] = 1; a[1] = 2")
    with pytest.raises(SemanticError, match="outside"):
        parse_program("a[n+1] = a[n]; a[1] = 1; a[3] = 2")
    with pytest.raises(SemanticError, match="missing"):
        parse_program("a[n+2] = a[n]; a[1] = 1")


@pytest.mark.parametrize("text, missing", [
    ("a[n+2] = a[n]; a[1] = 1", "a[2]"),
    ("a[n+3] = a[n]; a[2] = 1", "a[1], a[3]"),
    ("a[n+6] = a[n]; a[2] = 1; a[5] = 1", "a[1], a[3], a[4], a[6]"),
    # a run of three or more missing indices is elided
    ("a[n+6] = a[n]; a[3] = 1", "a[1], a[2], a[4], ..., a[6]"),
])
def test_missing_initial_values_are_named_by_runs(text, missing):
    with pytest.raises(SemanticError) as caught:
        parse_program(text)
    assert str(caught.value) == f"missing initial values: {missing}"


def test_solves_through_spec():
    from dlaplace.solver import solve_ivp
    report = solve_ivp(parse_program(FIB_TEXT).to_spec())
    assert report.values(6) == [1, 1, 2, 3, 5, 8]


def _random_program(rng: random.Random) -> DslProgram:
    order = rng.randint(1, 3)
    shifts = {j: Fraction(rng.choice([-3, -1, 1, 2, 5]),
                          rng.choice([1, 2]))
              for j in range(order) if rng.random() < 0.7}
    bases = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(5, 3),
             Fraction(-2), Fraction(-1, 3))
    forcing = {(p, base): Fraction(rng.choice([-3, -1, 1, 2, 4]),
                                   rng.choice([1, 2]))
               for p in range(4) for base in bases if rng.random() < 0.1}
    initials = {i: Fraction(rng.randint(-4, 4), rng.choice([1, 3]))
                for i in range(1, order + 1)}
    return DslProgram(order, shifts, forcing, initials)


def test_random_render_parse_round_trip():
    rng = random.Random(7)
    for _ in range(150):
        program = _random_program(rng)
        assert parse_program(program.render()) == program
