import math
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from dlaplace.cli import main
from dlaplace.dsl import parse_program
from dlaplace.exact import QuadExt
from dlaplace.sequences import (_MEMO_LIMIT, ClosedFormSequence, Term,
                                convolve, delta, equal_prefix,
                                inverse_transform, partial_sums)
from dlaplace import sequences, solver
from dlaplace.solver import (RecurrenceSpec, RecursiveSequence, transform_of,
                             verify_solution)
from dlaplace.polys import RatFunc
from dlaplace.transforms import convolve as xf_convolve, geometric, n_power
from fibonacci import PHI, PSI, fibonacci


def test_term_normalization_combines_and_drops():
    seq = ClosedFormSequence([(1, 2, 1), (2, 2, 1), (0, 3, 1)])
    assert seq.terms == (Term(QuadExt(3), QuadExt(2), 1),)
    assert ClosedFormSequence([(1, 2, 1), (-1, 2, 1)]).is_zero


def test_zero_root_folds_to_spike():
    seq = ClosedFormSequence([(5, 0, 3)])
    assert seq.terms == ()
    assert seq.deltas == {3: QuadExt(5)}
    assert [seq(n) for n in (1, 2, 3, 4)] == [0, 0, 5, 0]


def test_eval_simple_cases():
    # 1/(t-1)^2 inverts to n - 1
    ramp = ClosedFormSequence([(1, 1, 2)])
    assert [ramp(n) for n in (1, 2, 3, 10)] == [0, 1, 2, 9]
    geo = ClosedFormSequence([(1, Fraction(1, 2), 1)])
    assert geo(4) == Fraction(1, 8)
    # binomial weight vanishes below the multiplicity: no negative powers
    heavy = ClosedFormSequence([(1, 2, 3)])
    assert heavy(1) == 0 and heavy(2) == 0
    assert heavy(3) == 1 and heavy(4) == 3 * 2


def test_eval_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        ClosedFormSequence([(1, 1, 1)])(0)


def _scaled(factor, terms, deltas):
    """The terms (c, r, m) and spikes {j: c} of a form, times factor, as
    one term list; a spike is its term at root 0."""
    return [(factor * c, r, m) for c, r, m in terms] + \
        [(factor * c, 0, j) for j, c in deltas.items()]


def test_add_and_scale():
    a = ClosedFormSequence([(1, 2, 1)])
    b = ClosedFormSequence([(1, 2, 1), (1, 1, 1)], deltas={1: 1})
    combined = ClosedFormSequence(
        [(1, 2, 1)] + _scaled(2, [(1, 2, 1), (1, 1, 1)], {1: 1}))
    assert combined(3) == a(3) + 2 * b(3)
    assert combined.deltas == {1: QuadExt(2)}


def test_delta_and_partial_sums_are_inverse_ish():
    fib = inverse_transform(RatFunc((0, 1), (-1, -1, 1)))
    diffs = delta(fib)
    sums = partial_sums(diffs)
    for n in range(1, 51):
        assert sums(n) == fib(n) - fib(1)


def test_delta_of_squares():
    square = inverse_transform(n_power(2))
    stepped = delta(square)
    for n in range(1, 20):
        assert stepped(n) == 2 * n + 1


def test_convolve_oracles():
    n_seq = inverse_transform(n_power(1))
    one = inverse_transform(geometric(1))
    for n in range(1, 30):
        assert convolve(n_seq, one, n) == Fraction(n * n - n, 2)
        assert convolve(n_seq, n_seq, n) == Fraction(n ** 3 - n, 6)
    assert convolve(one, one, 1) == 0   # empty sum at n = 1


def test_equal_prefix_reports_first_mismatch():
    a = ClosedFormSequence([(1, 1, 1)])
    b = ClosedFormSequence([(1, 1, 1)], deltas={4: 1})
    assert equal_prefix(a, b, 3) == (True, None)
    assert equal_prefix(a, b, 10) == (False, 4)


def test_equal_prefix_on_mixed_value_types():
    # the same values as ints, Fractions, rational and radical QuadExt
    def values(n):
        return Fraction(n * n, 2)

    kinds = [lambda n: Fraction(n * n, 2),
             lambda n: QuadExt(Fraction(n * n, 2)),
             lambda n: QuadExt(Fraction(n * n, 2) - 1, 1, 5)
             - QuadExt(-1, 1, 5),
             lambda n: n * n // 2 if n % 2 == 0 else Fraction(n * n, 2)]
    for f in kinds:
        for g in kinds:
            assert equal_prefix(f, g, 20) == (True, None)
    # the first mismatch, whatever type each side has there
    def broken(n):
        return QuadExt(values(n)) if n < 6 else values(n) + 1

    assert equal_prefix(broken, values, 20) == (False, 6)
    assert equal_prefix(values, broken, 20) == (False, 6)
    # a radical value is never equal to a rational one that looks the same
    def radical(n):
        return QuadExt(values(n), 1, 5) if n == 3 else values(n)

    assert radical(3).rational_part == values(3)
    assert equal_prefix(radical, values, 20) == (False, 3)
    assert equal_prefix(values, radical, 20) == (False, 3)
    with pytest.raises(TypeError):
        equal_prefix(lambda n: n * n / 2, values, 5)
    with pytest.raises(TypeError):
        equal_prefix(values, lambda n: float(values(n)), 5)


def test_the_self_check_makes_no_fraction_per_value(monkeypatch):
    # a Fraction per checked value costs a gcd of numbers that grow with
    # n; the check's count must not grow with its horizon
    made = [0]

    class Counted(Fraction):
        def __new__(cls, *args):
            made[0] += 1
            return Fraction(*args)

    spec = parse_program("a[n+1] = 7/3*a[n] + n^3; a[1] = 1").to_spec()
    counts = []
    for upto in (64, 256):
        closed = inverse_transform(transform_of(spec))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "Fraction", Counted)
            patch.setattr(sequences, "Fraction", Counted)
            made[0] = 0
            assert verify_solution(spec, closed, upto).passed
        counts.append(made[0])
    assert counts[0] == counts[1]


def test_verify_solution_details_are_unchanged():
    fib = fibonacci()
    bad_start = verify_solution(fib, lambda n: QuadExt(n, 1, 5), upto=20)
    assert (bad_start.first_failure, bad_start.detail) == (
        1, "initial value a(1) is 1 + sqrt(5), expected 1")
    second = verify_solution(fib, lambda n: Fraction(n * n), upto=20)
    assert (second.first_failure, second.detail) == (
        2, "initial value a(2) is 4, expected 1")
    ref = RecursiveSequence(fib)
    late = verify_solution(
        fib, lambda n: ref(n) if n < 4 else int(ref(n)) + 1, upto=20)
    assert (late.first_failure, late.detail) == (
        4, "recurrence fails producing a(4)")


def test_inverse_transform_fibonacci():
    fib = inverse_transform(RatFunc((0, 1), (-1, -1, 1)))
    values = [fib(n) for n in range(1, 10)]
    assert values == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert all(isinstance(v, Fraction) for v in values)
    assert {t.root for t in fib.terms} == {PHI, PSI}


def test_inverse_transform_keeps_deltas():
    # 1/(t - 1) + 7/t^2: the constant 1 plus a spike of 7 at n = 2
    expr = RatFunc((1,), (-1, 1)) + \
        RatFunc((7,), (0, 0, 1))
    seq = inverse_transform(expr)
    assert seq(1) == 1 and seq(2) == 8 and seq(3) == 1


def test_round_trip_randomized(with_partners):
    # closed form -> forward transform -> partial fractions -> closed form;
    # a radical root brings its conjugate partner
    rng = random.Random(161803)
    roots_pool = [QuadExt(1), QuadExt(2), QuadExt(Fraction(1, 2)),
                  QuadExt(-1), PHI, PSI]
    cases = 0
    while cases < 100:
        chosen = rng.sample(roots_pool, rng.randint(1, 3))
        terms = [(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), r,
                  rng.randint(1, 3)) for r in chosen]
        deltas = {}
        if rng.random() < 0.3:
            deltas[rng.randint(1, 4)] = Fraction(rng.randint(-5, 5))
        seq = ClosedFormSequence(with_partners(terms), deltas)
        if seq.is_zero:
            continue
        back = inverse_transform(seq.transform())
        assert back == seq
        cases += 1


def test_forward_transform_matches_rule_assembly():
    seq = ClosedFormSequence([(1, 2, 2)])
    expected = xf_convolve(geometric(2), geometric(2))
    assert seq.transform() == expected


def test_forward_transform_over_two_fields_matches_the_solver():
    # denominator (t^2 - 2)(t^2 - 3)^2: roots in Q(sqrt(2)) and Q(sqrt(3))
    spec = parse_program(
        "a[n+6] = 8*a[n+4] - 21*a[n+2] + 18*a[n]; "
        "a[1]=1; a[2]=0; a[3]=0; a[4]=0; a[5]=0; a[6]=0").to_spec()
    sqrt2, sqrt3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    seq = ClosedFormSequence([
        (Fraction(9, 2), sqrt2, 1), (Fraction(9, 2), -sqrt2, 1),
        (-4, sqrt3, 1), (-4, -sqrt3, 1),
        (sqrt3 / 2, sqrt3, 2), (-sqrt3 / 2, -sqrt3, 2)])
    expected = transform_of(spec)
    assert seq.transform() == expected
    assert inverse_transform(expected) == seq


def _orbit_closed_form(rng):
    """Terms and spikes of a closed form made of conjugate orbits.

    One or two radical orbits in Q(sqrt(2)), Q(sqrt(3)) or Q(sqrt(5)),
    the same field or two, with poles up to order 3 and terms of every
    lower order at the same root; rational roots and spikes beside them.
    The orbits take distinct orders, so Yun's algorithm separates their
    quadratics.  The two terms of an orbit are listed together."""
    def rational(top=6, den=3):
        return Fraction(rng.randint(-top, top), rng.randint(1, den))

    orders = rng.sample([1, 2, 3], rng.randint(1, 2))
    terms = []
    for m in orders:
        d = rng.choice([2, 3, 5])
        r = QuadExt(rational(3, 2), rational(3, 2) or 1, d)
        for k in range(1, m + 1):
            c = QuadExt(rational(), rational(), d)
            if k == m:
                c = c or QuadExt(1)
            terms += [(c, r, k), (c.conjugate(), r.conjugate(), k)]
    for _ in range(rng.randint(0, 2)):
        terms.append((rational() or 1, rational(3, 2), rng.randint(1, 3)))
    deltas = {rng.randint(1, 4): rational()
              for _ in range(rng.randint(0, 2))}
    return terms, deltas


def test_round_trip_of_orbit_closed_forms_randomized():
    rng = random.Random(1993)
    for _ in range(100):
        seq = ClosedFormSequence(*_orbit_closed_form(rng))
        assert inverse_transform(seq.transform()) == seq


def _float_value(text, n):
    """A closed form's text evaluated in floating point at n."""
    expression = re.sub(r"delta\(n,(\d+)\)", r"(n == \1)", text)
    expression = expression.replace("^", "**").replace("C(", "comb(")
    return eval(expression, {"comb": comb, "sqrt": math.sqrt, "n": n})


def _values_by_definition(terms, deltas, count):
    """a(1)..a(count) summed term by term in QuadExt, each root power
    kept from the previous n."""
    powers = [QuadExt(1)] * len(terms)
    values = []
    for n in range(1, count + 1):
        total = QuadExt(deltas.get(n, 0))
        for i, (c, r, m) in enumerate(terms):
            if n > m:
                powers[i] = powers[i] * r
            if n >= m:
                total = total + c * comb(n - 1, m - 1) * powers[i]
        values.append(total)
    return values


def test_orbit_forms_step_to_rational_values_randomized():
    # every orbit is stepped once in its own field, so a form whose orbits
    # lie in two fields still has rational values, equal to the definition
    rng = random.Random(1993)
    fields = set()
    for _ in range(20):
        terms, deltas = _orbit_closed_form(rng)
        seq = ClosedFormSequence(terms, deltas)
        values = [seq(n) for n in range(1, 201)]
        assert values == _values_by_definition(terms, deltas, 200)
        assert all(isinstance(v, Fraction) for v in values)
        fields.add(len({t.root.radicand for t in seq.terms} - {0}))
        # the printed form, each orbit one quotient, has the same values
        text = str(seq)
        for n in range(1, 25):
            assert _float_value(text, n) == pytest.approx(
                float(values[n - 1]), rel=1e-9, abs=1e-9)
    assert fields == {1, 2}


@pytest.mark.parametrize("terms, message", [
    ([(1, PHI, 1)],
     "term (1/2 + 1/2*sqrt(5))^(n-1) has no conjugate partner"),
    ([(1, PHI, 2), (1, PSI, 1)],
     "term (1/2 - 1/2*sqrt(5))^(n-1) has no conjugate partner"),
    ([(1, PHI, 1), (2, PSI, 1)],
     "term 2*(1/2 - 1/2*sqrt(5))^(n-1) has the partner coefficient 1, "
     "not its conjugate"),
    ([(QuadExt(0, 1, 2), 3, 1)],
     "term (sqrt(2))*3^(n-1) has a radical coefficient on a rational root"),
    ([(QuadExt(0, 1, 2), 0, 2)],
     "term (sqrt(2))*delta(n,2) has a radical coefficient on a rational "
     "root"),
    ([(QuadExt(0, 1, 2), PHI, 1), (QuadExt(0, -1, 2), PSI, 1)],
     "term (-sqrt(2))*(1/2 - 1/2*sqrt(5))^(n-1) has the partner "
     "coefficient sqrt(2), not its conjugate"),
], ids=["lone root", "unmatched order", "unconjugated coefficient",
        "radical coefficient", "radical spike",
        "coefficient in another field"])
def test_forward_transform_refuses_a_term_outside_a_rational_orbit(
        terms, message):
    # such a term has no transform over Q and no rational values, so the
    # closed form is refused when it is built
    with pytest.raises(ValueError) as caught:
        ClosedFormSequence(terms)
    assert str(caught.value) == message


@pytest.mark.parametrize("m", [2.0, "1", Fraction(2)],
                         ids=["float", "str", "Fraction"])
def test_a_multiplicity_that_is_not_an_int_is_refused(m):
    with pytest.raises(ValueError) as caught:
        ClosedFormSequence([(1, 2, m)])
    assert str(caught.value) == f"multiplicity must be a positive int: {m}"


def test_rationality_of_rational_data():
    rng = random.Random(55)
    for _ in range(100):
        seq = ClosedFormSequence([
            (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 3)),
             rng.randint(1, 2)),
        ])
        for n in range(1, 30):
            assert isinstance(seq(n), Fraction)


def test_orbit_rendering():
    # an orbit is one quotient over k^n*sqrt(d), with r = (p+q*sqrt(d))/k
    binet = [(QuadExt(Fraction(1, 2), Fraction(1, 10), 5), PHI, 1),
             (QuadExt(Fraction(1, 2), Fraction(-1, 10), 5), PSI, 1)]
    assert str(ClosedFormSequence(binet)) == \
        "((1+sqrt(5))^n - (1-sqrt(5))^n)/(2^n*sqrt(5))"
    # a repeated orbit: one quotient per multiplicity, each with its
    # binomial; k = 1 is not written
    sqrt2 = QuadExt(0, 1, 2)
    double = [(Fraction(1, 2), sqrt2, 1), (Fraction(1, 2), -sqrt2, 1),
              (-sqrt2 / 4, sqrt2, 2), (sqrt2 / 4, -sqrt2, 2)]
    assert str(ClosedFormSequence(double)) == (
        "(1/2*(sqrt(2))^n + (-1/2)*(-sqrt(2))^n)/sqrt(2)"
        " + ((-1/4)*(n-1)*(sqrt(2))^n + 1/4*(n-1)*(-sqrt(2))^n)/sqrt(2)")
    cube = PHI ** 3 / QuadExt(0, 1, 5)
    assert str(ClosedFormSequence([(cube, PHI, 3),
                                   (cube.conjugate(), PSI, 3)])) == (
        "(C(n-1,2)*(1+sqrt(5))^n - C(n-1,2)*(1-sqrt(5))^n)/(2^n*sqrt(5))")
    # q and p as they come: r = (-1 + 2*sqrt(3))/3
    r = QuadExt(Fraction(-1, 3), Fraction(2, 3), 3)
    assert str(ClosedFormSequence([(1, r, 1), (1, r.conjugate(), 1)])) == (
        "((18/11 + 3/11*sqrt(3))*(-1+2*sqrt(3))^n + (-18/11 + 3/11*sqrt(3))"
        "*(-1-2*sqrt(3))^n)/(3^n*sqrt(3))")
    # an orbit among rational terms, spikes last
    assert str(ClosedFormSequence(binet + [(1, 2, 1)], {2: 3})) == (
        "2^(n-1) + ((1+sqrt(5))^n - (1-sqrt(5))^n)/(2^n*sqrt(5))"
        " + 3*delta(n,2)")
    # a lone term, or a pair whose coefficients are not conjugate, has no
    # rational values and is refused when the form is built
    with pytest.raises(ValueError, match="no conjugate partner"):
        ClosedFormSequence([(1, PHI, 1)])
    with pytest.raises(ValueError, match="not its conjugate"):
        ClosedFormSequence([(1, PHI, 1), (2, PSI, 1)])


def test_str_rendering():
    assert str(ClosedFormSequence([(1, 1, 1)])) == "1"
    assert str(ClosedFormSequence([(1, 1, 2)])) == "(n-1)"
    assert str(ClosedFormSequence([(2, 3, 1)])) == "2*3^(n-1)"
    assert str(ClosedFormSequence([(1, Fraction(1, 2), 1)])) == \
        "(1/2)^(n-1)"
    assert str(ClosedFormSequence([(-1, 2, 1), (1, 1, 1)])) == \
        "1 - 2^(n-1)"
    assert str(ClosedFormSequence([], {2: 3})) == "3*delta(n,2)"
    assert str(ClosedFormSequence()) == "0"


def _rational_orbits(terms, close):
    """Terms (c, r, m) made orbit-closed by close: a rational root keeps
    the rational part of its coefficient (1 if that is 0) and a radical
    root brings its conjugate partner."""
    return close([(c if r.radicand else c.rational_part or 1, r, m)
                  for c, r, m in terms])


def _random_closed_form(rng, d, close):
    """Terms (c, r, m) and rational spikes over Q (d = 0) or of conjugate
    orbits in Q(sqrt d)."""
    def value(top, den):
        rational = Fraction(rng.randint(-top, top), rng.randint(1, den))
        radical = Fraction(rng.randint(-top, top), rng.randint(1, den))
        return QuadExt(rational, radical if d else 0, d)

    terms = [(value(5, 4) or QuadExt(1), value(2, 2), rng.randint(1, 4))
             for _ in range(rng.randint(1, 4))]
    deltas = {rng.randint(1, 6): value(5, 4).rational_part
              for _ in range(rng.randint(0, 2))}
    return _rational_orbits(terms, close), deltas


def _by_definition(terms, deltas, n):
    total = QuadExt(0)
    for c, r, m in terms:
        if n >= m:
            total = total + c * comb(n - 1, m - 1) * r ** (n - m)
    return total + deltas.get(n, 0)


def test_memoised_values_match_the_term_by_term_definition(with_partners):
    rng = random.Random(20260)
    for d in (0, 0, 2, 3, 5, 7) * 2:
        terms, deltas = _random_closed_form(rng, d, with_partners)
        expected = [_by_definition(terms, deltas, n) for n in range(1, 81)]
        in_order = ClosedFormSequence(terms, deltas)
        assert [in_order(n) for n in range(1, 81)] == expected
        assert [in_order(n) for n in range(80, 0, -1)] == expected[::-1]
        # a first read of a(80) fills the memo up to it
        reverse = ClosedFormSequence(terms, deltas)
        assert reverse(80) == expected[79] and len(reverse._memo) == 80
        assert [reverse(n) for n in range(80, 0, -1)] == expected[::-1]
        assert [reverse(n) for n in range(1, 81)] == expected
        # the memo is a cache: a filled sequence equals a fresh one
        fresh = ClosedFormSequence(terms, deltas)
        assert in_order == fresh and hash(in_order) == hash(fresh)
        assert repr(in_order) == repr(fresh)
        other_terms, other_deltas = _random_closed_form(rng, d,
                                                        with_partners)
        factor = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        combined = ClosedFormSequence(
            terms + _scaled(factor, other_terms, other_deltas), deltas)
        for n in range(1, 81):
            assert combined(n) == expected[n - 1] + factor * \
                _by_definition(other_terms, other_deltas, n)
        scaled = ClosedFormSequence(_scaled(factor, terms, deltas))
        assert [scaled(n) for n in range(1, 81)] == \
            [factor * v for v in expected]


def test_a_lone_far_value_is_computed_without_the_memo():
    fib = inverse_transform(RatFunc((0, 1), (-1, -1, 1)))
    expected = RecursiveSequence(fibonacci(1, 1))(20000)
    tracemalloc.start()
    try:
        value = fib(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak < 5 * 2 ** 20


def test_values_past_the_memo_limit_are_not_kept():
    doubling = ClosedFormSequence([(1, 2, 1)])
    for n in range(1, _MEMO_LIMIT + 5):
        assert doubling(n) == 2 ** (n - 1)
    assert len(doubling._memo) == _MEMO_LIMIT


def _wide_closed_form(rng, d, close):
    """Terms and rational spikes whose parts have denominators up to 10^6
    and whose multiplicities reach 13, over Q (d = 0) or of conjugate
    orbits in Q(sqrt d)."""
    sqrt_d = QuadExt(0, 1, d) if d else QuadExt(0)

    def part(top):
        return Fraction(rng.randint(-top, top),
                        rng.choice([1, 2, 3, rng.randint(1, 10 ** 6)]))

    def value(top):
        return part(top) + part(top) * sqrt_d

    terms = [(value(9) or QuadExt(1), value(3), m)
             for m in [1, 13] + rng.sample([1, 2, 5], rng.randint(0, 2))]
    deltas = {rng.randint(1, 15): (value(9) or QuadExt(1)).rational_part
              for _ in range(rng.randint(1, 2))}
    return _rational_orbits(terms, close), deltas


def test_integer_stepping_matches_the_definition_on_wide_denominators(
        with_partners):
    rng = random.Random(8128)
    for d in (0, 0, 5, 1000000007):
        terms, deltas = _wide_closed_form(rng, d, with_partners)
        expected = [_by_definition(terms, deltas, n) for n in range(1, 201)]
        in_order = ClosedFormSequence(terms, deltas)
        assert [in_order(n) for n in range(1, 201)] == expected
        reverse = ClosedFormSequence(terms, deltas)
        assert [reverse(n) for n in range(200, 0, -1)] == expected[::-1]
        assert [reverse(n) for n in range(1, 201)] == expected
        other_terms, other_deltas = _wide_closed_form(rng, d, with_partners)
        factor = Fraction(rng.randint(-9, 9), rng.randint(1, 10 ** 6))
        combined = ClosedFormSequence(
            terms + _scaled(factor, other_terms, other_deltas), deltas)
        assert [combined(n) for n in range(1, 201)] == [
            expected[n - 1] + factor *
            _by_definition(other_terms, other_deltas, n)
            for n in range(1, 201)]


def _shared_roots(rng):
    """Terms (c, r, m) with several multiplicities per root: up to 14 at
    root 1, one or two at a rational root with a denominator, up to 3 on
    an orbit in Q(sqrt d), each radical term with its conjugate partner;
    and rational spikes."""
    def part(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, 7))

    d = rng.choice([2, 3, 5, 7])
    root = QuadExt(part(3), part(3) or 1, d)
    terms = [(part(9) or 1, 1, m) for m in
             {14, *rng.sample(range(1, 14), rng.randint(0, 5))}]
    terms += [(part(9) or 1, Fraction(rng.choice([-5, -3, 3, 5]),
                                      rng.choice([2, 4])), m)
              for m in range(1, rng.randint(1, 2) + 1)]
    for m in {3, *rng.sample([1, 2], rng.randint(0, 2))}:
        c = QuadExt(part(9), part(9) or 1, d)
        terms += [(c, root, m), (c.conjugate(), root.conjugate(), m)]
    deltas = {j: part(9) or 1 for j in rng.sample(range(1, 6), 2)}
    return terms, deltas


# spikes, root 1 up to M = 14, an orbit of multiplicities 2 and 3 and the
# root -3/2 at multiplicity 3, whose own values at n = 1, 2 are negative
_NEGATIVE = [(-2, Fraction(-3, 2), 1), (-5, Fraction(-3, 2), 2),
             (1, Fraction(-3, 2), 3)]
_ORBIT = [(QuadExt(Fraction(-1, 2), 3, 2), QuadExt(1, Fraction(1, 3), 2), m)
          for m in (2, 3)]
_EDGES = (_NEGATIVE + [(1, 1, 14), (Fraction(-7, 3), 1, 5)] + _ORBIT + [
    (c.conjugate(), r.conjugate(), m) for c, r, m in _ORBIT], {2: -3, 5: 4})


def test_per_root_stepping_matches_the_definition_and_its_recurrence():
    rng = random.Random(2025)
    assert [_by_definition(_NEGATIVE, {}, n) for n in (1, 2)] == [-2, -2]
    for terms, deltas in [_shared_roots(rng) for _ in range(4)] + [_EDGES]:
        expected = [_by_definition(terms, deltas, n) for n in range(1, 201)]
        # reads that end on either side of n = M, and a single read, step
        # the same values as one read of 300 and the term-by-term sum
        top = max(m for _, _, m in terms)
        uneven = ClosedFormSequence(terms, deltas)
        for upto in (1, 2, top - 1, top, top + 1, 64, 300):
            uneven.ratios(upto)
        whole = ClosedFormSequence(terms, deltas)
        assert uneven.ratios(300) == whole.ratios(300)
        assert [Fraction(*pair) for pair in whole.ratios(300)] == [
            whole._term_by_term(n) for n in range(1, 301)]
        # the first read of a(200) steps every n in one block; the values
        # below M are divided out of the same table, and only the spikes
        # are summed when the steps start
        reverse = ClosedFormSequence(terms, deltas)
        assert [reverse(n) for n in range(200, 0, -1)] == expected[::-1]
        in_order = ClosedFormSequence(terms, deltas)
        assert [in_order(n) for n in range(1, 201)] == expected
        # the form solves the recurrence of its transform's denominator
        den = in_order.transform().den.fractions
        k = len(den) - 1
        spec = RecurrenceSpec(k, [-c / den[k] for c in den[:k]],
                              [in_order(n) for n in range(1, k + 1)])
        assert verify_solution(spec, in_order, 200).passed
        # an error planted at n is reported at n, with today's texts
        for at in (1, k + 1, 64):
            planted = ClosedFormSequence(terms + [(1, 0, at)], deltas)
            report = verify_solution(spec, planted, 64)
            detail = (f"initial value a(1) is {QuadExt.of(in_order(1) + 1)}"
                      f", expected {spec.initials[0]}" if at == 1 else
                      f"recurrence fails producing a({at})")
            assert (report.passed, report.first_failure, report.detail) \
                == (False, at, detail)


# each text with deg P, P = char * (t - 1)^(p + 1)
ANNIHILATOR_DEGREES = {
    "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1": 2,
    "a[n+2] = 2*a[n+1] - a[n] + n^12; a[1] = 1; a[2] = 2": 15,
    "a[n+2] = 2*a[n+1] + a[n]; a[1] = 1; a[2] = 2": 2,
    # orbits in Q(sqrt(2)) and Q(sqrt(3))
    "a[n+6] = 8*a[n+4] - 21*a[n+2] + 18*a[n]; a[1]=1; a[2]=0; a[3]=0; "
    "a[4]=0; a[5]=0; a[6]=0": 6,
}


@pytest.mark.parametrize("text", list(ANNIHILATOR_DEGREES))
def test_closed_form_values_use_no_quadext_arithmetic(text, capsys,
                                                      monkeypatch):
    # the self-check reads the deg P values that prove it
    inside = [0]
    counts = {"arithmetic": 0, "values": 0}
    # the self-check reads the closed form's values through ratios
    real_ratios = ClosedFormSequence.ratios

    def evaluate(self, upto):
        inside[0] += 1
        try:
            values = real_ratios(self, upto)
            counts["values"] += len(values)
            return values
        finally:
            inside[0] -= 1

    def counted(name):
        real = getattr(QuadExt, name)

        def wrapper(self, other):
            counts["arithmetic"] += inside[0] > 0
            return real(self, other)
        return wrapper

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(QuadExt, name, counted(name))
    monkeypatch.setattr(ClosedFormSequence, "ratios", evaluate)
    assert main(["solve", text, "--json"]) == 0
    capsys.readouterr()
    assert counts["values"] == ANNIHILATOR_DEGREES[text]
    assert counts["arithmetic"] == 0


@pytest.mark.parametrize("text", [
    "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1",
    "a[n+2] = 2*a[n+1] - a[n] + n^6; a[1] = 1; a[2] = 2",
    # an orbit in Q(sqrt(3)) beside the rational root 3
    "a[n+2] = 2*a[n+1] + 2*a[n] + 3^n; a[1] = 1; a[2] = 0"])
def test_stepping_and_root_factors_hash_no_root(text, monkeypatch):
    # the closed form groups its terms by root once, when it is built: the
    # steps' set-up and root_factors read that grouping, not a dict keyed
    # by roots, whose keys hash their Fractions
    closed = inverse_transform(transform_of(parse_program(text).to_spec()))
    degree = sum((len(f) - 1) * m for f, m in closed.root_factors())
    fresh = ClosedFormSequence(closed.terms, closed.deltas)
    hashed = [0]
    real = QuadExt.__hash__

    def counted(self):
        hashed[0] += 1
        return real(self)

    monkeypatch.setattr(QuadExt, "__hash__", counted)
    values = fresh.ratios(degree)
    factors = fresh.root_factors()
    monkeypatch.undo()
    assert hashed[0] == 0
    assert values == closed.ratios(degree)
    assert factors == closed.root_factors()
