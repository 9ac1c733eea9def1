import math
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from dlaplace.cli import main
from dlaplace.dsl import parse_program
from dlaplace.errors import RadicandMismatch
from dlaplace.exact import QuadExt
from dlaplace.sequences import (_MEMO_LIMIT, ClosedFormSequence, Term,
                                convolve, delta, equal_prefix,
                                inverse_transform, partial_sums)
from dlaplace.solver import RecursiveSequence, transform_of, verify_solution
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


def test_add_and_scale():
    a = ClosedFormSequence([(1, 2, 1)])
    b = ClosedFormSequence([(1, 2, 1), (1, 1, 1)], deltas={1: 1})
    combined = a + b.scale(2)
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
    assert all(v.is_rational for v in values)
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
        assert all(v.radicand == 0 for v in values)
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
], ids=["lone root", "unmatched order", "unconjugated coefficient",
        "radical coefficient", "radical spike"])
def test_forward_transform_refuses_a_term_outside_a_rational_orbit(
        terms, message):
    with pytest.raises(ValueError) as caught:
        ClosedFormSequence(terms).transform()
    assert str(caught.value) == message


def test_rationality_of_rational_data():
    rng = random.Random(55)
    for _ in range(100):
        seq = ClosedFormSequence([
            (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 3)),
             rng.randint(1, 2)),
        ])
        for n in range(1, 30):
            assert seq(n).is_rational


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
    # a lone term, or a pair whose coefficients are not conjugate, keeps
    # the term-by-term form
    assert str(ClosedFormSequence([(1, PHI, 1)])) == \
        "(1/2 + 1/2*sqrt(5))^(n-1)"
    assert str(ClosedFormSequence([(1, PHI, 1), (2, PSI, 1)])) == \
        "2*(1/2 - 1/2*sqrt(5))^(n-1) + (1/2 + 1/2*sqrt(5))^(n-1)"


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


def _random_closed_form(rng, d):
    """Terms (c, r, m) and spikes over Q (d = 0) or Q(sqrt d)."""
    def value(top, den):
        rational = Fraction(rng.randint(-top, top), rng.randint(1, den))
        radical = Fraction(rng.randint(-top, top), rng.randint(1, den))
        return QuadExt(rational, radical if d else 0, d)

    terms = [(value(5, 4) or QuadExt(1), value(2, 2), rng.randint(1, 4))
             for _ in range(rng.randint(1, 4))]
    deltas = {rng.randint(1, 6): value(5, 4)
              for _ in range(rng.randint(0, 2))}
    return terms, deltas


def _by_definition(terms, deltas, n):
    total = QuadExt(0)
    for c, r, m in terms:
        if n >= m:
            total = total + c * comb(n - 1, m - 1) * r ** (n - m)
    return total + deltas.get(n, 0)


def test_memoised_values_match_the_term_by_term_definition():
    rng = random.Random(20260)
    for d in (0, 0, 2, 3, 5, 7) * 2:
        terms, deltas = _random_closed_form(rng, d)
        expected = [_by_definition(terms, deltas, n) for n in range(1, 81)]
        in_order = ClosedFormSequence(terms, deltas)
        assert [in_order(n) for n in range(1, 81)] == expected
        assert [in_order(n) for n in range(80, 0, -1)] == expected[::-1]
        reverse = ClosedFormSequence(terms, deltas)
        assert [reverse(n) for n in range(80, 0, -1)] == expected[::-1]
        assert [reverse(n) for n in range(1, 81)] == expected
        # the memo is a cache: a filled sequence equals a fresh one
        fresh = ClosedFormSequence(terms, deltas)
        assert in_order == fresh and hash(in_order) == hash(fresh)
        assert repr(in_order) == repr(fresh)
        other_terms, other_deltas = _random_closed_form(rng, d)
        other = ClosedFormSequence(other_terms, other_deltas)
        other(1), other(2)
        factor = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        combined = in_order + other.scale(factor)
        for n in range(1, 81):
            assert combined(n) == expected[n - 1] + factor * \
                _by_definition(other_terms, other_deltas, n)
        scaled = in_order.scale(factor)
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


def _wide_closed_form(rng, d):
    """Terms and spikes whose parts have denominators up to 10^6 and whose
    multiplicities reach 13, over Q (d = 0) or Q(sqrt d)."""
    sqrt_d = QuadExt(0, 1, d) if d else QuadExt(0)

    def part(top):
        return Fraction(rng.randint(-top, top),
                        rng.choice([1, 2, 3, rng.randint(1, 10 ** 6)]))

    def value(top):
        return part(top) + part(top) * sqrt_d

    terms = [(value(9) or QuadExt(1), value(3), m)
             for m in [1, 13] + rng.sample([1, 2, 5], rng.randint(0, 2))]
    deltas = {rng.randint(1, 15): value(9) or QuadExt(1)
              for _ in range(rng.randint(1, 2))}
    return terms, deltas


def test_integer_stepping_matches_the_definition_on_wide_denominators():
    rng = random.Random(8128)
    for d in (0, 0, 5, 1000000007):
        terms, deltas = _wide_closed_form(rng, d)
        expected = [_by_definition(terms, deltas, n) for n in range(1, 201)]
        in_order = ClosedFormSequence(terms, deltas)
        assert [in_order(n) for n in range(1, 201)] == expected
        reverse = ClosedFormSequence(terms, deltas)
        assert [reverse(n) for n in range(200, 0, -1)] == expected[::-1]
        assert [reverse(n) for n in range(1, 201)] == expected
        other_terms, other_deltas = _wide_closed_form(rng, d)
        factor = Fraction(rng.randint(-9, 9), rng.randint(1, 10 ** 6))
        combined = ClosedFormSequence(terms, deltas) + \
            ClosedFormSequence(other_terms, other_deltas).scale(factor)
        assert [combined(n) for n in range(1, 201)] == [
            expected[n - 1] + factor *
            _by_definition(other_terms, other_deltas, n)
            for n in range(1, 201)]


def test_mixed_radicands_raise_where_the_arithmetic_meets_them():
    sqrt2, sqrt3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    seq = ClosedFormSequence([(1, sqrt2, 1), (1, sqrt3, 1)])
    assert seq(1) == 2
    with pytest.raises(RadicandMismatch):
        seq(2)
    with pytest.raises(RadicandMismatch):
        seq(2)
    assert seq(3) == 5
    # the two radicals never meet at one n: every value is defined
    apart = ClosedFormSequence([(1, sqrt2, 1), (1, sqrt3, 2)])
    assert [apart(n) for n in range(1, 7)] == [
        _by_definition([(1, sqrt2, 1), (1, sqrt3, 2)], {}, n)
        for n in range(1, 7)]
    with pytest.raises(RadicandMismatch):
        ClosedFormSequence([(sqrt2, sqrt3, 1)])(2)


@pytest.mark.parametrize("text", [
    "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1",
    "a[n+2] = 2*a[n+1] - a[n] + n^12; a[1] = 1; a[2] = 2",
    "a[n+2] = 2*a[n+1] + a[n]; a[1] = 1; a[2] = 2",
    # orbits in Q(sqrt(2)) and Q(sqrt(3))
    "a[n+6] = 8*a[n+4] - 21*a[n+2] + 18*a[n]; a[1]=1; a[2]=0; a[3]=0; "
    "a[4]=0; a[5]=0; a[6]=0",
])
def test_closed_form_values_use_no_quadext_arithmetic(text, capsys,
                                                      monkeypatch):
    inside = [0]
    counts = {"arithmetic": 0, "values": 0}
    real_call = ClosedFormSequence.__call__

    def evaluate(self, n):
        inside[0] += 1
        try:
            counts["values"] += 1
            return real_call(self, n)
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
    monkeypatch.setattr(ClosedFormSequence, "__call__", evaluate)
    assert main(["solve", text, "--json"]) == 0
    capsys.readouterr()
    assert counts["values"] >= 64 and counts["arithmetic"] == 0
