import json
import random
from fractions import Fraction

import pytest

from dlaplace import polys
from dlaplace.dsl import parse_program
from dlaplace.exact import QuadExt
from dlaplace.polys import Poly, RatFunc
from dlaplace.sequences import (ClosedFormSequence, delta, equal_prefix,
                                inverse_transform, partial_sums)
from dlaplace.solver import (ForcingTerm, RecurrenceSpec, RecursiveSequence,
                             _proof_horizon, solve_ivp, transform_of,
                             verify_solution)
from dlaplace.transforms import geometric, n_power
from dlaplace.errors import (CapabilityError, UnsupportedFactorization,
                             UnsupportedForcing, VerificationFailed)
from fibonacci import PHI, PSI, fibonacci
from poly_reference import evaluate, from_roots
from report_reference import solve_payload
from transform_reference import spec_transform

FIB = fibonacci()


def _solve_affine(lam, beta, a1, verify_upto=64):
    """Solve a(n+1) = lam*a(n) + beta and compare with the textbook form:
    (a1 + beta/(lam-1)) lam^(n-1) + beta/(1-lam), or a1 + beta (n-1) at
    lam = 1."""
    lam, beta, a1 = Fraction(lam), Fraction(beta), Fraction(a1)
    report = solve_ivp(RecurrenceSpec(1, (lam,), (a1,), (ForcingTerm(beta),)),
                       verify_upto)
    if lam == 1:
        expected = ClosedFormSequence([(a1, 1, 1), (beta, 1, 2)])
    else:
        expected = ClosedFormSequence([(a1 + beta / (lam - 1), lam, 1),
                                       (beta / (1 - lam), 1, 1)])
    assert report.closed_form == expected
    return report


def test_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec(0, (), ())
    with pytest.raises(ValueError):
        RecurrenceSpec(2, (Fraction(1),), (1, 1))
    with pytest.raises(ValueError):
        RecurrenceSpec(2, (Fraction(1), Fraction(1)), (1,))
    with pytest.raises(UnsupportedForcing):
        ForcingTerm(1, 13)
    with pytest.raises(UnsupportedForcing):
        ForcingTerm(1, -1)
    with pytest.raises(UnsupportedForcing):
        ForcingTerm(1, 0, 0)


def test_characteristic_polynomial():
    assert FIB.characteristic() == Poly((-1, -1, 1))
    third = RecurrenceSpec(3, (Fraction(2), Fraction(0), Fraction(-1)),
                           (1, 1, 1))
    assert third.characteristic() == Poly((-2, 0, 1, 1))


def _fraction_iteration(spec, count):
    """a(1)..a(count) by stepping the recurrence in Fractions, each forcing
    term evaluated at n from scratch."""
    values = list(spec.initials)
    while len(values) < count:
        m = len(values) - spec.order + 1
        nxt = Fraction(0)
        for term in spec.forcing:
            base = term.base
            value = m ** term.exponent * base.numerator ** m
            if base.denominator > 1:
                value = Fraction(value, base.denominator ** m)
            nxt += term.coefficient * value
        for j, c in enumerate(spec.coefficients):
            if c:
                nxt += c * values[m - 1 + j]
        values.append(nxt)
    return values[:count]


def _seeded_specs(rng, count):
    """Orders 1-4 with up to three forcing terms (exponents 0, 1, 5 and
    12; integer, fractional and negative bases), some homogeneous.  Every
    third spec plants its characteristic roots and adds a term whose base
    is one of them; the others draw coefficients with denominators 1, 2,
    3 and 7, and c_0 = 0 in every fifth."""
    bases = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
             Fraction(1, 2), Fraction(-2, 3), Fraction(3, 7)]
    for case in range(count):
        order = case % 4 + 1
        forcing = [ForcingTerm(Fraction(rng.randint(-9, 9) or 1,
                                        rng.choice((1, 2, 3, 7))),
                               rng.choice((0, 1, 5, 12)), rng.choice(bases))
                   for _ in range(rng.randint(1, 3) if case % 7 != 1 else 0)]
        if case % 3 == 0:
            roots = [rng.choice(bases) for _ in range(order)]
            char = from_roots(*roots)
            coefficients = [-c for c in char.fractions[:-1]]
            forcing.append(ForcingTerm(Fraction(5, 2), rng.choice((0, 12)),
                                       roots[0]))
        else:
            coefficients = [Fraction(rng.randint(-6, 6),
                                     rng.choice((1, 2, 3, 7)))
                            for _ in range(order)]
            if case % 5 == 0:
                coefficients[0] = Fraction(0)
        initials = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
                    for _ in range(order)]
        yield RecurrenceSpec(order, tuple(coefficients), tuple(initials),
                             tuple(forcing))


def test_recursive_sequence_ground_truth():
    ref = RecursiveSequence(FIB)
    assert [ref(n) for n in range(1, 10)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    forced = RecursiveSequence(RecurrenceSpec(
        1, (Fraction(2),), (1,), (ForcingTerm(1, 0),)))
    assert [forced(n) for n in range(1, 5)] == [1, 3, 7, 15]
    with pytest.raises(ValueError):
        ref(0)
    # the integer stepping against the Fraction iteration, read in order
    # and starting from n = 50
    seen = {"orders": set(), "denominators": set(), "c0 = 0": False,
            "homogeneous": False, "n^12": False, "fractional base": False,
            "negative base": False, "base on a root": False}
    for spec in _seeded_specs(random.Random(2718), 24):
        expected = _fraction_iteration(spec, 200)
        in_order = RecursiveSequence(spec)
        assert [in_order(n) for n in range(1, 201)] == expected, spec
        from_50 = RecursiveSequence(spec)
        assert [from_50(n) for n in range(50, 201)] == expected[49:], spec
        assert [from_50(n) for n in range(1, 50)] == expected[:49], spec
        seen["orders"].add(spec.order)
        seen["denominators"] |= {c.denominator for c in spec.coefficients}
        seen["c0 = 0"] |= spec.coefficients[0] == 0
        seen["homogeneous"] |= spec.is_homogeneous
        for term in spec.forcing:
            seen["n^12"] |= term.exponent == 12
            seen["fractional base"] |= term.base.denominator > 1
            seen["negative base"] |= term.base < 0
            seen["base on a root"] |= not evaluate(spec.characteristic(),
                                                   term.base)
    assert seen.pop("orders") == {1, 2, 3, 4}
    assert seen.pop("denominators") >= {2, 3, 7}
    assert all(seen.values()), seen


def test_fibonacci_transform_shape():
    # (a1 t + a2 - a1)/(t^2 - t - 1) with a1 = a2 = 1
    assert transform_of(FIB) == RatFunc(Poly((0, 1)), Poly((-1, -1, 1)))
    general = transform_of(fibonacci(2, 7))
    assert general == RatFunc(Poly((5, 2)), Poly((-1, -1, 1)))


def test_solve_fibonacci_binet():
    report = solve_ivp(FIB)
    expected = ClosedFormSequence([
        (QuadExt(Fraction(1, 2), Fraction(1, 10), 5), PHI, 1),
        (QuadExt(Fraction(1, 2), Fraction(-1, 10), 5), PSI, 1),
    ])
    assert report.closed_form == expected
    assert report.values(9) == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert str(report.closed_form) == \
        "((1+sqrt(5))^n - (1-sqrt(5))^n)/(2^n*sqrt(5))"
    assert report.verified_upto == 64


def test_solve_produces_basis_decomposition():
    report = solve_ivp(FIB)
    first, second = report.coefficient_decomposition
    # gamma and beta columns against direct recursion of (1,0) and (0,1)
    ref1 = RecursiveSequence(fibonacci(1, 0))
    ref2 = RecursiveSequence(fibonacci(0, 1))
    for n in range(1, 30):
        assert first(n) == ref1(n)
        assert second(n) == ref2(n)


def test_superposition_matches_gamma_beta():
    # gamma and beta are the Fibonacci recursions started at (1,0) and (0,1)
    gamma = RecursiveSequence(fibonacci(1, 0))
    beta = RecursiveSequence(fibonacci(0, 1))
    rng = random.Random(64)
    for _ in range(5):
        a1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        report = solve_ivp(fibonacci(a1, a2))
        for n in range(1, 41):
            assert report.closed_form(n) == gamma(n) * a1 + beta(n) * a2


def test_fibonacci_coefficients_oracle():
    # hand values: gamma = 1,0,1,1,2,3 and beta = 0,1,1,2,3,5
    gamma, beta = solve_ivp(FIB).coefficient_decomposition
    assert [gamma(n) for n in range(1, 7)] == [1, 0, 1, 1, 2, 3]
    assert [beta(n) for n in range(1, 7)] == [0, 1, 1, 2, 3, 5]
    assert all(isinstance(part(n), Fraction)
               for part in (gamma, beta) for n in range(1, 7))
    # gamma_n + beta_n is the Fibonacci sequence itself
    fib = RecursiveSequence(FIB)
    for n in range(1, 25):
        assert gamma(n) + beta(n) == fib(n)


def test_exponent_normalizations_agree():
    # the (n-1)-exponent form the engine produces equals the n-exponent
    # Binet form evaluated directly
    report = solve_ivp(FIB)
    sqrt5 = QuadExt(0, 1, 5)
    for n in range(1, 41):
        binet = (PHI ** n - PSI ** n) / sqrt5
        assert report.closed_form(n) == binet


def test_affine_family_closed_forms():
    # lam != 1: (a1 + beta/(lam-1)) lam^(n-1) + beta/(1-lam)
    for lam in (2, 3, Fraction(1, 2), -1):
        report = _solve_affine(lam, Fraction(3, 2), -2, verify_upto=50)
        ref = RecursiveSequence(report.spec)
        for n in range(1, 51):
            assert report.closed_form(n) == ref(n)
    report = _solve_affine(3, 1, 1)
    assert report.values(4) == [1, 4, 13, 40]


def test_affine_lambda_one_is_arithmetic():
    report = _solve_affine(1, 3, 2, verify_upto=50)
    assert report.closed_form == ClosedFormSequence([(2, 1, 1), (3, 1, 2)])
    for n in range(1, 51):
        assert report.closed_form(n) == 2 + 3 * (n - 1)


def test_affine_lambda_zero_collapses_to_spike():
    report = _solve_affine(0, 5, 7)
    assert report.closed_form.deltas == {1: QuadExt(2)}   # a1 - beta
    assert report.values(4) == [7, 5, 5, 5]


def test_affine_near_one_consistency():
    # the lam != 1 formula must stay finite and correct as lam -> 1, and
    # drift from the lam = 1 values linearly in eps
    a1, beta = Fraction(2), Fraction(3)
    drift = {}
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        lam = 1 + eps
        report = _solve_affine(lam, beta, a1, verify_upto=30)
        ref = RecursiveSequence(report.spec)
        worst = 0.0
        for n in range(1, 6):
            exact = report.closed_form(n)
            assert exact == ref(n)
            # float evaluation shows no catastrophic cancellation
            head = (a1 + beta / eps) * float(lam) ** (n - 1)
            assert abs(float(head - float(beta / eps)) - float(exact)) < 1e-6
            worst = max(worst, abs(float(exact - (a1 + beta * (n - 1)))))
        drift[eps] = worst
    assert drift[Fraction(1, 100)] < drift[Fraction(1, 10)] / 5


def test_second_difference_ivp():
    # D^2 f(n) = f(n+2) - 2f(n+1) + f(n) = n, f(1) = 1, (Df)(1) = 2
    spec = RecurrenceSpec(2, (-1, 2), (1, 3), (ForcingTerm(1, 1),))
    report = solve_ivp(spec, verify_upto=100)
    for n in range(1, 101):
        expected = Fraction(2 * n - 1) + Fraction(n * (n - 1) * (n - 2), 6)
        assert report.closed_form(n) == expected
    # transform assembled with the double-shift initial data
    assert report.transform == \
        RatFunc(Poly((1, 0, -1, 1)), from_roots(1, 1, 1, 1))


def test_first_difference_ivp():
    # Df(n) = f(n+1) - f(n) = 1, f(1) = 1
    spec = RecurrenceSpec(1, (1,), (1,), (ForcingTerm(1, 0),))
    report = solve_ivp(spec)
    for n in range(1, 30):
        assert report.closed_form(n) == n


def test_geometric_forcing():
    spec = RecurrenceSpec(1, (Fraction(2),), (1,),
                          (ForcingTerm(1, 0, 3),))
    report = solve_ivp(spec)
    ref = RecursiveSequence(spec)
    for n in range(1, 40):
        assert report.closed_form(n) == ref(n)


def test_forcing_over_one_denominator_matches_the_termwise_sum():
    cases = [
        # pieces share poles: n^3, n^0 and 1^n at t = 1, two terms at t = 2
        (ForcingTerm(2, 3), ForcingTerm(-1, 0), ForcingTerm(3, 0, 1),
         ForcingTerm(Fraction(1, 2), 0, 2), ForcingTerm(5, 0, 2),
         ForcingTerm(Fraction(-7, 3), 0, Fraction(1, 3))),
        # negative bases, one of them raised to n^p
        (ForcingTerm(3, 2, -2), ForcingTerm(-1, 0, -2),
         ForcingTerm(Fraction(1, 5), 1, -1)),
        # bases with a denominator raised to n^p, sharing a pole
        (ForcingTerm(Fraction(5, 3), 4, Fraction(2, 3)),
         ForcingTerm(-2, 0, Fraction(2, 3)),
         ForcingTerm(1, 12, Fraction(-1, 2))),
        # poles shared with the characteristic roots 3 and 4
        (ForcingTerm(2, 1, 3), ForcingTerm(1, 0, 4),
         ForcingTerm(Fraction(-1, 7), 12, 3)),
    ]
    for forcing in cases:
        # characteristic roots 3 and 4
        spec = RecurrenceSpec(2, (Fraction(-12), Fraction(7)), (1, 4),
                              forcing)
        total = RatFunc(Poly((4 - 7 * 1, 1)))    # a(2) - c_1 a(1) + a(1) t
        for term in forcing:
            if term.exponent:
                total = total + n_power(term.exponent, term.base) \
                    * term.coefficient
            else:
                total = total + geometric(term.base) * (
                    term.coefficient * term.base)
        expected = total / RatFunc(spec.characteristic())
        assert transform_of(spec) == expected


def _series_in_inverse_powers(num, den, count):
    """The first count coefficients c_1, c_2, ... of num/den = sum c_n
    t^(-n), for Fraction lists lowest degree first and deg num < deg den:
    with x = 1/t both sides reversed to degree deg den, by power series
    division in plain Fractions."""
    width = len(den)
    top = list(reversed(num + [Fraction(0)] * (width - len(num))))
    bottom = list(reversed(den))
    out = []
    for n in range(1, count + 1):
        acc = top[n] if n < width else Fraction(0)
        acc -= sum(bottom[j] * out[n - j - 1]
                   for j in range(1, min(n, width)))
        out.append(acc / bottom[0])
    return out


def test_transform_matches_the_recursion_randomized():
    # seeded specs with rational coefficients, bases and initial values;
    # the bases repeat across terms and land on characteristic roots, so
    # poles are shared and resonant.  Read in powers of 1/t with plain
    # Fraction lists, the transform must give the recursion's values.
    rng = random.Random(2014)

    def rational(top, bottom):
        return Fraction(rng.randint(-top, top), rng.randint(1, bottom))

    resonant = shared = 0
    for _ in range(60):
        order = rng.randint(1, 3)
        roots = [rational(4, 3) or Fraction(1) for _ in range(order)]
        char = [Fraction(1)]
        for r in roots:     # times (t - r)
            char = [a - r * b for a, b in
                    zip([Fraction(0)] + char, char + [Fraction(0)])]
        pool = roots + [Fraction(1), rational(5, 4) or Fraction(-1, 2)]
        forcing = [ForcingTerm(rational(9, 7) or 1, rng.randint(0, 5),
                               rng.choice(pool))
                   for _ in range(rng.randint(0, 4))]
        bases = [term.base for term in forcing]
        resonant += any(b in roots for b in bases)
        shared += len(set(bases)) < len(bases)
        spec = RecurrenceSpec(order, [-c for c in char[:-1]],
                              [rational(9, 5) for _ in range(order)],
                              forcing)
        expr = transform_of(spec)
        assert expr.is_strictly_proper
        reference = RecursiveSequence(spec)
        assert _series_in_inverse_powers(
            list(expr.num.fractions), list(expr.den.fractions), 40) == \
            [reference(n) for n in range(1, 41)], spec
    assert resonant > 10 and shared > 10


SHARED_RECURSION_CASES = [
    # (text, deg P = order + sum over the bases of top power + 1)
    ("a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1", 2),
    ("a[n+2] = 2*a[n+1] - a[n] + n^12 + 5*3^n; a[1] = 1; a[2] = 1", 16),
    ("a[n+1] = 1/3*a[n] + n^4*(2/3)^n - 5*(2/3)^n; a[1] = 1", 6),
    ("a[n+3] = 2*a[n+2] + a[n+1] - 2*a[n] + n*(-1)^n + 3*n^2 + 2^n; "
     "a[1] = 0; a[2] = 0; a[3] = 0", 9),
]


@pytest.mark.parametrize("text, degree", SHARED_RECURSION_CASES)
def test_transform_of_steps_the_recursion_to_deg_p_values(text, degree):
    spec = parse_program(text).to_spec()
    recursion = RecursiveSequence(spec)
    expr = transform_of(spec, recursion=recursion)
    assert len(recursion._values) == degree
    assert expr.den.degree <= degree


@pytest.mark.parametrize("text, degree", SHARED_RECURSION_CASES)
def test_a_shared_recursion_selects_nothing(text, degree):
    # a recursion passed in, fresh or stepped past deg P already, gives
    # the transform and the check a fresh one gives
    spec = parse_program(text).to_spec()
    expr = transform_of(spec)
    assert transform_of(spec, recursion=RecursiveSequence(spec)) == expr
    stepped = RecursiveSequence(spec)
    stepped(3 * degree)
    assert transform_of(spec, recursion=stepped) == expr
    closed = inverse_transform(expr)
    for recursion in (None, stepped):
        check = verify_solution(spec, closed, recursion=recursion)
        assert (check.passed, check.checked_upto) == (True, 64)


def test_forced_transform_is_reduced_once(monkeypatch):
    # N is read over the annihilator P, so only the final quotient needs
    # a gcd
    calls = []
    real_gcd = polys.poly_gcd

    def counted(a, b):
        calls.append(1)
        return real_gcd(a, b)

    spec = parse_program("a[n+2] = 2*a[n+1] - a[n] + n^12 + 5*3^n; "
                         "a[1] = 1; a[2] = 1").to_spec()
    monkeypatch.setattr(polys, "poly_gcd", counted)
    transform_of(spec)
    assert len(calls) <= 2


FIB_TRANSFORM = RatFunc(Poly((0, 1)), Poly((-1, -1, 1)))


@pytest.mark.parametrize("spec, narrowed, expected", [
    # two forcing terms at one (p, b) that cancel: N(2) = 0
    (RecurrenceSpec(2, (1, 1), (1, 1),
                    (ForcingTerm(3, 1, 2), ForcingTerm(-3, 1, 2))),
     False, FIB_TRANSFORM),
    # a zero coefficient leaves (t - 3)^2 in fden but not in L: N(3) = 0
    (RecurrenceSpec(2, (1, 1), (1, 1), (ForcingTerm(0, 1, 3),)),
     False, FIB_TRANSFORM),
    # a base equal to a characteristic root, which it makes double
    (RecurrenceSpec(2, (-2, 3), (1, 5), (ForcingTerm(1, 0, 2),)),
     True, None),
    # initial values that leave the root 2 unexcited: a(n) = -n, so
    # gcd(N, char) = t - 2
    (RecurrenceSpec(2, (-2, 3), (-1, -2), (ForcingTerm(1),)),
     True, RatFunc(Poly((0, -1)), Poly((1, -2, 1)))),
    # and both roots 1 and 3 unexcited beside forcing at 2: a(n) = 2^n
    (RecurrenceSpec(2, (-3, 4), (2, 4), (ForcingTerm(-1, 0, 2),)),
     True, RatFunc(Poly((2,)), Poly((-2, 1)))),
], ids=["cancelling-terms", "zero-coefficient", "base-on-root",
        "unexcited-root", "unexcited-beside-forcing"])
def test_transform_reduces_by_the_gcd_with_char_alone(
        monkeypatch, spec, narrowed, expected):
    # when N(b) != 0 at every base b, gcd(N, char) = gcd(N, char*fden),
    # and the gcd runs against char; otherwise against char*fden.  Either
    # way the transform is the one RatFunc(N, char*fden) makes, with one
    # gcd
    gcds, real_gcd = [], polys.poly_gcd

    def counted(a, b):
        gcds.append(b)
        return real_gcd(a, b)

    monkeypatch.setattr(polys, "poly_gcd", counted)
    expr = transform_of(spec)
    monkeypatch.undo()
    char = spec.characteristic()
    assert len(gcds) == 1
    assert (gcds[0] == char) == narrowed
    assert expr == spec_transform(spec)
    if expected is not None:
        assert expr == expected


def test_transform_matches_the_sum_of_its_pieces_randomized(monkeypatch):
    # bases repeat, land on characteristic roots and carry cancelling or
    # zero coefficients; initial values sometimes follow one root alone.
    # Both reductions are taken, each with one gcd.
    rng = random.Random(30)

    def rational(top, bottom):
        return Fraction(rng.randint(-top, top), rng.randint(1, bottom))

    gcds, real_gcd = [], polys.poly_gcd

    def counted(a, b):
        gcds.append(b)
        return real_gcd(a, b)

    paths = {"char": 0, "char*fden": 0}
    for _ in range(80):
        order = rng.randint(1, 3)
        roots = [rational(3, 2) or Fraction(1) for _ in range(order)]
        char = from_roots(*roots)
        pool = roots + [Fraction(1), Fraction(2)]
        forcing = []
        for _ in range(rng.randint(0, 3)):
            term = ForcingTerm(rng.choice([0, rational(5, 3) or 1]),
                               rng.randint(0, 3), rng.choice(pool))
            forcing.append(term)
            if rng.random() < 0.3:
                forcing.append(ForcingTerm(-term.coefficient, term.exponent,
                                           term.base))
        if rng.random() < 0.3:
            initials = [roots[0] ** n for n in range(order)]
        else:
            initials = [rational(9, 5) for _ in range(order)]
        spec = RecurrenceSpec(order, [-c for c in char.fractions[:-1]],
                              initials, forcing)
        gcds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(polys, "poly_gcd", counted)
            expr = transform_of(spec)
        assert expr == spec_transform(spec), spec
        assert len(gcds) <= 1
        if gcds and forcing:
            paths["char" if gcds[0] == char else "char*fden"] += 1
    assert min(paths.values()) > 10, paths


def test_resonant_geometric_forcing_is_solved():
    # a(n+1) = 2a(n) + 2^n: the forcing's pole t = 2 is the characteristic
    # root, so the solution has a double pole there: a(n) = n 2^(n-1)
    spec = RecurrenceSpec(1, (Fraction(2),), (1,), (ForcingTerm(1, 0, 2),))
    report = solve_ivp(spec)
    assert report.closed_form == ClosedFormSequence([(1, 2, 1), (2, 2, 2)])
    for n in range(1, 65):
        assert report.closed_form(n) == n * 2 ** (n - 1)
    # D^2 f(n) = n: the forcing's pole t = 1 is the double characteristic root
    resonant_power = RecurrenceSpec(2, (-1, 2), (0, 0), (ForcingTerm(1, 1),))
    solve_ivp(resonant_power)


def test_forcing_bases_planted_on_characteristic_roots():
    # each case plants its characteristic roots and puts every forcing base
    # on one of them, so each n^p b^n term raises that root's multiplicity
    # by p + 1; the closed form must still match the recursion far past
    # the self-check's 64 terms
    rng = random.Random(13)
    pool = [Fraction(1), Fraction(2), Fraction(-1), Fraction(-2),
            Fraction(1, 2), Fraction(-2, 3)]
    on_double = on_negative = 0
    for case in range(24):
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        if case % 2 == 0:
            roots.append(roots[0])
        char = from_roots(*roots)
        forcing = tuple(ForcingTerm(rng.choice([-2, 1, 3]), rng.randint(0, 2),
                                    rng.choice(roots))
                        for _ in range(rng.randint(1, 2)))
        on_double += any(roots.count(t.base) > 1 for t in forcing)
        on_negative += any(t.base < 0 for t in forcing)
        spec = RecurrenceSpec(
            len(roots), tuple(-c for c in char.fractions[:-1]),
            tuple(Fraction(rng.randint(-3, 3)) for _ in roots), forcing)
        closed = solve_ivp(spec).closed_form
        ref = RecursiveSequence(spec)
        for n in range(1, 201):
            assert closed(n) == ref(n), (spec, n)
    assert on_double and on_negative


def test_unsupported_characteristic_polynomials():
    with pytest.raises(UnsupportedFactorization):
        solve_ivp(RecurrenceSpec(3, (Fraction(1), Fraction(1), Fraction(0)),
                                 (1, 1, 1)))
    with pytest.raises(UnsupportedFactorization):
        solve_ivp(RecurrenceSpec(2, (Fraction(-1), Fraction(0)), (1, 1)))


def test_quadratic_irrational_roots_supported():
    # a(n+2) = 2a(n+1) + a(n): roots 1 +- sqrt(2)
    spec = RecurrenceSpec(2, (Fraction(1), Fraction(2)), (1, 2))
    report = solve_ivp(spec)
    roots = {t.root for t in report.closed_form.terms}
    assert roots == {QuadExt(1, 1, 2), QuadExt(1, -1, 2)}


def test_random_constructed_recurrences():
    # build order-2 specs from known rational roots and verify solve
    rng = random.Random(1234)
    pool = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
            Fraction(3), Fraction(-2)]
    for _ in range(100):
        r1, r2 = rng.choice(pool), rng.choice(pool)
        c1, c0 = r1 + r2, -r1 * r2            # t^2 - c1 t - c0
        forcing = ()
        if rng.random() < 0.4:
            forcing = (ForcingTerm(Fraction(rng.randint(1, 3)),
                                 rng.randint(0, 2)),)
        spec = RecurrenceSpec(2, (c0, c1),
                              (Fraction(rng.randint(-5, 5)),
                               Fraction(rng.randint(-5, 5))), forcing)
        report = solve_ivp(spec, verify_upto=40)
        ref = RecursiveSequence(spec)
        for n in range(1, 41):
            value = report.closed_form(n)
            assert isinstance(value, Fraction) and value == ref(n)


def test_verify_solution_passes_and_fails():
    report = solve_ivp(FIB)
    good = verify_solution(FIB, report.closed_form, upto=64)
    assert good.passed and good.first_failure is None
    bad = verify_solution(FIB, lambda n: Fraction(n), upto=20)
    assert not bad.passed
    # n^2 agrees with a(1) = 1 but breaks at the second initial value
    wrong_start = verify_solution(FIB, lambda n: Fraction(n * n), upto=20)
    assert not wrong_start.passed and wrong_start.first_failure == 2


def test_verify_solution_checks_difference_identity():
    # D^2 a + D a = a holds exactly for Fibonacci-form solutions
    report = solve_ivp(FIB)
    result = verify_solution(FIB, report.closed_form, upto=40)
    assert result.passed


def _planted_annihilator(rng):
    """A spec with its annihilator P = char * fden planted: rational roots
    with multiplicity, zero roots, at most one orbit in Q(sqrt d), and
    forcing at resonant, negative and other bases.  Returns the spec, P's
    roots as {root: multiplicity in P} (the orbit by its positive radical
    member) and deg P."""
    def ratio(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, 3))

    roots = {}
    for _ in range(rng.randint(0, 3)):
        r = rng.choice([ratio(4), Fraction(0)])
        roots[r] = roots.get(r, 0) + rng.randint(1, 2)
    char = Poly((1,))
    for r, m in roots.items():
        char = char * Poly((-r, 1)) ** m
    roots = {QuadExt(r): m for r, m in roots.items()}
    if rng.random() < 0.4 or not roots:
        u, v, d = ratio(3), Fraction(rng.choice([-2, -1, 1, 2]),
                                     rng.randint(1, 2)), rng.choice([2, 3, 5])
        m = rng.randint(1, 2)
        char = char * Poly((u * u - d * v * v, -2 * u, 1)) ** m
        roots[QuadExt(u, abs(v), d)] = m
    resonant = [r.rational_part for r in roots if r.is_rational and r]
    poles = {}
    forcing = []
    for _ in range(rng.randint(0, 2)):
        base = rng.choice(resonant + [Fraction(-1), Fraction(-2, 3),
                                      Fraction(3, 2), Fraction(1)])
        p = rng.randint(0, 3)
        forcing.append(ForcingTerm(rng.randint(1, 4), p, base))
        poles[base] = max(poles.get(base, 0), p + 1)
    for b, e in poles.items():
        roots[QuadExt(b)] = roots.get(QuadExt(b), 0) + e
    k = char.degree
    spec = RecurrenceSpec(k, [-c for c in char.fractions[:k]],
                          [ratio(5) for _ in range(k)], forcing)
    return spec, roots, k + sum(poles.values())


def _full_horizon_report(spec, seq, upto):
    """verify_solution's fields from equal_prefix over the whole horizon."""
    k = spec.order
    passed, n = equal_prefix(seq, RecursiveSequence(spec), max(upto, k))
    if passed:
        return True, upto, None, ""
    if n <= k:
        return (False, upto, n, f"initial value a({n}) is "
                f"{QuadExt.of(seq(n))}, expected {spec.initials[n - 1]}")
    return False, upto, n, f"recurrence fails producing a({n})"


def _with(closed, *terms, deltas=None):
    """closed plus the given terms (a radical one with its conjugate)."""
    extra = []
    for c, r, m in terms:
        extra.append((c, r, m))
        if not r.is_rational:
            extra.append((c, r.conjugate(), m))
    return ClosedFormSequence(list(closed.terms) + extra,
                              {**closed.deltas, **(deltas or {})})


def test_proof_horizon_reports_what_the_full_horizon_reports():
    # a closed form whose roots divide P, to their multiplicities, is
    # compared on deg P values only; any other falls back to the whole
    # horizon, and either way the report is the full horizon's
    rng = random.Random(2028)
    seen = dict.fromkeys(("zero root", "orbit", "resonant", "negative base",
                          "upto below deg P", "failure past deg P"), 0)
    for _ in range(40):
        spec, roots, degree = _planted_annihilator(rng)
        closed = inverse_transform(transform_of(spec))
        r = rng.choice(list(roots))
        top = roots[r]
        outside = QuadExt(Fraction(rng.choice([5, 7, 11]), 13))
        upto = rng.choice([0, 1, degree - 1, degree, degree + 1, 64])
        cases = [
            (closed, degree),
            (_with(closed, (Fraction(1, 3), r, rng.randint(1, top))), degree),
            (_with(closed, deltas={degree + 1: 1}), None),
            (_with(closed, deltas={64: -2}), None),
            (_with(closed, (1, outside, 1)), None),
            (_with(closed, (1, r, top + 1)) if r else
             _with(closed, deltas={top + 1: 1}), None),
        ]
        for seq, proof in cases:
            assert _proof_horizon(spec, seq) == proof
            report = verify_solution(spec, seq, upto)
            expected = _full_horizon_report(spec, seq, upto)
            assert (report.passed, report.checked_upto, report.first_failure,
                    report.detail) == expected, (spec, upto)
            seen["failure past deg P"] += (expected[2] or 0) > degree
        seen["zero root"] += QuadExt(0) in roots
        seen["orbit"] += any(not r.is_rational for r in roots)
        seen["resonant"] += any(
            not evaluate(spec.characteristic(), t.base) for t in spec.forcing)
        seen["negative base"] += any(t.base < 0 for t in spec.forcing)
        seen["upto below deg P"] += upto < degree
    assert all(seen.values()), seen


def test_inverse_square_ivp_partial_sums():
    # f(n) = 1 + sum_{k=1}^{n-1} 1/k^2 solves (Df)(n) = 1/n^2 with f(2) = 2
    inverse_squares = partial_sums(lambda k: Fraction(1, k * k))

    def f(n):
        return inverse_squares(n) + 1

    assert f(1) == 1
    assert f(2) == 2
    assert f(4) == 1 + 1 + Fraction(1, 4) + Fraction(1, 9)
    assert all(delta(f)(n) == Fraction(1, n * n) for n in range(1, 201))


def _integer_valued_prefix(seq, upto):
    """True when seq(1..upto) are all integers, exactly."""
    for n in range(1, upto + 1):
        value = QuadExt.of(seq(n))
        if not value.is_rational or value.rational_part.denominator != 1:
            return False
    return True


def test_integer_valuedness_predicate():
    report = solve_ivp(FIB)
    assert _integer_valued_prefix(report.closed_form, 50)
    assert not _integer_valued_prefix(lambda n: Fraction(1, n + 1), 5)


def test_report_json_shape():
    payload = solve_ivp(FIB).to_json_dict(5)
    assert payload["values"] == ["1", "1", "2", "3", "5"]
    assert payload["verified_upto"] == 64
    assert payload["transform"]["num"] == [
        {"rational": "0", "radical": "0", "radicand": 0},
        {"rational": "1", "radical": "0", "radicand": 0},
    ]
    roots = {term["root"]["radical"]
             for term in payload["closed_form"]["terms"]}
    assert roots == {"1/2", "-1/2"}


def test_json_text_matches_the_reference_payload():
    # the writer against json.dumps of a dict tree built from the report:
    # rational roots with multiplicity, orbits in Q(sqrt d), spikes, the
    # zero solution, and no values at count 0
    rng = random.Random(2032)
    specs = [_planted_annihilator(rng)[0] for _ in range(40)]
    specs += [FIB, RecurrenceSpec(1, (3,), (0,))]
    seen = dict.fromkeys(("orbit", "multiple root", "spike", "zero"), 0)
    for spec in specs:
        report = solve_ivp(spec)
        for count in (0, 1, 12):
            text = report.json_text(count)
            assert text == json.dumps(solve_payload(report, count), indent=2)
            assert report.to_json_dict(count) == json.loads(text)
        closed = report.closed_form
        seen["orbit"] += any(not t.root.is_rational for t in closed.terms)
        seen["multiple root"] += any(t.multiplicity > 1
                                     for t in closed.terms)
        seen["spike"] += bool(closed.deltas)
        seen["zero"] += closed.is_zero and report.transform.num.is_zero
    assert all(seen.values()), seen


def test_json_text_refuses_what_the_reference_refuses():
    # a number past the interpreter's digit limit: in the closed form it
    # raises ValueError, in the values the CapabilityError that names it
    big = 10 ** 2200
    wide = solve_ivp(RecurrenceSpec(1, (3,), (big * big,)), 4)
    high = solve_ivp(RecurrenceSpec(1, (big,), (1,)), 4)
    for report, count, error in ((wide, 3, ValueError),
                                 (high, 3, CapabilityError)):
        with pytest.raises(error) as info:
            report.json_text(count)
        with pytest.raises(error) as expected:
            json.dumps(solve_payload(report, count), indent=2)
        assert str(info.value) == str(expected.value)
    assert high.json_text(2) == json.dumps(solve_payload(high, 2), indent=2)
