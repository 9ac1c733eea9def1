"""End-to-end acceptance battery.

Each test is one acceptance criterion and prints a single PASS or FAIL
line (visible with `pytest -s`; under plain pytest the per-test verdicts
carry the same information).  The criteria cover: the Fibonacci pipeline
from recurrence text to a verified Binet form, superposition over random
initial values, the affine one-step family, a second-difference IVP, the
convolution calculus, the harmonic reference transform, an inverse-square
partial-sum IVP, the golden-ratio limit, numeric series certification of
every rule at 1e-9, and four randomized algebraic property suites.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from dlaplace.exact import QuadExt
from dlaplace.numeric import check_closed_form_pair, series_eval, terms_needed
from dlaplace.polys import Poly, RatFunc, Term, partial_fractions
from dlaplace.sequences import (ClosedFormSequence, convolve, delta,
                                inverse_transform, partial_sums)
from dlaplace.solver import (ForcingTerm, RecurrenceSpec, RecursiveSequence,
                             solve_ivp)
from dlaplace.transforms import geometric, n_power, partial_sum, shift
from fibonacci import PHI, PSI, fibonacci

FIB_SPEC = fibonacci()


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_01_fibonacci_end_to_end():
    with criterion(1, "fibonacci recurrence to Binet form"):
        start = time.perf_counter()
        report = solve_ivp(FIB_SPEC)
        elapsed = time.perf_counter() - start
        assert report.transform == RatFunc(Poly((0, 1)), Poly((-1, -1, 1)))
        expected_terms = {
            (QuadExt(Fraction(1, 2), Fraction(1, 10), 5), PHI, 1),
            (QuadExt(Fraction(1, 2), Fraction(-1, 10), 5), PSI, 1),
        }
        actual = {(t.coefficient, t.root, t.multiplicity)
                  for t in report.closed_form.terms}
        assert actual == expected_terms
        assert not report.closed_form.deltas
        assert str(report.closed_form) == \
            "((1+sqrt(5))^n - (1-sqrt(5))^n)/(2^n*sqrt(5))"
        assert report.values(9) == [1, 1, 2, 3, 5, 8, 13, 21, 34]
        assert elapsed < 1.0


def test_criterion_02_superposition_random_initials():
    with criterion(2, "random initial values via gamma/beta superposition"):
        start = time.perf_counter()
        # gamma and beta: the recursions started at (1,0) and (0,1), which
        # the engine's own a(1)/a(2) basis must match
        gamma = RecursiveSequence(fibonacci(1, 0))
        beta = RecursiveSequence(fibonacci(0, 1))
        first, second = solve_ivp(FIB_SPEC).coefficient_decomposition
        for n in range(1, 65):
            assert first(n) == gamma(n) and second(n) == beta(n)
        rng = random.Random(2026)
        for _ in range(5):
            a1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            a2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            report = solve_ivp(fibonacci(a1, a2))
            reference = RecursiveSequence(report.spec)
            for n in range(1, 65):
                value = report.closed_form(n)
                assert value == reference(n)
                assert value == gamma(n) * a1 + beta(n) * a2
        assert time.perf_counter() - start < 2.0


def test_criterion_03_affine_family():
    with criterion(3, "affine one-step family incl. lambda = 1"):
        cases = [(Fraction(2), Fraction(3), Fraction(1)),
                 (Fraction(3), Fraction(1), Fraction(1)),
                 (Fraction(1, 2), Fraction(-2), Fraction(4)),
                 (Fraction(-1), Fraction(5, 3), Fraction(0))]
        for lam, beta, a1 in cases:
            report = solve_ivp(RecurrenceSpec(1, (lam,), (a1,),
                                              (ForcingTerm(beta, 0),)),
                               verify_upto=50)
            # the textbook form (a1 + beta/(lam-1)) lam^(n-1) + beta/(1-lam)
            head = a1 + beta / (lam - 1)
            assert report.closed_form == ClosedFormSequence(
                [(head, lam, 1), (beta / (1 - lam), 1, 1)])
            reference = RecursiveSequence(report.spec)
            for n in range(1, 51):
                value = report.closed_form(n)
                assert value == reference(n)
                assert value == head * lam ** (n - 1) - beta / (lam - 1)
        report = solve_ivp(RecurrenceSpec(1, (1,), (2,), (ForcingTerm(3, 0),)),
                           verify_upto=50)
        assert report.closed_form == ClosedFormSequence([(2, 1, 1),
                                                         (3, 1, 2)])
        for n in range(1, 51):
            assert report.closed_form(n) == 2 + 3 * (n - 1)


def test_criterion_04_second_difference_ivp():
    with criterion(4, "second-difference IVP closed form"):
        # D^2 f(n) = f(n+2) - 2f(n+1) + f(n) = n, f(1) = 1, (Df)(1) = 2
        spec = RecurrenceSpec(2, (-1, 2), (1, 3), (ForcingTerm(1, 1),))
        report = solve_ivp(spec, verify_upto=100)
        assert report.values(6) == [1, 3, 6, 11, 19, 31]
        for n in range(1, 101):
            cubic_tail = Fraction(n * (n - 1) * (n - 2), 6)
            assert report.closed_form(n) == 2 * n - 1 + cubic_tail


def test_criterion_05_convolution_calculus():
    with criterion(5, "convolution identities and theorem"):
        ramp = ClosedFormSequence([(1, 1, 1), (1, 1, 2)])   # f(n) = n
        ones = ClosedFormSequence([(1, 1, 1)])
        for n in range(1, 101):
            assert convolve(ramp, ones, n) == Fraction(n * n - n, 2)
            assert convolve(ramp, ramp, n) == Fraction(n ** 3 - n, 6)
        rng = random.Random(452)
        pool = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
                Fraction(3)]
        for _ in range(10):
            f = ClosedFormSequence([(rng.randint(1, 3), rng.choice(pool), 1)])
            g = ClosedFormSequence(
                [(rng.randint(1, 3), rng.choice(pool),
                  rng.randint(1, 2))])
            product = f.transform() * g.transform()
            h = inverse_transform(product)
            for n in range(1, 31):
                assert h(n) == convolve(f, g, n)


def test_criterion_06_harmonic_reference():
    with criterion(6, "harmonic series transform at 1e-10"):
        # 1/n <= 1: alpha = 1 and s0 = 0 bound the tail rigorously
        for s in (0.5, 1.0, 2.0, 5.0):
            total = series_eval(lambda n: 1 / n, s,
                                terms_needed(1.0, 0.0, s, 1e-11))
            assert abs(total + math.log1p(-math.exp(-s))) < 1e-10


def test_criterion_07_inverse_square_ivp():
    with criterion(7, "inverse-square partial sum IVP"):
        # f(n) = 1 + sum_{k=1}^{n-1} 1/k^2, (Df)(n) = 1/n^2, f(2) = 2
        inverse_squares = partial_sums(lambda k: Fraction(1, k * k))

        def f(n):
            return inverse_squares(n) + 1

        assert f(2) == 2
        assert all(delta(f)(n) == Fraction(1, n * n) for n in range(1, 201))


def test_criterion_08_golden_ratio_limit():
    with criterion(8, "golden ratio as a term ratio limit"):
        fib = RecursiveSequence(FIB_SPEC)
        ratio = float(fib(41)) / float(fib(40))
        assert abs(ratio - PHI.to_float()) < 1e-12


def test_criterion_09_numeric_certification():
    with criterion(9, "series certification of the rule table at 1e-9"):
        # geometric family, including a divergence-prone base 5
        for base in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            seq = ClosedFormSequence([(1, base, 1)])
            report = check_closed_form_pair(seq, seq.transform())
            assert report.passed and report.tolerance == 1e-9
        # polynomial weights n, n^2, n^3
        for k in (1, 2, 3):
            expr = n_power(k)
            seq = inverse_transform(expr)
            assert all(seq(n) == n ** k for n in range(1, 20))
            assert check_closed_form_pair(seq, expr).passed
        # Fibonacci against its transform at s = 1.2
        fib_report = solve_ivp(FIB_SPEC)
        assert check_closed_form_pair(fib_report.closed_form,
                                      fib_report.transform, (1.2,)).passed
        # partial-sum rule: F/(e^s - 1) with no stray s factor
        expr = partial_sum(n_power(1))
        seq = inverse_transform(expr)
        assert all(seq(n) == Fraction(n * n - n, 2) for n in range(1, 30))
        assert check_closed_form_pair(seq, expr).passed


def test_criterion_10_randomized_property_suites(with_partners, recombines):
    with criterion(10, "four randomized property suites"):
        start = time.perf_counter()
        rng = random.Random(99)
        root_pool = [QuadExt(1), QuadExt(2), QuadExt(Fraction(1, 2)),
                     QuadExt(-1), PHI, PSI]

        # (a) transform followed by inversion is the identity; a radical
        # root brings its conjugate partner
        for _ in range(100):
            picks = rng.sample(root_pool, rng.randint(1, 2))
            terms = [(QuadExt(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              or 1), root, rng.randint(1, 2))
                     for root in picks]
            seq = ClosedFormSequence(with_partners(terms))
            assert inverse_transform(seq.transform()) == seq

        # (b) partial fraction split recombines to the original function;
        # the terms c/(t - r)^m are summed as a closed form's transform
        for _ in range(100):
            picks = rng.sample(root_pool, rng.randint(1, 2))
            # keywords keep the seeded draws in order: m, then c
            parts = [Term(root=root, multiplicity=rng.randint(1, 2),
                          coefficient=QuadExt(rng.randint(1, 5)))
                     for root in picks]
            terms = [(p.coefficient, p.root, p.multiplicity) for p in parts]
            total = ClosedFormSequence(with_partners(terms)).transform()
            recombines(total, partial_fractions(total))

        # (c) the shift rule agrees with index translation
        for _ in range(100):
            base = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-1),
                               Fraction(3)])
            scale = rng.randint(1, 4)
            seq = ClosedFormSequence([(scale, base, 1)])
            k = rng.randint(1, 3)
            shifted = shift(seq.transform(), k,
                            [seq(i) for i in range(1, k + 1)])
            moved = inverse_transform(shifted)
            for n in range(1, 16):
                assert moved(n) == seq(n + k)

        # (d) rational problems produce rational values
        for _ in range(100):
            r1 = rng.choice([Fraction(1), Fraction(2), Fraction(-1),
                             Fraction(1, 2), Fraction(3)])
            r2 = rng.choice([Fraction(1), Fraction(2), Fraction(-1),
                             Fraction(1, 2), Fraction(3)])
            spec = RecurrenceSpec(2, (-r1 * r2, r1 + r2),
                                  (Fraction(rng.randint(-3, 3)),
                                   Fraction(rng.randint(-3, 3))))
            report = solve_ivp(spec, verify_upto=20)
            for n in range(1, 21):
                value = report.closed_form(n)
                assert value.is_rational
                assert value.as_fraction().denominator >= 1

        assert time.perf_counter() - start < 60.0
