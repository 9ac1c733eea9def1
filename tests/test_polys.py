import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from dlaplace import polys, transforms
from dlaplace.dsl import parse_program
from dlaplace.exact import QuadExt, sort_key
from dlaplace.polys import (Poly, RatFunc, T, factor_roots, partial_fractions,
                            poly_gcd)
from dlaplace.errors import ImproperRational, UnsupportedFactorization
from dlaplace.sequences import ClosedFormSequence
from dlaplace.solver import transform_of
from fibonacci import PHI, PSI
import poly_reference
from poly_reference import from_roots, taylor

FIB_DEN = Poly((-1, -1, 1))  # t^2 - t - 1


def test_zero_polynomial_degree_sentinel():
    assert Poly().degree == -1
    assert Poly((0, 0)).degree == -1
    assert Poly((0, 0)).is_zero
    assert Poly((3,)).degree == 0


def test_arithmetic_basics():
    p = Poly((1, 2))           # 1 + 2t
    q = Poly((-1, 1))          # t - 1
    assert p * q == Poly((-1, -1, 2))
    assert p + q == Poly((0, 3))
    assert p - p == Poly()
    assert (T ** 3).degree == 3
    assert from_roots(1, 3) == Poly((3, -4, 1))


def test_poly_arithmetic_matches_fraction_lists_randomized():
    # Poly holds a positive content times a primitive integer vector; every
    # operation must agree with plain Fraction-list arithmetic, and equal
    # polynomials built different ways must agree in ==, hash and fractions
    rng = random.Random(1832)

    def draw():
        scale = Fraction(rng.randint(1, 40), rng.randint(1, 30))
        return _strip([scale * Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                       for _ in range(rng.randint(0, 5))])

    def summed(a, b, sign=1):
        width = max(len(a), len(b))
        a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
        return _strip([x + sign * y for x, y in zip(a, b)])

    seen_zero = 0
    for _ in range(300):
        a, b = draw(), draw()
        p, q = Poly(a), Poly(b)
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 15))
        k, e = rng.randint(-6, 6), rng.randint(0, 4)
        cases = [
            (p + q, summed(a, b)),
            (p - q, summed(a, b, -1)),
            (q - p, summed(b, a, -1)),
            (p * q, _strip(_fraction_product(a, b))),
            (-p, [-x for x in a]),
            (p ** e, _strip(_fraction_product(*[a] * e))),
            (p.derivative(), _strip([i * x for i, x in enumerate(a) if i])),
            (p * c, _strip([x * c for x in a])),
            (k * p, _strip([k * x for x in a])),
            (p + c, summed(a, [c])),
            ((p + q) - q, a),
            (p * q * c + p, summed(_strip([x * c for x in
                                           _fraction_product(a, b)]), a)),
        ]
        for got, want in cases:
            rebuilt = Poly(want)
            assert got.fractions == tuple(want), (a, b)
            assert got == rebuilt and hash(got) == hash(rebuilt)
            assert got.degree == len(want) - 1
            assert got._content > 0
            assert gcd(*got._ints) == (1 if want else 0)
            seen_zero += not want
    assert seen_zero > 50


def _strip(p):
    while p and not p[-1]:
        p.pop()
    return p


def _fraction_divmod(a, b):
    """Quotient and remainder of two Fraction vectors (lowest degree
    first, b nonzero) by long division."""
    r, b = _strip(list(a)), _strip(list(b))
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        f, shift = r[-1] / b[-1], len(r) - len(b)
        q[shift] = f
        for i, c in enumerate(b, shift):
            r[i] -= f * c
        _strip(r)
    return q, r


def _fraction_gcd(a, b):
    """Monic gcd of two Fraction vectors (lowest degree first) by Euclid."""
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _fraction_product(*factors):
    """The product of Fraction vectors, lowest degree first."""
    out = [Fraction(1)]
    for q in factors:
        prod = [Fraction(0)] * (len(out) + len(q) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(q, i):
                prod[j] += x * y
        out = prod
    return out


def test_gcd():
    a = from_roots(1, 1, 2)
    b = from_roots(1, 3)
    assert poly_gcd(a, b) == from_roots(1)
    assert poly_gcd(a, Poly()) == a          # a is monic
    assert poly_gcd(Poly((2,)), a) == Poly((1,))
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())

    assert poly_gcd(a * Fraction(3, 4), Poly()) == a
    rng = random.Random(41)
    roots = [Fraction(1), Fraction(-1), Fraction(3), Fraction(2, 3),
             Fraction(-5, 7), Fraction(1, 2), Fraction(0)]

    def linear(r):
        return [-r, Fraction(1)]

    planted = {
        "trivial": [],
        "repeated": [linear(Fraction(1))] * 3,
        "fractional": [linear(Fraction(2, 3))] * 2
        + [linear(Fraction(-5, 7))],
        "t^2 - 2": [[Fraction(-2), Fraction(0), Fraction(1)]],
        "mixed": [[Fraction(-2), Fraction(0), Fraction(1)],
                  linear(Fraction(1, 2)), linear(Fraction(1, 2))],
    }
    drawn = set()
    for _ in range(200):
        name = rng.choice(sorted(planted))
        sides = [_fraction_product(
            *planted[name],
            *(linear(rng.choice(roots)) for _ in range(rng.randint(0, 4))),
            [Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                      rng.randint(1, 9))]) for _ in range(2)]
        expected = _fraction_gcd(*sides)
        got = poly_gcd(Poly(sides[0]), Poly(sides[1]))
        assert got == Poly(expected), (name, sides)
        assert got.degree >= len(_fraction_product(*planted[name])) - 1
        drawn.add(name)
    assert drawn == set(planted)

    # a radical coefficient is refused where the operand is built
    with pytest.raises(ValueError, match="radical coefficient"):
        from_roots(QuadExt(0, 1, 2), 1, 1)


def test_squarefree_decomposition(monkeypatch):
    # Yun's factorization in Z[t], which factor_roots runs on every
    # denominator: primitive parts with a positive leading coefficient
    def ints(*roots):
        return list(from_roots(*roots)._ints)

    assert polys._yun(ints(1, 1, 1, 1)) == [(ints(1), 4)]
    assert polys._yun(ints(1, 2, 2, 3, 3, 3)) == [
        (ints(1), 1),
        (ints(2), 2),
        (ints(3), 3),
    ]
    scaled = [-6 * c for c in ints(Fraction(1, 2), Fraction(-2, 3),
                                   Fraction(-2, 3))]
    assert polys._yun(scaled) == [([-1, 2], 1), ([2, 3], 2)]
    # a linear last factor takes the degree left as its multiplicity, in
    # one gcd after gcd(f, f') rather than one per power
    gcds = []
    integer_gcd = polys._integer_gcd
    monkeypatch.setattr(polys, "_integer_gcd",
                        lambda f, g: gcds.append(f) or integer_gcd(f, g))
    assert polys._yun(ints(*[1] * 14, 2, 3)) == [
        (ints(2, 3), 1), (ints(1), 14)]
    assert len(gcds) == 2
    # a squarefree input is its own one factor, and so is a linear one
    assert polys._yun(ints(-1, 2, 5)) == [(ints(-1, 2, 5), 1)]
    assert polys._yun(ints(Fraction(2, 3))) == [([-2, 3], 1)]


def test_eval_and_derivative():
    p = FIB_DEN
    assert p.derivative() == Poly((-1, 2))
    assert Poly((5,)).derivative().is_zero


def test_factor_golden_denominator():
    assert factor_roots(FIB_DEN) == [(PSI, 1), (PHI, 1)]


def test_factor_repeated_and_mixed_roots():
    assert factor_roots(from_roots(1, 1, 1, 1)) == [(QuadExt(1), 4)]
    got = factor_roots(from_roots(1, 3))
    assert got == [(QuadExt(1), 1), (QuadExt(3), 1)]
    got = factor_roots(from_roots(0, 0, Fraction(1, 2)))
    assert got == [(QuadExt(0), 2), (QuadExt(Fraction(1, 2)), 1)]


def test_factor_radical_coefficients_by_norm():
    # t - phi has radical coefficients and is refused; its norm
    # t^2 - t - 1 is rational and factors into phi and its conjugate
    for roots in [(PHI,), (PHI, PHI, 2)]:
        with pytest.raises(ValueError, match="radical coefficient"):
            from_roots(*roots)
    norm = Poly((-1, -1, 1))
    assert factor_roots(norm) == [(PSI, 1), (PHI, 1)]
    den2 = norm * norm * from_roots(2)
    assert factor_roots(den2) == [(QuadExt(2), 1), (PSI, 2), (PHI, 2)]


def _divisors(n):
    """Positive divisors of n, ascending, from its prime powers."""
    n, divs, p = abs(n), [1] if n else [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            divs = [d * p ** k for d in divs for k in range(e + 1)]
        p += 1
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def _vanishes_at(ints, p, q):
    """Whether p/q is a root of sum ints[i] t^i, tested in integers as
    sum ints[i] p^i q^(deg - i) == 0 by homogeneous Horner."""
    acc, q_power = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * q_power
        q_power *= q
    return acc == 0


def _divisor_search(ints):
    """The rational roots of an integer vector by the search factor_roots
    ran before root isolation: every +-p/q in lowest terms with
    p | ints[0] and q | ints[-1], tested in integers."""
    return {Fraction(sign * p, q) for p in _divisors(ints[0])
            for q in _divisors(ints[-1]) if gcd(p, q) == 1
            for sign in (1, -1) if _vanishes_at(ints, sign * p, q)}


def test_root_isolation_matches_the_divisor_search_randomized():
    # squarefree integer vectors of degree 3-8 with a nonzero constant
    # term: some linear factors q t - p planted, the rest random
    rng = random.Random(1976)
    checked = with_roots = 0
    while checked < 300:
        degree = rng.randint(3, 8)
        planted = rng.randint(0, degree)
        linear = [[-rng.randint(-12, 12), rng.randint(1, 6)]
                  for _ in range(planted)]
        rest = [rng.randint(-20, 20) for _ in range(degree - planted)]
        ints = [int(c) for c in _fraction_product(
            *linear, rest + [rng.choice([-3, -1, 1, 4])])]
        if not ints[0]:
            continue
        ints = polys._primitive(ints)
        if len(polys._integer_gcd(ints, polys._derivative(ints))) > 1:
            continue
        pairs = polys._rational_roots(ints)
        assert all(q > 0 and gcd(p, q) == 1 for p, q in pairs)
        found = [Fraction(p, q) for p, q in pairs]
        assert len(set(found)) == len(found)
        assert set(found) == _divisor_search(ints), ints
        checked += 1
        with_roots += bool(found)
    assert with_roots > 100


def test_factor_roots_returns_planted_roots(time_limit):
    # rational roots with numerators to 2^64 and denominators to 12,
    # multiplicities to 14, zero roots, and conjugate pairs in Q(sqrt(d))
    # for d to 10^12, single or double; a divisor search would have to
    # factor the 2^64-sized end coefficients
    rng = random.Random(1993)

    def linear(r):
        return [-r, Fraction(1)]

    with time_limit(30):
        for case in range(40):
            planted = {}
            for _ in range(rng.randint(1, 3)):
                r = Fraction(rng.choice([1, -1]) * rng.randint(1, 2 ** 64),
                             rng.randint(1, 12))
                planted[QuadExt(r)] = rng.randint(1, 3)
            small = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
            planted[QuadExt(small)] = rng.randint(1, 14)
            if case % 2:
                planted[QuadExt(0)] = rng.randint(1, 3)
            factors = [linear(root.rational_part)
                       for root, m in planted.items() for _ in range(m)]
            if case % 4 < 3:
                pair = QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                               Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                               rng.randint(2, 10 ** 12))
                if pair.radicand:
                    m = 1 + case % 2
                    planted[pair] = planted[pair.conjugate()] = m
                    a, b = pair.rational_part, pair.radical_part
                    factors += [[a * a - b * b * pair.radicand, -2 * a,
                                 Fraction(1)]] * m
            got = factor_roots(Poly(_fraction_product(*factors)))
            assert got == sorted(planted.items(),
                                 key=lambda item: sort_key(item[0])), case

        big = linear(Fraction(2 ** 64 + 1, 7))
        for factor, message in [
                ([-1, -1, 0, 1], "irreducible factor of degree 3: t^3 - t - 1"),
                ([1, 0, 1], "quadratic factor t^2 + 1 has complex roots"),
                ([6, 0, -5, 0, 1], "no rational root, and factors of degree "
                                   "4 are not split: t^4 - 5*t^2 + 6"),
                ([2, 0, 3, 0, 1], "factor t^4 + 3*t^2 + 2 has complex roots"),
                ([-2, 0, -1, 0, 1],
                 "factor t^4 - t^2 - 2 has complex roots")]:
            for extra in ([], [big] * 3, [factor, linear(Fraction(0))]):
                den = Poly(_fraction_product(
                    [Fraction(c) for c in factor], *extra))
                with pytest.raises(UnsupportedFactorization) as caught:
                    factor_roots(den)
                assert str(caught.value) == message


def test_rational_factoring_tests_candidates_in_integers(monkeypatch):
    spec = parse_program("a[n+2] = 5*a[n+1] - 6*a[n] + n^3 + 4^n; "
                         "a[1] = 1; a[2] = 4").to_spec()
    den = transform_of(spec).den
    calls = []
    real_call = Poly.__call__

    def counted(self, x):
        calls.append(x)
        return real_call(self, x)

    monkeypatch.setattr(Poly, "__call__", counted)
    assert factor_roots(den) == [
        (QuadExt(1), 4), (QuadExt(2), 1), (QuadExt(3), 1), (QuadExt(4), 1)]
    assert calls == []


def test_rational_roots_are_deflated_in_integers(monkeypatch):
    spec = parse_program("a[n+2] = 2*a[n+1] - a[n] + n^12; "
                         "a[1] = 1; a[2] = 2").to_spec()
    den = transform_of(spec).den

    def fail(*args):
        raise AssertionError("factor_roots built a Poly")

    # the roots are all rational, so every step runs on the integer vector
    monkeypatch.setattr(Poly, "__init__", fail)
    assert factor_roots(den) == [(QuadExt(1), den.degree)]


def test_integer_deflation_matches_polynomial_division_randomized():
    rng = random.Random(1729)
    for _ in range(200):
        roots = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                 for _ in range(rng.randint(1, 4))]
        cofactor = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        f = Poly(cofactor + [rng.choice([-3, -1, 1, 2, 5])]) * \
            from_roots(*roots)
        ints = list(f._ints)
        for r in roots:
            quotient, rest = _fraction_divmod(f.fractions, [-r, 1])
            assert not rest
            ints = polys._deflate(ints, r.numerator, r.denominator)
            assert ints == list(Poly(quotient)._ints)
            f = Poly(quotient)


def test_factor_unsupported_cases():
    with pytest.raises(UnsupportedFactorization):
        factor_roots(Poly((-1, -1, 0, 1)))  # t^3 - t - 1, irreducible
    with pytest.raises(UnsupportedFactorization):
        factor_roots(Poly((1, 0, 1)))       # t^2 + 1, complex pair
    with pytest.raises(ValueError, match="radical coefficient"):
        Poly((-QuadExt(0, 1, 5), 0, 1))                # t^2 - sqrt(5)
    with pytest.raises(ValueError):
        factor_roots(Poly((2, 2)))          # not monic
    with pytest.raises(ValueError):
        factor_roots(Poly((1,)))            # constant


def test_radical_coefficients_are_refused():
    sqrt2 = QuadExt(0, 1, 2)
    for build in (lambda: Poly((1, sqrt2)), lambda: Poly.monomial(2, sqrt2),
                  lambda: Poly((1, 1)) * sqrt2, lambda: Poly((1,)) - sqrt2,
                  lambda: RatFunc(Poly((1,)), [sqrt2, 1]),
                  lambda: RatFunc([sqrt2], Poly((0, 1))),
                  lambda: RatFunc(sqrt2),
                  lambda: RatFunc(Poly((1,)), Poly((0, 1))) * sqrt2):
        with pytest.raises(ValueError, match="radical coefficient"):
            build()
    # coefficients are stored as Fractions and read as QuadExt values with
    # radicand 0; a float is inexact
    p = Poly((Fraction(1, 2), 3, QuadExt(1, 0, 5)))
    assert p.fractions == (Fraction(1, 2), Fraction(3), Fraction(1))
    assert all(type(c) is Fraction for c in p.fractions)
    assert all(isinstance(c, QuadExt) and not c.radicand
               for c in p.coefficients)
    assert p.coefficients == p.fractions
    with pytest.raises(TypeError):
        Poly([0.5])
    with pytest.raises(TypeError):
        RatFunc([1], [0.5])


def test_ratfunc_normalization():
    a = RatFunc(Poly((0, 2)), Poly((0, 0, 4)))   # 2t/4t^2 -> 1/(2t) -> monic
    b = RatFunc(Poly((Fraction(1, 2),)), Poly((0, 1)))
    assert a == b
    assert RatFunc(Poly((1, 1)), Poly((1, 1))) == RatFunc(Poly((1,)))
    assert RatFunc(Poly(), Poly((3, 7))).is_zero
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly((1,)), Poly())


def test_ratfunc_arithmetic_and_eval():
    geo5 = RatFunc(Poly((1,)), Poly((-5, 1)))
    assert (geo5 + geo5) == 2 * geo5
    assert geo5 / geo5 == RatFunc(Poly((1,)))
    with pytest.raises(ZeroDivisionError):
        geo5 / RatFunc()


def test_d_ds_is_t_times_derivative():
    # d/ds of 1/(t-1) with t = e^s is -t/(t-1)^2
    a = RatFunc(Poly((1,)), Poly((-1, 1)))
    assert a.d_ds() == RatFunc(Poly((0, -1)), Poly((1, -2, 1)))


def test_partial_fractions_fibonacci_oracle():
    # t/(t^2 - t - 1) = (1/2 + sqrt(5)/10)/(t - phi)
    #                 + (1/2 - sqrt(5)/10)/(t - psi), derived by hand
    terms = partial_fractions(RatFunc(Poly((0, 1)), FIB_DEN))
    expected = {
        PHI: QuadExt(Fraction(1, 2), Fraction(1, 10), 5),
        PSI: QuadExt(Fraction(1, 2), Fraction(-1, 10), 5),
    }
    assert {t.root: t.coefficient for t in terms} == expected
    assert all(t.multiplicity == 1 for t in terms)


def test_partial_fractions_affine_shape():
    # beta/((t-1)(t-lam)) = beta/(lam-1)/(t-lam) + beta/(1-lam)/(t-1)
    beta, lam = Fraction(3), Fraction(4)
    quotient = RatFunc(Poly((beta,)), from_roots(1, lam))
    terms = {(t.root, t.multiplicity): t.coefficient
             for t in partial_fractions(quotient)}
    assert terms == {
        (QuadExt(lam), 1): QuadExt(beta / (lam - 1)),
        (QuadExt(1), 1): QuadExt(beta / (1 - lam)),
    }


def test_partial_fractions_drops_zero_terms():
    # t/(t-1)^2 = 1/(t-1) + 1/(t-1)^2; (t-1)/(t-1)^2 collapses entirely
    terms = partial_fractions(RatFunc(Poly((0, 1)), Poly((1, -2, 1))))
    assert {(t.multiplicity): t.coefficient for t in terms} == \
        {1: QuadExt(1), 2: QuadExt(1)}


def test_partial_fractions_improper_rejected():
    with pytest.raises(ImproperRational):
        partial_fractions(RatFunc(Poly((1, 0, 1)), Poly((-1, 1))))
    with pytest.raises(ImproperRational):
        partial_fractions(RatFunc(Poly((1,)), Poly((2,))) * 1)


def _orbit_poly(r):
    """The monic polynomial over Q whose roots are r and its conjugate:
    t - r, or t^2 - 2 Re(r) t + N(r) for a radical r."""
    if r.is_rational:
        return Poly((-r, 1))
    return Poly((r * r.conjugate(), -2 * r.rational_part, 1))


def test_partial_fractions_recombination_randomized(recombines):
    # a radical root brings its conjugate, with the multiplicity of the
    # one drawn first
    rng = random.Random(424242)
    roots_pool = [QuadExt(1), QuadExt(2), QuadExt(Fraction(1, 2)),
                  QuadExt(-1), QuadExt(3), PHI, PSI]
    checked = 0
    while checked < 100:
        count = rng.randint(1, 3)
        chosen = rng.sample(roots_pool, count)
        mults = [rng.randint(1, 3) for _ in chosen]
        den = Poly((1,))
        for r, m in zip(chosen, mults):
            if r.conjugate() not in chosen[:chosen.index(r)]:
                den = den * _orbit_poly(r) ** m
        num = Poly([Fraction(rng.randint(-9, 9)) for _ in range(den.degree)])
        quotient = RatFunc(num, den)
        if quotient.is_zero:
            continue
        recombines(quotient, partial_fractions(quotient))
        checked += 1


def test_partial_fractions_recombine_exactly_randomized(recombines):
    # every denominator has a rational root of multiplicity up to 13 and
    # often a zero root (spikes); kinds 1-3 add roots in Q(sqrt(2)),
    # Q(sqrt(5)) or Q(sqrt(1000000007)): a conjugate pair under a rational
    # numerator (the pair taken by conjugation), the same pair under a
    # radical numerator, and a lone radical root (radical denominator).
    # The last two are not quotients over Q and are refused.
    # With the large radicand the rational root is +-1 and the radical
    # roots a +- sqrt(d) are simple, so the constant term stays near d;
    # test_factor_roots_returns_planted_roots factors larger ones.
    rng = random.Random(1993)
    for case in range(24):    # each (kind, radicand) pair twice
        kind, d = case % 4, (2, 5, 1000000007)[case % 3]
        large = d > 5
        rational = (rng.choice([1, -1]) if large else
                    Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)))
        roots = [(QuadExt(rational), rng.randint(1, 13))]
        if rng.random() < 0.5:
            roots.append((QuadExt(0), rng.randint(1, 3)))
        r = QuadExt(rng.randint(-1, 1) if large else
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    1 if large else Fraction(rng.randint(1, 3),
                                             rng.randint(1, 2)), d)
        mult = 1 if large else rng.randint(1, 2)
        if kind in (1, 2):
            roots += [(r, mult), (r.conjugate(), mult)]
        elif kind == 3:
            roots.append((r, mult))
        degree = sum(mult for _, mult in roots)
        scalars = [QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                           rng.randint(-2, 2) if kind == 2 else 0, d)
                   for _ in range(degree)]
        if kind == 3:
            with pytest.raises(ValueError, match="radical coefficient"):
                from_roots(r)
            continue
        den = Poly((1,))
        for root, mult in roots:
            if root.radical_part >= 0:
                den = den * _orbit_poly(root) ** mult
        if any(c.radicand for c in scalars):
            with pytest.raises(ValueError, match="radical coefficient"):
                RatFunc(scalars, den)
            continue
        quotient = RatFunc(Poly(scalars), den)
        if quotient.is_zero:
            continue
        terms = partial_fractions(quotient)
        assert all(t.coefficient for t in terms)
        assert len({(t.root, t.multiplicity) for t in terms}) == len(terms)
        recombines(quotient, terms)


def test_rendering():
    assert str(FIB_DEN) == "t^2 - t - 1"
    assert FIB_DEN.render("e^s") == "e^(2s) - e^s - 1"
    fib = RatFunc(Poly((0, 1)), FIB_DEN)
    assert str(fib) == "t/(t^2 - t - 1)"
    assert fib.render("e^s") == "e^s/(e^(2s) - e^s - 1)"
    assert str(RatFunc(Poly((1,)), Poly((-5, 1)))) == "1/(t - 5)"
    assert str(RatFunc(Poly((1,)), Poly((0, 1)))) == "1/t"
    assert str(RatFunc()) == "0"
    assert str(Poly((0, Fraction(-1, 2)))) == "-1/2*t"
    with pytest.raises(ValueError, match="radical coefficient"):
        from_roots(PHI)


def _assert_taylor_matches(p, r, count):
    # the shift returns the h_k of H(R + w) = q^deg P(r + w/q), in Z at a
    # rational root and as pairs in Z[sqrt(d)] at a radical one; p has the
    # coefficient content * h_k * q^(k - deg) at (t - r)^k
    d = r.radicand
    q = lcm(r.rational_part.denominator, r.radical_part.denominator)
    u, v = r.rational_part * q, r.radical_part * q
    xs, ys = polys._taylor_pairs(p._ints, int(u), int(v), d, q, count)
    assert all(type(h) is int for h in xs + ys)
    got = [QuadExt(x, y, d) * p._content * Fraction(q) ** (k - p.degree)
           for k, (x, y) in enumerate(zip(xs, ys))]
    assert got == taylor(p, r, count), (p, r, count)


def test_taylor_shift_matches_quadext_reference_randomized():
    rng = random.Random(1993)

    def rational(bound=9, den=6):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, den))

    def radical_pair():
        # a squarefree radicand up to 10^6, and its conjugate pair
        while True:
            d = rng.randint(2, 10 ** 6)
            if polys._squarefree_split(d)[0] == 1:
                break
        r = QuadExt(rational(), rational() or 1, d)
        return r, r.conjugate()

    def cofactor():
        return Poly([rational() for _ in range(rng.randint(0, 3))]
                    + [rational() or 1])

    for _ in range(30):
        # a rational root p/q of multiplicity up to 14, as n^12 forcing
        # makes at t = 1, and a second rational root
        r = QuadExt(rational(5, 4))
        m = rng.randint(1, 14)
        other = QuadExt(rational(5, 4))
        den = from_roots(*[r] * m) * from_roots(other) * cofactor()
        num = Poly([rational() for _ in range(den.degree)])
        for root in (r, other):
            _assert_taylor_matches(den, root, 2 * m)
            _assert_taylor_matches(num, root, m)
        # more coefficients than the degree: the tail is zero
        _assert_taylor_matches(num, r, num.degree + 3)
    for _ in range(20):
        # a radical pair in Q(sqrt d), alone and beside a rational root
        r, s = radical_pair()
        q = QuadExt(rational(5, 4))
        pair = _orbit_poly(r) ** rng.randint(1, 2)
        for den in (pair, pair * from_roots(*[q] * rng.randint(1, 4))):
            num = Poly([rational() for _ in range(den.degree)])
            for root in (r, s, q):
                _assert_taylor_matches(den, root, 4)
                _assert_taylor_matches(num, root, 3)
    for _ in range(20):
        # a closed form whose conjugate roots carry coefficients that are
        # not conjugate has no transform over Q: it is refused when built
        r, s = radical_pair()
        q = QuadExt(rational(5, 4))
        terms = [
            (QuadExt(rational(), rational(), r.radicand), r, 1),
            (QuadExt(rational(), rational(), r.radicand), s, 1),
            (rational() or 1, q, rng.randint(1, 3)),
            (rational() or 1, 0, rng.randint(1, 2))]
        with pytest.raises(ValueError, match="not its conjugate"):
            ClosedFormSequence(terms)
    # a polynomial with a radical coefficient is refused, so the shift
    # never meets two radicands
    with pytest.raises(ValueError, match="radical coefficient"):
        from_roots(QuadExt(0, 1, 2), 1)


def test_partial_fractions_match_the_series_reference_randomized():
    # the integer expansion returns, term for term and in order, what the
    # series quotient in Fraction and QuadExt arithmetic returns: root 1 up
    # to multiplicity 15, rational roots with denominators, zero roots,
    # Q(sqrt d) orbits up to multiplicity 4, numerators with rational
    # content
    rng = random.Random(2718)

    def rational(bound, den):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, den))

    cases, seen = 0, {"fifteen": 0, "zero": 0, "orbit-4": 0}
    while cases < 60:
        top = 15 if cases % 4 == 0 else rng.randint(1, 14)
        den = Poly((-1, 1)) ** top
        chosen = {Fraction(1)}
        for _ in range(rng.randint(0, 2)):
            r = Fraction(rng.randint(-7, 7), rng.randint(2, 5))
            if r not in chosen:
                chosen.add(r)
                den = den * Poly((-r, 1)) ** rng.randint(1, 3)
        zeros = rng.randint(1, 3) if rng.random() < 0.5 else 0
        den = den * T ** zeros
        orbit = rng.randint(1, 4) if rng.random() < 0.6 else 0
        if orbit:
            while True:
                d = rng.randint(2, 10 ** 4)
                if polys._squarefree_split(d)[0] == 1:
                    break
            root = QuadExt(rational(6, 4), rational(3, 3) or 1, d)
            den = den * _orbit_poly(root) ** orbit
        num = Poly([rational(9, 7) for _ in range(den.degree)])
        quotient = RatFunc(num, den)
        if quotient.is_zero:
            continue
        assert partial_fractions(quotient) == \
            poly_reference.partial_fractions(quotient), quotient
        cases += 1
        seen["fifteen"] += top == 15
        seen["zero"] += zeros > 0
        seen["orbit-4"] += orbit == 4
    assert min(seen.values()) >= 3, seen


def test_partial_fractions_match_the_reference_at_a_huge_rational_root():
    # 1,500-digit P and Q: the pole P/Q beside (t - 1)^4
    big_p, big_q = int("7" * 1500), int("3" * 1499 + "1")
    quotient = transform_of(parse_program(
        f"a[n+1] = {big_p}/{big_q}*a[n] + n^3; a[1] = 1").to_spec())
    terms = partial_fractions(quotient)
    assert terms == poly_reference.partial_fractions(quotient)
    assert [(t.root, t.multiplicity) for t in terms] == \
        [(1, 1), (1, 2), (1, 3), (1, 4), (Fraction(big_p, big_q), 1)]


def test_rational_partial_fractions_make_one_fraction_per_term(monkeypatch):
    # at the pole (t - 1)^15 of n^12 forcing, the Fractions made through
    # the polys binding are the root's and one per returned coefficient;
    # the Fraction series quotient this replaced made 34
    spec = parse_program("a[n+2] = 2*a[n+1] - a[n] + n^12; "
                         "a[1] = 1; a[2] = 2").to_spec()
    quotient = transform_of(spec)
    made, real = [], Fraction

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(polys, "Fraction", counted)
    terms = partial_fractions(quotient)
    monkeypatch.undo()
    assert len(terms) == 15
    assert len(made) == 16
    assert terms == poly_reference.partial_fractions(quotient)


def test_rational_partial_fractions_do_no_quadext_arithmetic(monkeypatch):
    spec = parse_program("a[n+2] = 2*a[n+1] - a[n] + n^12; "
                         "a[1] = 1; a[2] = 2").to_spec()
    quotient = transform_of(spec)
    expected = partial_fractions(quotient)
    assert max(t.multiplicity for t in expected) == 15

    def fail(*args):
        raise AssertionError("QuadExt arithmetic on a rational path")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__", "inverse"):
        monkeypatch.setattr(QuadExt, name, fail)
    assert partial_fractions(quotient) == expected


def test_rational_assembly_builds_no_quadext(monkeypatch):
    # Q[t] holds Fractions: the transform of a problem with rational roots
    # and the rules' RatFunc arithmetic on it build no QuadExt at all
    spec = parse_program("a[n+2] = 2*a[n+1] - a[n] + n^12; "
                         "a[1] = 1; a[2] = 2").to_spec()

    def rules():
        expr = transform_of(spec)
        return [expr, transforms.shift(expr, 2, [1, 2]),
                transforms.partial_sum(expr),
                transforms.difference(expr, 1),
                transforms.geometric(Fraction(-2, 3)) * expr]

    expected = rules()

    def fail(*args):
        raise AssertionError("QuadExt built on a rational path")

    for name in ("__init__", "_normalised", "of"):
        monkeypatch.setattr(QuadExt, name, fail)
    assert rules() == expected


def _reduce_by_euclid(n, d):
    """n/d with the gcd cancelled and d monic, by Euclid and long division
    of Fraction vectors: the reduction RatFunc once ran for radical
    coefficients."""
    if n.is_zero:
        return Poly(), Poly((1,))
    g = _fraction_gcd(n.fractions, d.fractions)
    top = _fraction_divmod(n.fractions, g)[0]
    bottom = _fraction_divmod(d.fractions, g)[0]
    return Poly(c / bottom[-1] for c in top), \
        Poly(c / bottom[-1] for c in bottom)


def test_rational_ratfunc_reduces_in_integers():
    # Euclid over Fraction long division is the reference
    rng = random.Random(3141)
    cases = []
    for _ in range(60):
        common = from_roots(*[Fraction(rng.randint(-4, 4),
                                       rng.randint(1, 3))
                              for _ in range(rng.randint(0, 3))])
        num = common * Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                             for _ in range(rng.randint(1, 4))])
        den = common * Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                             for _ in range(rng.randint(1, 3))]
                            + [Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        cases.append((num, den, _reduce_by_euclid(num, den)))
    for num, den, (ref_num, ref_den) in cases:
        for top, bottom in ((num, den),
                            (list(num.fractions), list(den.fractions))):
            quotient = RatFunc(top, bottom)
            assert (quotient.num, quotient.den) == (ref_num, ref_den)
    with pytest.raises(TypeError):
        RatFunc([0.5], [1])
