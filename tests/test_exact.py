import math
import random
from fractions import Fraction

import pytest

from dlaplace.exact import QuadExt, _squarefree_split, sort_key
from dlaplace.errors import CapabilityError, RadicandMismatch
from fibonacci import PHI, PSI, SQRT5
from numeric_reference import to_float


def test_normalization_folds_square_factors():
    # 1 + 2*sqrt(12) = 1 + 4*sqrt(3)
    x = QuadExt(1, 2, 12)
    assert x.radicand == 3
    assert x.radical_part == 4
    assert x == QuadExt(1, 4, 3)


def test_normalization_perfect_square_radicand():
    assert QuadExt(1, 1, 4) == 3
    assert QuadExt(0, 3, 1) == 3
    assert QuadExt(1, 1, 4).radicand == 0


def test_normalization_zero_radical_drops_radicand():
    x = QuadExt(5, 0, 7)
    assert x.radicand == 0 and x.is_rational
    # exact cancellation during normalization
    assert QuadExt(2, -1, 4).is_rational
    assert QuadExt(2, -1, 4) == 0


def test_radicand_split_matches_brute_force():
    assert _squarefree_split(0) == (1, 0)
    for d in range(1, 5000):
        m, d0 = _squarefree_split(d)
        assert m * m * d0 == d
        assert all(d0 % (k * k) for k in range(2, math.isqrt(d0) + 1))


def test_radicand_split_past_the_trial_bound():
    # 65537 and 65539 are the first primes past the trial divisors: a
    # cofactor below the cube of the bound is p, p^2 or p*q
    p, q = 65537, 65539
    assert _squarefree_split(12 * p * p) == (2 * p, 3)
    assert _squarefree_split(18 * p * q) == (3, 2 * p * q)
    assert _squarefree_split(10 ** 12 + 1) == (1, 10 ** 12 + 1)
    assert _squarefree_split(4 * (10 ** 9 + 7)) == (2, 10 ** 9 + 7)
    assert QuadExt(0, 1, 9 * p * p) == 3 * p

def test_large_radicand_is_refused_in_bounded_time(time_limit):
    # the prime 10^30 + 57, and a product of three primes past the trial
    # divisors, are refused by name instead of factored
    with time_limit(5):
        for d in (10 ** 30 + 57, 4 * (10 ** 30 + 57), 65537 * 65539 * 65543):
            with pytest.raises(CapabilityError, match=str(d)):
                _squarefree_split(d)
        with pytest.raises(CapabilityError, match=f"its factor {10 ** 30 + 57} "
                                                  "has no prime factor"):
            QuadExt(0, 1, 4 * (10 ** 30 + 57))


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, -5)


def test_golden_ratio_identities():
    assert PHI * PSI == -1
    assert PHI + PSI == 1
    assert PHI ** 2 == PHI + 1
    assert PHI.conjugate() == PSI
    assert SQRT5 * SQRT5 == 5
    assert SQRT5.conjugate() * SQRT5 == -5


def test_division_by_golden_ratio():
    # 1/phi = (-1 + sqrt(5))/2, checked by multiplying back
    inv = QuadExt(1) / PHI
    assert inv == QuadExt(Fraction(-1, 2), Fraction(1, 2), 5)
    assert inv * PHI == 1
    assert PHI.inverse() == inv


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1) / QuadExt(0)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, 5).inverse()


def test_sign_cases():
    assert (SQRT5 - 2).sign() == 1          # 5 > 4
    assert (SQRT5 - 3).sign() == -1         # 5 < 9
    assert QuadExt(Fraction(3, 2), -1, 2).sign() == 1   # 9/4 > 2
    assert QuadExt(1, -1, 2).sign() == -1   # 1 < 2
    assert PSI.sign() == -1
    assert QuadExt(0).sign() == 0
    assert QuadExt(-7).sign() == -1
    assert (-SQRT5).sign() == -1


def test_comparisons_are_exact():
    assert abs(PSI) == PHI - 1
    assert sorted([PHI, PSI, QuadExt(0)], key=sort_key) == \
        [QuadExt(0), PSI, PHI]
    # a rational value against an int, a Fraction or a rational QuadExt
    half = QuadExt(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != 0 and half != QuadExt(Fraction(1, 3))
    assert QuadExt(3) == 3 and 3 == QuadExt(3)
    # a radical value never equals a rational one
    assert QuadExt(Fraction(1, 2), 1, 5) != Fraction(1, 2)
    assert (half == "1/2") is False and half != 0.5


def test_to_float_golden_values():
    assert abs(PHI.to_float() - 1.6180339887498949) < 1e-12
    assert abs(SQRT5.to_float() - 2.23606797749979) < 1e-12
    assert float(QuadExt(Fraction(1, 3))) == pytest.approx(1 / 3, abs=0)
    assert QuadExt(0).to_float() == 0.0


def test_to_float_tiny_value_keeps_relative_precision():
    # phi^-40 ~ 4.4e-9; the conversion must keep *relative* precision, so
    # compare against a float-pow reference that itself carries ~1 ulp of
    # accumulated rounding
    tiny = PHI ** (-40)
    expected = ((1 + math.sqrt(5)) / 2) ** (-40)
    assert abs(tiny.to_float() - expected) <= 1e-14 * expected


def _float_or_overflow(convert, x):
    try:
        return repr(convert(x))
    except OverflowError:
        return "OverflowError"


def test_to_float_matches_its_definition_randomized():
    # the integer midpoint must round to the double that float() makes of
    # the Fraction midpoint, and overflow exactly where it does
    rng = random.Random(20261019)
    radicands = {2, 3, 10 ** 12 + 39}
    while len(radicands) < 40:
        radicands.add(round(math.exp(rng.uniform(math.log(2), 27.7))))
    # d = m^2 * d0; a square d has no radical part to convert
    split = [d0 for d0 in (_squarefree_split(d)[1] for d in radicands)
             if d0 > 1]
    bound = 10 ** 30
    edges = [QuadExt(0, 10 ** 400, 2), QuadExt(-(10 ** 400), 1, 3),
             QuadExt(0, Fraction(1, 10 ** 400), 5),
             QuadExt(Fraction(1, 10 ** 330), Fraction(1, 10 ** 330), 7),
             QuadExt(Fraction(10 ** 320, 3))]
    values = []
    for i in range(2000):
        d = rng.choice(split)
        p, q = rng.randint(-bound, bound) or 1, rng.randint(1, 10 ** 6)
        if i % 5:
            a = Fraction(rng.randint(-bound, bound), rng.randint(1, 10 ** 6))
        else:
            # a = -b*sqrt(d) to within 3e-30
            near = math.isqrt(p * p * d * 10 ** 60) * (1 if p < 0 else -1)
            a = Fraction(near, q * bound) + Fraction(rng.randint(-2, 2),
                                                     bound)
        values.append(QuadExt._normalised(a, Fraction(p, q), d))
    for x in edges + values:
        assert _float_or_overflow(QuadExt.to_float, x) == \
            _float_or_overflow(to_float, x), repr(x)
    assert {_float_or_overflow(QuadExt.to_float, x) for x in edges[:2]} == \
        {"OverflowError"}


def test_zero_zero_power_is_one():
    assert QuadExt(0) ** 0 == 1
    assert QuadExt(0) ** 3 == 0


def test_negative_power():
    assert PHI ** (-2) == (PHI ** 2).inverse()


def test_radicand_mismatch():
    with pytest.raises(RadicandMismatch):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    with pytest.raises(RadicandMismatch):
        QuadExt(0, 1, 2) * QuadExt(0, 1, 5)
    # rationals are compatible with every radicand
    assert QuadExt(0, 1, 2) + QuadExt(3) == QuadExt(3, 1, 2)


def test_mixed_type_arithmetic():
    assert 2 * SQRT5 == QuadExt(0, 2, 5)
    assert Fraction(1, 2) + PHI == QuadExt(1, Fraction(1, 2), 5)
    assert PHI - 1 == -PSI


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        PHI + 0.5
    with pytest.raises(TypeError):
        0.5 * PHI


def test_str_matches_external_encoding():
    assert str(PHI) == "1/2 + 1/2*sqrt(5)"
    assert str(PSI) == "1/2 - 1/2*sqrt(5)"
    assert str(SQRT5) == "sqrt(5)"
    assert str(-SQRT5) == "-sqrt(5)"
    assert str(QuadExt(Fraction(1, 2))) == "1/2"
    assert str(QuadExt(0, Fraction(-1, 5), 5)) == "-1/5*sqrt(5)"


def _random_value(rng, radicand):
    return QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   radicand)


def test_field_properties_randomized():
    rng = random.Random(20260814)
    checked = 0
    while checked < 150:
        d = rng.choice([0, 2, 3, 5])
        x, y, z = (_random_value(rng, d) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        if y:
            assert (x * y) / y == x
        assert x.conjugate() * y.conjugate() == (x * y).conjugate()
        assert x.conjugate() + y.conjugate() == (x + y).conjugate()
        checked += 1


def test_arithmetic_results_are_in_normal_form():
    # results are built without re-splitting the radicand, so they must
    # equal what the public constructor makes of the same parts
    rng = random.Random(1729)
    for _ in range(150):
        d = rng.choice([0, 2, 5, 1000003])
        x, y = _random_value(rng, d), _random_value(rng, d)
        results = [x + y, x - y, x * y, -x, x.conjugate(), x * 3, x - 1]
        if y:
            results += [x / y, y.inverse()]
        for r in results:
            assert repr(r) == repr(
                QuadExt(r.rational_part, r.radical_part, r.radicand))
            assert (r.radicand == 0) == (r.radical_part == 0)
    root2 = QuadExt(0, 1, 2)
    assert repr(root2 * root2) == repr(QuadExt(2))
    assert repr((1 + root2) - root2) == repr(QuadExt(1))
    for value in (0, 7, Fraction(-6, 4), True):
        assert repr(QuadExt.of(value)) == repr(QuadExt(value))


def test_sign_agrees_with_float_randomized():
    rng = random.Random(99)
    for _ in range(200):
        x = _random_value(rng, rng.choice([0, 2, 3, 5, 7]))
        approx = x.to_float()
        if abs(approx) > 1e-6:
            assert x.sign() == (approx > 0) - (approx < 0)


def test_hash_consistent_with_eq():
    assert hash(QuadExt(1, 2, 12)) == hash(QuadExt(1, 4, 3))
    values = {PHI, PSI, PHI}
    assert len(values) == 2


def test_equal_values_hash_equal_across_types():
    half = Fraction(1, 2)
    assert QuadExt(half) == half and hash(QuadExt(half)) == hash(half)
    assert {QuadExt(half): 5}.get(half) == 5
    assert {half: 5}.get(QuadExt(half)) == 5
    assert {QuadExt(3): "x"}.get(3) == "x" and {3: "x"}.get(QuadExt(3)) == "x"
    assert QuadExt(-2) in {Fraction(-2)} and Fraction(-2) in {QuadExt(-2)}
    assert 7 in {QuadExt(7)} and QuadExt(7) in {7}
    assert len({QuadExt(half), half, Fraction(2, 4)}) == 1
    assert len({QuadExt(2), 2, Fraction(2), QuadExt(Fraction(4, 2))}) == 1
    # a radical value keeps its hash and matches no rational key
    assert hash(PHI) == hash((half, half, 5))
    assert {half: 1}.get(QuadExt(half, 1, 5)) is None
    assert QuadExt(half, 1, 5) not in {half, QuadExt(half)}


def _reference(x):
    return (x.rational_part, x.radical_part, x.radicand)


def _ref_normal(a, b, d):
    return (a, b, d if b else 0)


def _ref_add(x, y, sign=1):
    (a, b, d), (c, e, f) = x, y
    return _ref_normal(a + sign * c, b + sign * e, d or f)


def _ref_mul(x, y):
    (a, b, d), (c, e, f) = x, y
    r = d or f
    return _ref_normal(a * c + b * e * r, a * e + b * c, r)


def _ref_inverse(x):
    a, b, d = x
    norm = a * a - b * b * d
    return _ref_normal(a / norm, -b / norm, d)


def test_arithmetic_matches_a_tuple_reference_randomized():
    # rational operands take their own branch; every result must equal the
    # full Q(sqrt d) formula on (a, b, d) tuples and be in normal form
    rng = random.Random(4711)
    for _ in range(300):
        dx, dy = rng.choice([(0, 0), (0, 2), (2, 0), (5, 5), (0, 5)])
        x, y = _random_value(rng, dx), _random_value(rng, dy)
        if rng.random() < 0.25:
            y = rng.choice([rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        rx, ry = _reference(x), _reference(QuadExt.of(y))
        got = [x + y, x - y, x * y, y + x, QuadExt.of(y) - x, y * x]
        want = [_ref_add(rx, ry), _ref_add(rx, ry, -1), _ref_mul(rx, ry),
                _ref_add(ry, rx), _ref_add(ry, rx, -1), _ref_mul(ry, rx)]
        if y:
            got += [x / y, QuadExt.of(y).inverse()]
            want += [_ref_mul(rx, _ref_inverse(ry)), _ref_inverse(ry)]
        if x:
            got += [QuadExt.of(y) / x, x.inverse()]
            want += [_ref_mul(ry, _ref_inverse(rx)), _ref_inverse(rx)]
        for g, w in zip(got, want):
            assert _reference(g) == w
            assert g.radical_part != 0 or g.radicand == 0
    with pytest.raises(RadicandMismatch):
        QuadExt(1, 1, 2) * QuadExt(1, 1, 5)
    with pytest.raises(RadicandMismatch):
        QuadExt(1, 1, 5) - QuadExt(0, 2, 2)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0).inverse()
    with pytest.raises(ZeroDivisionError):
        QuadExt(3) / 0
