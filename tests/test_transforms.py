import math
import random
from fractions import Fraction

import pytest

from dlaplace import polys
from dlaplace.exact import QuadExt
from dlaplace.polys import Poly, RatFunc
from dlaplace.sequences import ClosedFormSequence, inverse_transform
from dlaplace.transforms import (MAX_N_POWER, convolve, difference,
                                 geometric, n_power, partial_sum, shift,
                                 times_n)
from dlaplace.errors import (DegreeLimitExceeded, ImproperRational,
                             ImproperResult)
from fibonacci import PHI

ONE = geometric(1)                     # 1/(t - 1), the constant sequence 1
N = n_power(1)                         # t/(t - 1)^2


def rf(num, den):
    return RatFunc(Poly(num), Poly(den))


def test_geometric_rule():
    assert geometric(5) == rf([1], [-5, 1])
    assert geometric(Fraction(1, 2)) == rf([1], [Fraction(-1, 2), 1])
    # a radical base has no quotient over Q: its conjugate partner is needed
    with pytest.raises(ValueError, match="radical coefficient"):
        geometric(PHI)


def test_rules_refuse_radical_coefficients():
    sqrt5 = QuadExt(0, 1, 5)
    with pytest.raises(ValueError, match="radical coefficient"):
        shift(ONE, 2, [1, sqrt5])
    with pytest.raises(ValueError, match="radical coefficient"):
        ONE * sqrt5
    with pytest.raises(ValueError, match="radical coefficient"):
        sqrt5 * ONE
    with pytest.raises(ValueError, match="radical coefficient"):
        difference(ONE, sqrt5)
    assert ONE * QuadExt(3) == geometric(1) * 3


def test_geometric_zero_base_is_the_spike_at_one():
    spike = geometric(0)
    assert spike == rf([1], [0, 1])          # 1/t
    assert inverse_transform(spike) == ClosedFormSequence(deltas={1: 1})


def test_shift_rule_fibonacci_assembly():
    # t^2 L - a1 t - a2 for the two-step shift
    L = rf([0, 1], [-1, -1, 1])   # t/(t^2 - t - 1)
    shifted = shift(L, 2, [1, 1])
    # f(n+2) for Fibonacci is f(n+1) + f(n): L*(t+1) - 1... check directly
    expected = rf([0, 1], [-1, -1, 1]) * rf([0, 0, 1], [1]) - rf([1, 1], [1])
    assert shifted == expected


def test_shift_composition_matches_single_shift():
    rng = random.Random(5150)
    for _ in range(100):
        root = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2),
                           Fraction(-1), Fraction(3, 2)])
        c = Fraction(rng.randint(1, 5))
        L = geometric(root) * c
        f1 = c                       # c * root^(n-1) at n = 1
        f2 = c * root
        once = shift(L, 1, [f1])
        twice = shift(once, 1, [f2])
        assert twice == shift(L, 2, [f1, f2])


def test_shift_zero_is_identity():
    assert shift(ONE, 0, []) == ONE


def test_shift_with_wrong_initials_is_improper():
    with pytest.raises(ImproperResult):
        shift(ONE, 1, [0])   # the constant sequence 1 has f(1) = 1, not 0
    with pytest.raises(ValueError):
        shift(ONE, 2, [1])   # needs two initial values


def test_difference_rule():
    # D(n) = 1: (t-1)*t/(t-1)^2 - 1 = 1/(t-1)
    assert difference(N, 1) == ONE
    # D(1) = 0
    assert difference(ONE, 1).is_zero
    assert difference(ONE, 1) == shift(ONE, 1, [1]) - ONE


def test_difference_consistency_randomized():
    rng = random.Random(31337)
    for _ in range(100):
        root = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2),
                           Fraction(-2)])
        c = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        L = geometric(root) * c
        assert difference(L, c) == shift(L, 1, [c]) - L


def test_times_n_builds_power_table():
    assert N == rf([0, 1], [1, -2, 1])
    n2 = times_n(N)
    assert n2 == rf([0, 1, 1], [-1, 3, -3, 1])
    n3 = times_n(n2)
    # numerator 1, 4, 1: the square bracket coefficients checked by series
    assert n3 == rf([0, 1, 4, 1], [1, -4, 6, -4, 1])
    assert n_power(2) == n2
    assert n_power(3) == n3


def test_times_n_scales_deltas_by_position():
    # 2/t^3 + 1/t, spikes at n = 3 and n = 1, becomes 6/t^3 + 1/t
    expr = rf([2], [0, 0, 0, 1]) + rf([1], [0, 1])
    expected = rf([6], [0, 0, 0, 1]) + rf([1], [0, 1])
    assert times_n(expr) == expected


def test_n_power_matches_the_times_n_iteration():
    # the Eulerian closed form of n^k b^n against k applications of the
    # times_n rule to b^n = b * b^(n-1)
    for base in (1, 3, Fraction(1, 2), -2, Fraction(-2, 3)):
        expr = geometric(base) * base
        for k in range(MAX_N_POWER + 1):
            assert n_power(k, base) == expr
            expr = times_n(expr)


def test_n_power_denominator_structure():
    for k in range(0, 7):
        expr = n_power(k)
        assert expr.den == Poly.from_roots(*([1] * (k + 1)))
    with pytest.raises(DegreeLimitExceeded):
        n_power(MAX_N_POWER + 1)
    with pytest.raises(ValueError):
        n_power(-1)
    with pytest.raises(ValueError):
        n_power(2, 0)


def test_convolution_is_the_product():
    assert convolve(N, ONE) == N * ONE
    assert convolve(N, ONE) == convolve(ONE, N)
    a, b, c = geometric(2), geometric(3), ONE
    assert convolve(a, convolve(b, c)) == convolve(convolve(a, b), c)


def test_partial_sum_divides_by_t_minus_one():
    assert partial_sum(N) == rf([0, 1], [-1, 3, -3, 1])
    # partial sums of the spike at 1: the step sequence 0, 1, 1, ...
    stepped = partial_sum(geometric(0))
    assert stepped == rf([1], [0, -1, 1])


def test_rules_reduce_their_quotient_once(monkeypatch):
    # each rule's RatFunc arithmetic already reduces; checking the result
    # must not run a further gcd
    g = 3 * geometric(2)
    calls = []
    real_gcd = polys.poly_gcd

    def counted(a, b):
        calls.append(1)
        return real_gcd(a, b)

    monkeypatch.setattr(polys, "poly_gcd", counted)
    for rule, expected in ((lambda: shift(g, 2, [3, 6]), 4),
                           (lambda: difference(g, 3), 4),
                           (lambda: partial_sum(g), 2),
                           (lambda: convolve(g, geometric(5)), 2)):
        calls.clear()
        rule()
        assert len(calls) == expected


def test_linearity_and_scalar_ops():
    expr = 3 * ONE - N * Fraction(1, 2)
    assert expr == 3 * ONE - Fraction(1, 2) * N
    assert (ONE * 0).is_zero
    assert (-ONE) + ONE == RatFunc()


def test_deltas_fold_into_ratfunc():
    # 1/(t-1) + (1/2)/t^2 is the single fraction (t^2 + t/2 - 1/2)/(t^3 - t^2)
    other = rf([1], [-1, 1]) + rf([Fraction(1, 2)], [0, 0, 1])
    assert other == rf([Fraction(-1, 2), Fraction(1, 2), 1], [0, 0, -1, 1])


def test_inverse_transform_refuses_a_polynomial_part():
    # t/(t - 1) = 1 + 1/(t - 1) is the transform of no sequence
    with pytest.raises(ImproperRational):
        inverse_transform(RatFunc(Poly((0, 1)), Poly((-1, 1))))


IMPROPER = rf([0, 0, 1], [-1, 1])      # t^2/(t - 1)


@pytest.mark.parametrize("rule, args", [
    (geometric, (3,)),
    (n_power, (4, -2)),
    (shift, (N, 1, [1])),
    (difference, (N, 1)),
    (times_n, (N,)),
    (convolve, (N, ONE)),
    (partial_sum, (N,)),
], ids=["geometric", "n_power", "shift", "difference", "times_n",
        "convolve", "partial_sum"])
def test_rules_return_strictly_proper_ratfuncs(rule, args):
    result = rule(*args)
    assert type(result) is RatFunc and result.is_strictly_proper
    if args[0] is N:
        # no rule passes on a polynomial part it is given
        with pytest.raises(ImproperResult):
            rule(IMPROPER, *args[1:])


def test_definitional_series_agreement_randomized():
    # each rule output must agree with the series it claims to represent
    rng = random.Random(2718281)
    cases = 0
    while cases < 100:
        base = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
        c = Fraction(rng.randint(1, 4))
        L = geometric(base) * c
        f = lambda n: c * base ** (n - 1)
        choice = rng.randrange(4)
        if choice == 0:
            expr, g = times_n(L), (lambda n: n * f(n))
        elif choice == 1:
            expr, g = partial_sum(L), (lambda n: sum(f(k)
                                                     for k in range(1, n)))
        elif choice == 2:
            expr, g = shift(L, 1, [f(1)]), (lambda n: f(n + 1))
        else:
            expr, g = difference(L, f(1)), (lambda n: f(n + 1) - f(n))
        s = 1.2 if base <= 1 else 1.5
        t0 = math.exp(s)
        series = sum(float(g(n)) * math.exp(-s * n) for n in range(1, 60))
        assert expr.eval_float(t0) == pytest.approx(series, abs=1e-6)
        cases += 1


def test_render_with_deltas():
    # 1/(t - 1) + 3/t^2 prints as its one folded fraction
    expr = rf([1], [-1, 1]) + rf([3], [0, 0, 1])
    assert expr.render() == "(t^2 + 3*t - 3)/(t^3 - t^2)"
    assert expr.render("e^s") == "(e^(2s) + 3*e^s - 3)/(e^(3s) - e^(2s))"
    assert geometric(0).render() == "1/t"
