import math
import random
from fractions import Fraction

import pytest

from dlaplace import numeric
from dlaplace.errors import CheckFailed, DivergenceGuard, SeriesCapExceeded
from dlaplace.exact import QuadExt
from dlaplace.numeric import (check_closed_form_pair, growth_bound,
                              series_eval, tail_bound, terms_needed)
from dlaplace.sequences import ClosedFormSequence
from dlaplace.solver import RecursiveSequence, solve_ivp
from dlaplace.transforms import geometric
from fibonacci import fibonacci
from numeric_reference import check_entries, float_values

FIB_REPORT = solve_ivp(fibonacci())
FIB = RecursiveSequence(fibonacci())
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def test_check_closed_form_pair_validation():
    seq, expr = FIB_REPORT.closed_form, FIB_REPORT.transform
    with pytest.raises(ValueError):
        check_closed_form_pair(seq, expr, tolerance=0.0)
    # a grid wholly at or below s0 is refused before the tolerance is read
    with pytest.raises(DivergenceGuard):
        check_closed_form_pair(seq, expr, s_values=(0.2,), tolerance=0.0)


def test_series_eval_geometric():
    # sum_{n>=1} e^(-sn) = 1/(e^s - 1); 40 terms leave a ~1e-18 tail
    total = series_eval(lambda n: 1.0, 1.0, 40)
    assert total == pytest.approx(1 / (math.e - 1), abs=1e-15)


def test_tail_bound_oracle():
    # alpha = 1, s0 = 0, s = 1, N = 20: e^-21/(1 - e^-1)
    q = math.exp(-1.0)
    bound = tail_bound(1.0, 0.0, 1.0, 20)
    assert bound == pytest.approx(q ** 21 / (1 - q), rel=1e-12)
    assert bound < 1.2e-9
    with pytest.raises(DivergenceGuard):
        tail_bound(1.0, 2.0, 1.0, 20)


def test_tail_bound_is_sound():
    # exact tails must sit below the certified bound
    # 5^(n-1) = (1/5) e^(n ln 5): alpha = 1/5, s0 = ln 5
    s = 2.0
    for cut in (5, 10, 20):
        exact_tail = sum(5 ** (n - 1) * math.exp(-s * n)
                         for n in range(cut + 1, cut + 400))
        assert exact_tail <= tail_bound(0.2, math.log(5.0), s, cut) * (1 + 1e-12)
    # fib(n) <= phi^(n-1): alpha = 1/phi, s0 = ln phi
    phi = (1 + math.sqrt(5)) / 2
    for cut in (10, 30):
        exact_tail = sum(FIB(n) * math.exp(-1.2 * n)
                         for n in range(cut + 1, cut + 200))
        assert exact_tail <= tail_bound(1 / phi, LOG_PHI, 1.2, cut) * (1 + 1e-12)


def test_terms_needed():
    n = terms_needed(1.0, 0.0, 1.0, 1e-10)
    assert tail_bound(1.0, 0.0, 1.0, n) <= 1e-10
    assert tail_bound(1.0, 0.0, 1.0, n - 1) > 1e-10
    with pytest.raises(SeriesCapExceeded):
        terms_needed(1.0, 1.0, 1.0000001, 1e-9)
    with pytest.raises(DivergenceGuard):
        terms_needed(1.0, 1.0, 0.5, 1e-9)
    with pytest.raises(ValueError):
        terms_needed(1.0, 0.0, 1.0, 0.0)


def test_growth_bound_on_fibonacci():
    alpha, s0 = growth_bound(FIB_REPORT.closed_form)
    assert s0 == pytest.approx(LOG_PHI + 0.01, abs=1e-12)
    # alpha must dominate every sampled term
    for n in range(1, 51):
        assert FIB(n) <= alpha * math.exp(s0 * n) * (1 + 1e-9)


def test_check_pair_fibonacci():
    report = check_closed_form_pair(FIB_REPORT.closed_form,
                                    FIB_REPORT.transform, (1.2, 2.0), 1e-9)
    assert report.passed
    for entry in report.entries:
        assert entry.discrepancy < 1e-9
        assert entry.discrepancy <= entry.bound + 1e-9
        assert entry.terms < 200


def test_check_pair_detects_wrong_transform():
    with pytest.raises(CheckFailed) as info:
        check_closed_form_pair(FIB_REPORT.closed_form, geometric(2), (1.2,))
    assert info.value.s == 1.2
    assert info.value.discrepancy > 1e-9


def test_check_closed_form_pair_filters_grid():
    # root 5 diverges below ln 5; the default grid keeps only s = 2.0
    seq = ClosedFormSequence([(1, 5, 1)])
    report = check_closed_form_pair(seq, seq.transform())
    assert report.passed
    assert [e.s for e in report.entries] == [2.0]
    # a fully divergent grid is refused rather than silently emptied
    with pytest.raises(DivergenceGuard):
        check_closed_form_pair(seq, seq.transform(), s_values=(1.0,))
    # Fibonacci grows at s0 = ln(phi) + 0.01, about 0.49
    fib, fib_expr = FIB_REPORT.closed_form, FIB_REPORT.transform
    report = check_closed_form_pair(fib, fib_expr, s_values=(0.2, 2.0))
    assert [e.s for e in report.entries] == [2.0]
    with pytest.raises(DivergenceGuard):
        check_closed_form_pair(fib, fib_expr, s_values=(0.2,))


def test_harmonic_transform():
    # 1/n is bounded by 1, so alpha = 1 and s0 = 0 give a rigorous cutoff;
    # the transform s - log(e^s - 1) is evaluated as -log1p(-e^-s)
    for s in (0.5, 1.0, 2.0, 5.0, 10.0):
        total = series_eval(lambda n: 1 / n, s,
                            terms_needed(1.0, 0.0, s, 1e-11))
        assert abs(total + math.log1p(-math.exp(-s))) < 1e-10
    # frozen reference at s = 1
    assert -math.log1p(-math.exp(-1.0)) == pytest.approx(
        0.45867514538708193, abs=1e-16)
    with pytest.raises(DivergenceGuard):
        terms_needed(1.0, 0.0, 0.0, 1e-11)


def test_ratio_limit_golden_ratio():
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(FIB(41)) / float(FIB(40)) - phi) < 1e-12


def test_check_report_json():
    payload = check_closed_form_pair(FIB_REPORT.closed_form,
                                     FIB_REPORT.transform,
                                     (1.2,)).to_json_dict()
    assert payload["passed"] is True
    assert payload["tolerance"] == 1e-9
    (entry,) = payload["checks"]
    assert entry["s"] == 1.2
    assert entry["discrepancy"] < 1e-9
    assert entry["tail_bound"] <= 1e-9 / 2


def _closed_form(rng, big=False):
    """A seeded closed form: rational roots with denominators, conjugate
    orbits in Q(sqrt(d)) and spikes, poles of order up to 6, roots of
    size up to 5.7; with big, one more rational root of 11 to 10^9 or a
    coefficient past the double range."""
    def rational(top, den):
        return Fraction(rng.randint(-top, top), rng.randint(1, den))

    terms = []
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, 6)
        if rng.random() < 0.5:
            terms.append((rational(9, 7) or 1, rational(5, 4) or 1, m))
            continue
        d = rng.choice([2, 3, 5, 7, 10, 13])
        r = QuadExt(rational(2, 3), rational(1, 3) or 1, d)
        c = QuadExt(rational(9, 7), rational(9, 7), d) or QuadExt(1)
        terms += [(c, r, m), (c.conjugate(), r.conjugate(), m)]
    if big and rng.random() < 0.5:
        k = rng.randint(2, 8)
        terms.append((1, Fraction(rng.randint(10 ** k, 10 ** (k + 1)),
                                  rng.randint(1, 9)), rng.randint(1, 6)))
    elif big:
        terms.append((Fraction(10 ** rng.randint(310, 400),
                               rng.randint(1, 9)), rational(2, 3) or 1, 1))
    deltas = {rng.randint(1, 8): rational(9, 7) or 1
              for _ in range(rng.randint(0, 2))}
    return ClosedFormSequence(terms, deltas)


def test_pair_reads_give_the_doubles_of_the_fractions():
    # a / b of a closed form's integer pairs is float(seq(n)) bit for bit
    rng = random.Random(2024)
    for _ in range(60):
        seq = _closed_form(rng)
        doubles = list(numeric._float_terms(seq, 300, "series"))
        expected, past = float_values(seq, 300)
        assert past is None
        assert [v.hex() for v in doubles] == [v.hex() for v in expected]


def test_pair_reads_refuse_the_same_term_as_the_fractions():
    rng = random.Random(2025)
    for _ in range(40):
        seq = _closed_form(rng, big=True)
        _, past = float_values(seq, 300)
        assert past is not None
        with pytest.raises(SeriesCapExceeded) as info:
            series_eval(seq, 2.0, 300)
        assert str(info.value) == \
            f"series at s = 2.0: term {past} of 300 is past the double range"
        if past <= 50:
            with pytest.raises(SeriesCapExceeded) as info:
                growth_bound(seq)
            assert str(info.value).endswith(
                f": term {past} of 50 is past the double range")


def test_check_entries_match_the_fraction_reads():
    # the grid check over pair reads gives the entries that the same
    # check gives over float(seq(n))
    rng = random.Random(2026)
    grid = (2.0, 2.5, 3.0)
    for _ in range(40):
        seq = _closed_form(rng)
        expr = seq.transform()
        report = check_closed_form_pair(seq, expr, grid)
        assert [(e.s, e.terms, e.series_value, e.transform_value,
                 e.discrepancy, e.bound, e.passed)
                for e in report.entries] == check_entries(seq, expr, grid,
                                                          1e-9)
