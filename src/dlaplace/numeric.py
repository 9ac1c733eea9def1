"""Numeric cross-checks between series and their exact transforms.

Everything here is double precision and deliberately one-directional: the
exact engine produces a transform, and this module confirms that the
defining series sum_{n>=1} f(n) e^{-sn} actually agrees with it at sample
points s.  Truncation is controlled by the geometric tail bound

    sum_{n>N} alpha e^{(s0-s)n}  =  alpha e^{(s0-s)(N+1)} / (1 - e^(s0-s))

valid whenever |f(n)| <= alpha e^{s0 n} and s > s0.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Callable, Sequence

from .errors import CheckFailed, DivergenceGuard, SeriesCapExceeded
from .polys import RatFunc
from .sequences import _MEMO_LIMIT, ClosedFormSequence, value_pairs

DEFAULT_TOLERANCE = 1e-9
DEFAULT_S_GRID = (1.0, 1.5, 2.0)
# A gap within 16 ulps (2^-52 each) of the values compared is double
# rounding, which no tolerance below it can resolve.
_ROUNDING = 2.0 ** -48


def series_eval(f: Callable[[int], object], s: float, terms: int) -> float:
    """Partial sum sum_{n=1}^{terms} f(n) e^{-sn} in double precision, over
    the values of f read once, as the integer pairs of a closed form."""
    values = _float_terms(f, terms, f"series at s = {s}")
    return math.fsum([v * math.exp(-s * n) for n, v in enumerate(values, 1)])


def _float_terms(f: Callable[[int], object], terms: int,
                 stage: str) -> list[float]:
    """f(1)..f(terms) as doubles, refusing the first past the double range.
    A value held as integers a over b is a / b, which rounds correctly as
    float() of the reduced Fraction does: the same double, with no gcd.
    Any other value is float(f(n)).  A closed form keeps its doubles up to
    the memo limit beside its integer pairs, so the growth estimate and the
    series sums of one request divide each pair once.  The values are read
    in chunks that double from 64, so a refusal at term n steps f no
    further than max(64, 2n)."""
    shared = isinstance(f, ClosedFormSequence) and terms <= _MEMO_LIMIT
    values: list[float] = f._doubles if shared else []
    while len(values) < terms:
        start = len(values) + 1
        stop = min(terms, max(64, 2 * len(values)))
        for n, (a, b) in enumerate(value_pairs(f, stop, start), start):
            try:
                values.append(a / b if b != 1 else float(a))  # type: ignore
            except OverflowError:
                raise SeriesCapExceeded(
                    f"{stage}: term {n} of {terms} is past the double "
                    "range") from None
    return values[:terms]


def tail_bound(alpha: float, s0: float, s: float, terms: int) -> float:
    """Upper bound for the absolute tail beyond the first `terms` terms."""
    if s <= s0:
        raise DivergenceGuard(f"tail bound needs s > s0, got s = {s}")
    q = math.exp(s0 - s)
    return alpha * q ** (terms + 1) / (1.0 - q)


def terms_needed(alpha: float, s0: float, s: float, target: float) -> int:
    """Smallest term count whose tail bound drops below target."""
    if s <= s0:
        raise DivergenceGuard(f"series at s = {s} diverges (s0 = {s0})")
    if target <= 0:
        raise ValueError("target must be positive")
    q = math.exp(s0 - s)
    if not q:
        raise SeriesCapExceeded(
            f"series at s = {s}: e^(s0 - s) is past the double range")
    # alpha q^(N+1)/(1-q) <= target
    need = math.log(target * (1.0 - q) / alpha) / math.log(q) - 1.0
    terms = max(1, math.ceil(need))
    if terms > _MEMO_LIMIT:
        raise SeriesCapExceeded(
            f"{terms} terms needed at s = {s}, cap is {_MEMO_LIMIT}")
    return terms


def growth_bound(seq: ClosedFormSequence) -> tuple[float, float]:
    """Automatic (alpha, s0) with |seq(n)| <= alpha e^{s0 n} in practice.

    s0 is log(max |root|) plus a margin of 0.01; alpha is read off the
    first 50 values and doubled.  Good enough to steer truncation for the
    tolerances used here, not a certified envelope.
    """
    largest = 1.0
    # the terms come sorted by root, so each distinct root is one group
    for root, _ in groupby(term.root for term in seq.terms):
        try:
            largest = max(largest, abs(root).to_float())
        except OverflowError:
            raise SeriesCapExceeded(
                "growth estimate: a root of the closed form is past the "
                "double range") from None
    s0 = math.log(largest) + 0.01
    values = _float_terms(seq, 50, f"growth estimate at s0 = {s0:.3f}")
    alpha = max([abs(v) * math.exp(-s0 * n) for n, v in enumerate(values, 1)])
    return max(alpha, 1e-30) * 2.0, s0


class CheckEntry:
    """One sample point of the grid check."""

    __slots__ = ("s", "terms", "series_value", "transform_value",
                 "discrepancy", "bound", "passed")

    def __init__(self, s: float, terms: int, series_value: float,
                 transform_value: float, discrepancy: float, bound: float,
                 passed: bool) -> None:
        self.s = s
        self.terms = terms
        self.series_value = series_value
        self.transform_value = transform_value
        self.discrepancy = discrepancy
        self.bound = bound
        self.passed = passed


class CheckReport:
    """The tolerance of a grid check and its entries, in grid order."""

    __slots__ = ("tolerance", "entries")

    def __init__(self, tolerance: float,
                 entries: list[CheckEntry] | None = None) -> None:
        self.tolerance = tolerance
        self.entries = [] if entries is None else entries

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": [{
                "s": e.s,
                "terms": e.terms,
                "series": e.series_value,
                "transform": e.transform_value,
                "discrepancy": e.discrepancy,
                "tail_bound": e.bound,
                "passed": e.passed,
            } for e in self.entries],
        }


def check_closed_form_pair(seq: ClosedFormSequence, expr: RatFunc,
                           s_values: Sequence[float] = DEFAULT_S_GRID,
                           tolerance: float = DEFAULT_TOLERANCE,
                           ) -> CheckReport:
    """Compare the series of seq against its claimed transform on a grid.

    The growth data (alpha, s0) come from the closed form itself, and sample
    points at or below s0 are skipped.  The truncation point comes from the
    tail bound at half the tolerance, so a failure means the pair is wrong,
    not that the sum stopped early.  Raises CheckFailed on the first
    offending sample point, or SeriesCapExceeded when its gap is within
    double rounding of the values compared, so the tolerance is finer than
    the check resolves.
    """
    alpha, s0 = growth_bound(seq)
    usable = tuple(s for s in s_values if s > s0)
    if not usable:
        raise DivergenceGuard(
            f"no sample point exceeds the growth rate s0 = {s0:.3f}")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not tolerance / 2.0:
        raise SeriesCapExceeded(
            f"tolerance {tolerance!r} is past the double range when halved")
    report = CheckReport(tolerance)
    for s in usable:
        terms = terms_needed(alpha, s0, s, tolerance / 2.0)
        total = series_eval(seq, s, terms)
        try:
            t = math.exp(s)
        except OverflowError:
            raise SeriesCapExceeded(
                f"transform at s = {s}: e^s is past the double range"
            ) from None
        reference = expr.eval_float(t)
        if not math.isfinite(reference):
            raise SeriesCapExceeded(
                f"transform at s = {s}: its value is past the double range")
        gap = abs(total - reference)
        entry = CheckEntry(s, terms, total, reference, gap,
                           tail_bound(alpha, s0, s, terms), gap <= tolerance)
        report.entries.append(entry)
        size = max(abs(total), abs(reference))
        if not entry.passed and gap <= _ROUNDING * size:
            raise SeriesCapExceeded(
                f"tolerance {tolerance:.1e} at s = {s} is finer than double "
                f"precision resolves: series and transform differ by "
                f"{gap:.3e}, within rounding of {size:.3e}")
        if not entry.passed:
            raise CheckFailed(
                f"series and transform differ by {gap:.3e} at s = {s} "
                f"({terms} terms, tolerance {tolerance:.1e})",
                s=s, terms=terms, discrepancy=gap)
    return report
