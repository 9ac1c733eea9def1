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
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import CheckFailed, DivergenceGuard, SeriesCapExceeded
from .exact import QuadExt
from .sequences import ClosedFormSequence
from .transforms import TransformExpr

DEFAULT_TOLERANCE = 1e-9
DEFAULT_S_GRID = (1.0, 1.5, 2.0)
SERIES_CAP = 10 ** 6


def _as_float(value: object) -> float:
    if isinstance(value, QuadExt):
        return value.to_float()
    return float(value)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SeriesCheckConfig:
    """Sample points and growth data for a series/transform comparison."""

    s_values: tuple[float, ...] = DEFAULT_S_GRID
    tolerance: float = DEFAULT_TOLERANCE
    growth_alpha: float = 1.0
    growth_s0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_values", tuple(self.s_values))
        if not self.s_values:
            raise ValueError("need at least one sample point")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.growth_alpha <= 0:
            raise ValueError("growth_alpha must be positive")
        bad = [s for s in self.s_values if s <= self.growth_s0]
        if bad:
            raise DivergenceGuard(
                f"sample points {bad} do not exceed the growth rate "
                f"s0 = {self.growth_s0}")


def series_eval(f: Callable[[int], object], s: float, terms: int,
                growth_s0: float | None = None) -> float:
    """Partial sum sum_{n=1}^{terms} f(n) e^{-sn} in double precision."""
    if growth_s0 is not None and s <= growth_s0:
        raise DivergenceGuard(
            f"s = {s} is inside the divergence region (s0 = {growth_s0})")
    stage = f"series at s = {s}"
    return math.fsum(_float_term(f, n, stage, terms) * math.exp(-s * n)
                     for n in range(1, terms + 1))


def _float_term(f: Callable[[int], object], n: int, stage: str,
                terms: int) -> float:
    """f(n) as a double, refusing a value past the double range."""
    value = f(n)
    try:
        return _as_float(value)
    except OverflowError:
        raise SeriesCapExceeded(
            f"{stage}: term {n} of {terms} is past the double range"
        ) from None


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
    # alpha q^(N+1)/(1-q) <= target
    need = math.log(target * (1.0 - q) / alpha) / math.log(q) - 1.0
    terms = max(1, math.ceil(need))
    if terms > SERIES_CAP:
        raise SeriesCapExceeded(
            f"{terms} terms needed at s = {s}, cap is {SERIES_CAP}")
    return terms


def growth_bound(seq: ClosedFormSequence) -> tuple[float, float]:
    """Automatic (alpha, s0) with |seq(n)| <= alpha e^{s0 n} in practice.

    s0 is log(max |root|) plus a margin of 0.01; alpha is read off the
    first 50 values and doubled.  Good enough to steer truncation for the
    tolerances used here, not a certified envelope.
    """
    largest = 1.0
    for term in seq.terms:
        largest = max(largest, abs(term.root).to_float())
    s0 = math.log(largest) + 0.01
    alpha = 0.0
    for n in range(1, 51):
        value = _float_term(seq, n, f"growth estimate at s0 = {s0:.3f}", 50)
        alpha = max(alpha, abs(value) * math.exp(-s0 * n))
    return max(alpha, 1e-30) * 2.0, s0


@dataclass
class CheckEntry:
    s: float
    terms: int
    series_value: float
    transform_value: float
    discrepancy: float
    bound: float
    passed: bool


@dataclass
class CheckReport:
    tolerance: float
    entries: list[CheckEntry] = field(default_factory=list)

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


def check_pair(f: Callable[[int], object], expr: TransformExpr,
               config: SeriesCheckConfig) -> CheckReport:
    """Compare the series of f against its claimed transform on a grid.

    The truncation point comes from the tail bound at half the tolerance,
    so a failure means the pair is wrong, not that the sum stopped early.
    Raises CheckFailed on the first offending sample point.
    """
    report = CheckReport(config.tolerance)
    for s in config.s_values:
        terms = terms_needed(config.growth_alpha, config.growth_s0, s,
                             config.tolerance / 2.0)
        total = series_eval(f, s, terms, config.growth_s0)
        reference = expr.eval_float(math.exp(s))
        gap = abs(total - reference)
        entry = CheckEntry(s, terms, total, reference, gap,
                           tail_bound(config.growth_alpha, config.growth_s0,
                                      s, terms),
                           gap <= config.tolerance)
        report.entries.append(entry)
        if not entry.passed:
            raise CheckFailed(
                f"series and transform differ by {gap:.3e} at s = {s} "
                f"({terms} terms, tolerance {config.tolerance:.1e})",
                s=s, terms=terms, discrepancy=gap)
    return report


def check_closed_form_pair(seq: ClosedFormSequence, expr: TransformExpr,
                           s_values: Sequence[float] = DEFAULT_S_GRID,
                           tolerance: float = DEFAULT_TOLERANCE,
                           ) -> CheckReport:
    """check_pair with growth data derived from the closed form itself."""
    alpha, s0 = growth_bound(seq)
    usable = tuple(s for s in s_values if s > s0)
    if not usable:
        raise DivergenceGuard(
            f"no sample point exceeds the growth rate s0 = {s0:.3f}")
    config = SeriesCheckConfig(usable, tolerance, alpha, s0)
    return check_pair(seq, expr, config)


def harmonic_transform_check(s: float, target: float = 1e-11) -> float:
    """|sum e^{-sn}/n - (s - log(e^s - 1))| with tail-bound truncation.

    The harmonic sequence is bounded by 1, so alpha = 1 and s0 = 0 give a
    rigorous cutoff.  The reference value is computed in the numerically
    stable form -log1p(-e^{-s}), equal to s - log(e^s - 1).
    """
    if s <= 0:
        raise DivergenceGuard("the harmonic series transform needs s > 0")
    terms = terms_needed(1.0, 0.0, s, target)
    total = series_eval(lambda n: 1.0 / n, s, terms)
    return abs(total - (-math.log1p(-math.exp(-s))))


def ratio_limit(f: Callable[[int], object], n: int) -> float:
    """f(n+1)/f(n) as a double; an exactly zero f(n) raises."""
    denominator = f(n)
    if denominator == 0:
        raise ZeroDivisionError(f"f({n}) is exactly zero")
    return _as_float(f(n + 1)) / _as_float(denominator)
