"""A reference for the numeric check that reads a closed form as float()
reads it, one reduced Fraction per value, kept beside the package's read
of the integer pairs the closed form holds, and the definition of
``QuadExt.to_float`` in ``Fraction`` intervals; the package itself never
needs either."""

import math
from fractions import Fraction
from math import isqrt

from dlaplace.numeric import tail_bound, terms_needed


def to_float(x):
    """x = a + b*sqrt(d) as float() of the midpoint of an interval about
    it: sqrt(d) bracketed by [m, m + 1]/2^k, m = isqrt(d*4^k), for k = 64,
    128, ... until the interval's width is at most 2^-52 of its
    midpoint."""
    a, b, d = x.rational_part, x.radical_part, x.radicand
    if b == 0:
        return float(a)
    if x.sign() == 0:
        return 0.0
    bits = 64
    while True:
        scale = 1 << bits
        m = isqrt(d * scale * scale)
        lo, hi = Fraction(m, scale), Fraction(m + 1, scale)
        if b > 0:
            x_lo, x_hi = a + b * lo, a + b * hi
        else:
            x_lo, x_hi = a + b * hi, a + b * lo
        mid = (x_lo + x_hi) / 2
        if mid and (x_hi - x_lo) * (1 << 52) <= abs(mid):
            return float(mid)
        bits *= 2


def float_values(seq, count):
    """float(seq(n)) for n = 1..count, stopping before the first value
    past the double range; the second item is that n, or None."""
    values = []
    for n in range(1, count + 1):
        try:
            values.append(float(seq(n)))
        except OverflowError:
            return values, n
    return values, None


def check_entries(seq, expr, s_values, tolerance):
    """The entries (s, terms, series, transform, discrepancy, tail bound,
    passed) of the grid check of seq against expr, over float(seq(n)),
    up to the first that fails; the values must be in the double range."""
    largest = max([1.0] + [abs(t.root).to_float() for t in seq.terms])
    s0 = math.log(largest) + 0.01
    values, past = float_values(seq, 50)
    assert past is None
    alpha = 2.0 * max([1e-30] + [abs(v) * math.exp(-s0 * n)
                                 for n, v in enumerate(values, 1)])
    entries = []
    for s in (s for s in s_values if s > s0):
        terms = terms_needed(alpha, s0, s, tolerance / 2.0)
        values, past = float_values(seq, terms)
        assert past is None
        total = math.fsum(v * math.exp(-s * n)
                          for n, v in enumerate(values, 1))
        reference = expr.eval_float(math.exp(s))
        gap = abs(total - reference)
        entries.append((s, terms, total, reference, gap,
                        tail_bound(alpha, s0, s, terms), gap <= tolerance))
        if gap > tolerance:
            break
    return entries
