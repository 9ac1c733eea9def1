import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dlaplace.exact import QuadExt
from poly_reference import evaluate


@pytest.fixture
def time_limit():
    """A context manager that raises TimeoutError in the test's own thread
    once the given number of seconds has passed (SIGALRM)."""
    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def with_partners():
    """Make closed-form terms (c, r, m), one per root, orbit-closed: a
    radical root r brings the term (conj(c), conj(r), m), which takes the
    place of a term drawn at conj(r) itself."""
    def close(terms):
        kept = {}
        for c, r, m in terms:
            r = QuadExt.of(r)
            if r.conjugate() not in kept:
                kept[r] = (c, r, m)
        out = []
        for c, r, m in kept.values():
            out.append((c, r, m))
            if not r.is_rational:
                out.append((QuadExt.of(c).conjugate(), r.conjugate(), m))
        return out

    return close


@pytest.fixture
def recombines():
    """Assert that partial-fraction terms c/(t - r)^m sum to a rational
    quotient exactly, without building a radical RatFunc.

    The difference of the two sides has a numerator of degree below
    deg(den) + deg(E), with E the terms' common denominator and deg(E) at
    most the sum of their multiplicities; it vanishes at more rational
    points than that only when it is zero."""
    def check(quotient, terms):
        need = quotient.den.degree + sum(t.multiplicity for t in terms) + 1
        k = 0
        while need:
            x, k = Fraction(3 * k + 1, 3), k + 1
            bottom = evaluate(quotient.den, x)
            if not bottom:
                continue
            total = QuadExt(0)
            for t in terms:
                total = total + t.coefficient / \
                    (QuadExt.of(x) - t.root) ** t.multiplicity
            assert total == evaluate(quotient.num, x) / bottom, (quotient, x)
            need -= 1

    return check
