"""Sequences as exact callables and closed forms built from transform data.

A closed form here is a finite sum of terms

    coefficient * C(n-1, m-1) * root^(n-m)

(one term per pole, multiplicity m).  That shape is exactly what
inverting a strictly proper rational transform produces: a simple pole at
r gives r^(n-1), an m-fold pole gives the (m-1)-fold self-convolution of
that geometric sequence, and a pole of order m at zero is the Kronecker
delta at n = m.  The binomial factor vanishes for n < m, so no negative
powers of the root are ever formed and a zero root never meets a negative
exponent (0^0 counts as 1).

A closed form memoises its values a(1), a(2), ... as they are read in
order, so the self-check, the growth estimate and every series sum of one
request share a single pass.  The pass runs in integers: with d the one
radicand, Q the lcm of the root parts' denominators and C that of the
coefficient parts', R = Q*root and K = C*Q^(m-1)*coefficient lie in
Z[sqrt(d)] and

    C*Q^(n-1) * a(n) = sum K * C(n-1, m-1) * R^(n-m),

so each term's running power K*R^(n-m) is stepped by one integer pair
product per n, and each value is divided once by the running denominator
C*Q^(n-1) (Cohen, *A Course in Computational Algebraic Number Theory*,
3.4: clear the denominators, then work in Z).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, Mapping, Union

from ._record import Record
from .exact import (PHI, PSI, QuadExt, _NO_RADICAL, _integer_pair,
                    sort_key)
from .polys import Poly, RatFunc, partial_fractions
from .transforms import TransformExpr

Scalar = Union[int, Fraction, QuadExt]
Sequence1 = Callable[[int], Scalar]

# Values past this index are computed term by term and not kept, so the
# memo's memory stays bounded however far a caller reads.
_MEMO_LIMIT = 4096

_ONE = QuadExt(1)
_MINUS_ONE = QuadExt(-1)
_EXACT = (int, Fraction, QuadExt)


class Term(Record):
    """One summand coefficient * C(n-1, mult-1) * root^(n-mult)."""

    __slots__ = ("coefficient", "root", "multiplicity")

    def __init__(self, coefficient: QuadExt, root: QuadExt,
                 multiplicity: int) -> None:
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "multiplicity", multiplicity)


class ClosedFormSequence:
    """An exact sequence given by pole terms; a zero root is a spike."""

    __slots__ = ("_terms", "_memo", "_steps")

    def __init__(self, terms: Iterable[Term | tuple] = (),
                 deltas: Mapping[int, Scalar] | None = None) -> None:
        collected: dict[tuple[QuadExt, int], QuadExt] = {}
        items = list(terms)
        for j, c in (deltas or {}).items():
            if not isinstance(j, int) or j < 1:
                raise ValueError(f"delta position must be a positive int: {j}")
            # c at n = j alone is c * C(n-1, j-1) * 0^(n-j)
            items.append((c, 0, j))
        for item in items:
            if isinstance(item, Term):
                c, r, m = item.coefficient, item.root, item.multiplicity
            else:
                c, r, m = item
            c, r = QuadExt.of(c), QuadExt.of(r)
            if m < 1:
                raise ValueError(f"multiplicity must be positive: {m}")
            key = (r, m)
            collected[key] = collected.get(key, QuadExt(0)) + c
        kept = [Term(c, r, m) for (r, m), c in collected.items() if c]
        kept.sort(key=lambda term: (sort_key(term.root), term.multiplicity))
        self._terms = tuple(kept)
        # a cache only: _terms alone defines the sequence
        self._memo: list[QuadExt] = []
        self._steps: _IntegerSteps | None = None

    @property
    def terms(self) -> tuple[Term, ...]:
        """The terms with a nonzero root."""
        return tuple(t for t in self._terms if t.root)

    @property
    def deltas(self) -> dict[int, QuadExt]:
        """The zero-root terms, as spike heights keyed by position."""
        return {t.multiplicity: t.coefficient
                for t in self._terms if not t.root}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __call__(self, n: int) -> QuadExt:
        if n < 1:
            raise ValueError("sequences start at n = 1")
        memo = self._memo
        if n <= len(memo):
            return memo[n - 1]
        if n > len(memo) + 1 or n > _MEMO_LIMIT:
            return self._term_by_term(n)
        if not memo:
            self._steps = _IntegerSteps.of(self._terms)
        steps = self._steps
        # mixed radicands have no integer form; term by term raises the
        # RadicandMismatch wherever the arithmetic meets them
        value = steps.next() if steps is not None else self._term_by_term(n)
        memo.append(value)
        return value

    def _term_by_term(self, n: int) -> QuadExt:
        total = QuadExt(0)
        for term in self._terms:
            weight = comb(n - 1, term.multiplicity - 1)
            if weight:
                total = total + term.coefficient * weight * \
                    term.root ** (n - term.multiplicity)
        return total

    def __add__(self, other: object) -> "ClosedFormSequence":
        if not isinstance(other, ClosedFormSequence):
            return NotImplemented
        return ClosedFormSequence(self._terms + other._terms)

    def scale(self, factor: Scalar) -> "ClosedFormSequence":
        c = QuadExt.of(factor)
        return ClosedFormSequence(
            [Term(t.coefficient * c, t.root, t.multiplicity)
             for t in self._terms])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedFormSequence):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def transform(self) -> TransformExpr:
        """Forward transform, one rational quotient per conjugate orbit.

        A term is the partial fraction c/(t - r)^m that inverse_transform
        turns back into it.  A rational root r keeps c/(t - r)^m, and c
        must be rational.  A radical root r needs the conjugate term
        conj(c)/(t - conj(r))^m, and the pair sums to

            2 Re[c (t - conj(r))^m] / (t^2 - 2 Re(r) t + N(r))^m,

        with Re the rational part and N(r) = r conj(r), so every quotient
        is over Q (Bronstein and Salvy, ISSAC 1993).  A term that breaks
        this raises ValueError naming it."""
        coefficients = {(t.root, t.multiplicity): t.coefficient
                        for t in self._terms}
        total = TransformExpr()
        for term in self._terms:
            c, r, m = term.coefficient, term.root, term.multiplicity
            if r.is_rational:
                if not c.is_rational:
                    raise ValueError(f"term {_term_text(term)} has a "
                                     "radical coefficient on a rational root")
                quotient = RatFunc(c, Poly((-r, 1)) ** m)
            else:
                conj = r.conjugate()
                partner = coefficients.get((conj, m))
                if partner is None:
                    raise ValueError(f"term {_term_text(term)} has no "
                                     "conjugate partner")
                if partner != c.conjugate():
                    raise ValueError(
                        f"term {_term_text(term)} has the partner "
                        f"coefficient {partner}, not its conjugate")
                if r.radical_part < 0:
                    continue    # the orbit is built from its other root
                num = [2 * (c * comb(m, k) * (-conj) ** (m - k)).rational_part
                       for k in range(m + 1)]
                quotient = RatFunc(num, Poly((r * conj, -2 * r.rational_part,
                                              1)) ** m)
            total = total + TransformExpr(quotient)
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = [_term_text(t) for t in self.terms]
        parts += [_spike_text(j, c) for j, c in self.deltas.items()]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"ClosedFormSequence({list(self.terms)!r}, {self.deltas!r})"


class _IntegerSteps:
    """The values a(1), a(2), ... of a closed form, stepped in Z[sqrt(d)].

    Each term is kept as (K, R, m) with K and R integer pairs (x, y)
    standing for x + y*sqrt(d), and its running power K*R^(n-m) starts at
    K when n = m (0^0 = 1 for a spike) and is then multiplied by R once
    per n."""

    __slots__ = ("_d", "_q", "_scaled", "_powers", "_n", "_den")

    def __init__(self, terms: tuple[Term, ...], d: int) -> None:
        q = lcm(*(x.denominator for t in terms
                  for x in (t.root.rational_part, t.root.radical_part)))
        c = lcm(*(x.denominator for t in terms
                  for x in (t.coefficient.rational_part,
                            t.coefficient.radical_part)))
        self._scaled = []
        for t in terms:
            u, v = _integer_pair(t.root, q)
            start = _integer_pair(t.coefficient, c * q ** (t.multiplicity - 1))
            self._scaled.append((start, (u, v, v * d), t.multiplicity))
        self._d, self._q = d, q
        self._powers = [(0, 0)] * len(terms)
        self._n, self._den = 0, c      # den = C*Q^(n-1) for the next n

    @classmethod
    def of(cls, terms: tuple[Term, ...]) -> "_IntegerSteps | None":
        """Scale the terms once; None when they mix two radicands."""
        radicands = {x.radicand for t in terms
                     for x in (t.coefficient, t.root)} - {0}
        if len(radicands) > 1:
            return None
        return cls(terms, radicands.pop() if radicands else 0)

    def next(self) -> QuadExt:
        n = self._n = self._n + 1
        powers = self._powers
        x_sum = y_sum = 0
        for i, (start, (u, v, vd), m) in enumerate(self._scaled):
            if n < m:
                continue
            if n == m:
                x, y = start
            else:
                x, y = powers[i]
                x, y = x * u + y * vd, x * v + y * u
            powers[i] = (x, y)
            weight = comb(n - 1, m - 1)
            x_sum, y_sum = x_sum + weight * x, y_sum + weight * y
        den = self._den
        self._den = den * self._q
        if not y_sum:
            return QuadExt._normalised(Fraction(x_sum, den), _NO_RADICAL, 0)
        return QuadExt._normalised(Fraction(x_sum, den), Fraction(y_sum, den),
                                   self._d)


def _coeff_text(c: QuadExt) -> str:
    return str(c) if c.is_rational and c >= 0 else f"({c})"


def _root_power_text(root: QuadExt, exponent_shift: int) -> str:
    plain = (root.is_rational and root >= 0
             and root.rational_part.denominator == 1)
    base = str(root) if plain else f"({root})"
    if exponent_shift == 1:
        return f"{base}^(n-1)"
    return f"{base}^(n-{exponent_shift})"


def _term_text(term: Term) -> str:
    c, r, m = term.coefficient, term.root, term.multiplicity
    if not r:
        return _spike_text(m, c)
    factors: list[str] = []
    if m == 2:
        factors.append("(n-1)")
    elif m > 2:
        factors.append(f"C(n-1,{m - 1})")
    if r != _ONE:
        factors.append(_root_power_text(r, m))
    if not factors:
        return str(c) if c.is_rational else f"({c})"
    if c == _ONE:
        return "*".join(factors)
    if c == _MINUS_ONE:
        return "-" + "*".join(factors)
    return "*".join([_coeff_text(c)] + factors)


def _spike_text(j: int, c: QuadExt) -> str:
    if c == _ONE:
        return f"delta(n,{j})"
    return f"{_coeff_text(c)}*delta(n,{j})"


def inverse_transform(expr: TransformExpr) -> ClosedFormSequence:
    """Invert a transform into its closed form via partial fractions."""
    pieces = partial_fractions(expr.rational)
    return ClosedFormSequence(
        [Term(p.coefficient, p.root, p.multiplicity) for p in pieces])


def delta(f: Sequence1) -> Sequence1:
    """The forward difference (Df)(n) = f(n+1) - f(n)."""
    return lambda n: f(n + 1) - f(n)


def convolve(f: Sequence1, g: Sequence1, n: int) -> QuadExt:
    """(f*g)(n) = sum_{k=1}^{n-1} f(k) g(n-k); empty at n = 1."""
    total = QuadExt(0)
    for k in range(1, n):
        total = total + QuadExt.of(f(k)) * QuadExt.of(g(n - k))
    return total


def partial_sums(f: Sequence1) -> Sequence1:
    """n -> sum_{k=1}^{n-1} f(k), the running sum below n."""
    def summed(n: int) -> QuadExt:
        total = QuadExt(0)
        for k in range(1, n):
            total = total + QuadExt.of(f(k))
        return total
    return summed


def equal_prefix(f: Sequence1, g: Sequence1, upto: int,
                 ) -> tuple[bool, int | None]:
    """Compare two sequences for n = 1..upto; report the first mismatch.
    Values may be ints, Fractions or QuadExt, compared as they come."""
    for n in range(1, upto + 1):
        left, right = f(n), g(n)
        for value in (left, right):
            if not isinstance(value, _EXACT):
                raise TypeError(
                    f"cannot interpret {value!r} as an exact value")
        if left != right:
            return False, n
    return True, None


def fibonacci_normal(seq: ClosedFormSequence) -> str | None:
    """Render u*(1+sqrt(5))^n + v*(1-sqrt(5))^n over 2^n*sqrt(5), if exact.

    Applies only to closed forms whose poles are exactly the two roots of
    t^2 - t - 1, each simple; returns None otherwise.
    """
    if seq.deltas or len(seq.terms) != 2:
        return None
    by_root = {t.root: t for t in seq.terms}
    if set(by_root) != {PHI, PSI} or any(
            t.multiplicity != 1 for t in seq.terms):
        return None
    sqrt5 = QuadExt(0, 1, 5)
    # c*phi^(n-1) = u*(1+sqrt5)^n/(2^n sqrt5)  with  u = c*sqrt5/phi
    u = by_root[PHI].coefficient * sqrt5 / PHI
    v = by_root[PSI].coefficient * sqrt5 / PSI
    first = _numerator_text(u, "(1+sqrt(5))^n")
    second = _numerator_text(v, "(1-sqrt(5))^n")
    joined = first + (f" - {second[1:]}" if second.startswith("-")
                      else f" + {second}")
    return f"({joined})/(2^n*sqrt(5))"


def _numerator_text(c: QuadExt, body: str) -> str:
    if c == _ONE:
        return body
    if c == _MINUS_ONE:
        return f"-{body}"
    return f"{_coeff_text(c)}*{body}"
