"""Sequences as exact callables and closed forms built from transform data.

A closed form here is a finite sum of terms

    coefficient * C(n-1, m-1) * root^(n-m)

(one term per pole, multiplicity m), each the ``Term`` record that
``partial_fractions`` returns for the pole c/(t - r)^m: the inverse of a
strictly proper ``RatFunc`` transform is the closed form of its partial
fractions as they come.  A simple pole at r gives r^(n-1), an m-fold
pole gives the (m-1)-fold self-convolution of that geometric sequence,
and a pole of order m at zero is the Kronecker delta at n = m.  The
binomial factor vanishes for n < m, so no negative powers of the root are
ever formed and a zero root never meets a negative exponent (0^0 counts
as 1).

A radical term c*r^(n-m) and its partner conj(c)*conj(r)^(n-m) form a
conjugate orbit, one real object: one rational quotient of the transform,
one printed quotient such as ((1+sqrt(5))^n - (1-sqrt(5))^n)/(2^n*sqrt(5)).

A closed form memoises its values a(1), a(2), ... as they are read in
order, so the self-check, the growth estimate and every series sum of one
request share a single pass.  The pass runs in integers: with Q the lcm
of the root parts' denominators and C that of the coefficient parts',
R = Q*root and K = C*Q^(m-1)*coefficient lie in Z[sqrt(d)], d the term's
radicand, and

    C*Q^(n-1) * a(n) = sum K * C(n-1, m-1) * R^(n-m),

so each term's running power K*R^(n-m) is stepped by one product per n,
and each value is divided once by the running denominator C*Q^(n-1)
(Cohen, *A Course in Computational Algebraic Number Theory*, 3.4: clear
the denominators, then work in Z).  An orbit steps one member, from 2*K,
and adds its rational part, so its values are rational in any field.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, Mapping, Union

from .exact import QuadExt, _NO_RADICAL, _integer_pair, sort_key
from .polys import Poly, RatFunc, Term, _sum_text, partial_fractions

Scalar = Union[int, Fraction, QuadExt]
Sequence1 = Callable[[int], Scalar]

# Values past this index are computed term by term and not kept, so the
# memo's memory stays bounded however far a caller reads.
_MEMO_LIMIT = 4096

_ONE = QuadExt(1)
_MINUS_ONE = QuadExt(-1)
_EXACT = (int, Fraction, QuadExt)


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
        # lone radicals in two fields raise RadicandMismatch where they meet
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

    def transform(self) -> RatFunc:
        """Forward transform, one rational quotient per conjugate orbit.

        A term is the partial fraction c/(t - r)^m that inverse_transform
        turns back into it; at a rational root c must be rational.  An
        orbit sums to 2 Re[c (t - conj(r))^m] / (t^2 - 2 Re(r) t + N(r))^m,
        with Re the rational part and N(r) = r conj(r), so every quotient
        is over Q (Bronstein and Salvy, ISSAC 1993).  A term that breaks
        this raises ValueError naming it."""
        total = RatFunc()
        for term, partner, _ in _orbits(self._terms):
            c, r, m = term.coefficient, term.root, term.multiplicity
            if partner is None:
                if not r.is_rational:
                    raise ValueError(f"term {_term_text(term)} has no "
                                     "conjugate partner")
                if not c.is_rational:
                    raise ValueError(f"term {_term_text(term)} has a "
                                     "radical coefficient on a rational root")
                quotient = RatFunc(c, Poly((-r, 1)) ** m)
            else:
                # the partner sorts first, so it is the term named
                if partner.coefficient != c.conjugate():
                    raise ValueError(
                        f"term {_term_text(partner)} has the partner "
                        f"coefficient {c}, not its conjugate")
                conj = partner.root
                num = [2 * (c * comb(m, k) * (-conj) ** (m - k)).rational_part
                       for k in range(m + 1)]
                quotient = RatFunc(num, Poly((r * conj, -2 * r.rational_part,
                                              1)) ** m)
            total = total + quotient
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for term, partner, orbit in _orbits(self._terms):
            if orbit:
                parts.append(_orbit_text(term))
            elif term.root:
                parts += [_term_text(t) for t in (partner, term) if t]
        return _sum_text(
            parts + [_spike_text(j, c) for j, c in self.deltas.items()])

    def __repr__(self) -> str:
        return f"ClosedFormSequence({list(self.terms)!r}, {self.deltas!r})"


def _orbits(terms: tuple[Term, ...]) -> list[tuple[Term, Term | None, bool]]:
    """The sorted terms grouped by conjugate root, in order.

    A radical term and the term at its conjugate root with the same
    multiplicity are listed once, as (term, partner, orbit) with term the
    one of positive radical part, at the place of the partner, which sorts
    first; orbit says whether their coefficients are conjugate within the
    root's field.  Any other term is listed as (term, None, False)."""
    by_key = {(t.root, t.multiplicity): t for t in terms}
    grouped = []
    for term in terms:
        r, c = term.root, term.coefficient
        partner = None if r.is_rational else \
            by_key.get((r.conjugate(), term.multiplicity))
        if partner is None:
            grouped.append((term, None, False))
        elif r.radical_part < 0:
            grouped.append((partner, term, c.radicand in (0, r.radicand)
                            and c == partner.coefficient.conjugate()))
    return grouped


class _IntegerSteps:
    """The values a(1), a(2), ... of a closed form, stepped in integers.

    Each stepped term is kept as (K, R, m) with K and R integer pairs
    (x, y) standing for x + y*sqrt(d), and its running power K*R^(n-m)
    starts at K when n = m (0^0 = 1 for a spike) and is then multiplied
    by R once per n; a rational term steps x alone.  An orbit adds x, and
    lone radical terms add x + y*sqrt(d) in the one field d they share."""

    __slots__ = ("_d", "_q", "_scaled", "_powers", "_n", "_den")

    def __init__(self, stepped: list[tuple[Term, bool]], d: int) -> None:
        q = lcm(*(x.denominator for t, _ in stepped
                  for x in (t.root.rational_part, t.root.radical_part)))
        c = lcm(*(x.denominator for t, _ in stepped
                  for x in (t.coefficient.rational_part,
                            t.coefficient.radical_part)))
        self._scaled = []
        for t, orbit in stepped:
            u, v = _integer_pair(t.root, q)
            x, y = _integer_pair(t.coefficient, (1 + orbit) * c *
                                 q ** (t.multiplicity - 1))
            self._scaled.append(((x, y), u, v, v * t.root.radicand,
                                 t.multiplicity, not orbit and bool(y or v)))
        self._d, self._q = d, q
        self._powers = [(0, 0)] * len(stepped)
        self._n, self._den = 0, c      # den = C*Q^(n-1) for the next n

    @classmethod
    def of(cls, terms: tuple[Term, ...]) -> "_IntegerSteps | None":
        """Scale the terms once; None when lone radical terms span two
        fields."""
        stepped = [(t, orbit) for term, partner, orbit in _orbits(terms)
                   for t in (term, None if orbit else partner) if t]
        fields = {x.radicand for t, orbit in stepped if not orbit
                  for x in (t.coefficient, t.root)} - {0}
        if len(fields) > 1:
            return None
        return cls(stepped, fields.pop() if fields else 0)

    def next(self) -> QuadExt:
        n = self._n = self._n + 1
        powers = self._powers
        x_sum = y_sum = 0
        for i, (start, u, v, vd, m, lone) in enumerate(self._scaled):
            if n < m:
                continue
            if n == m:
                x, y = start
            else:
                x, y = powers[i]
                if v or y:
                    x, y = x * u + y * vd, x * v + y * u
                else:
                    x *= u
            powers[i] = (x, y)
            weight = comb(n - 1, m - 1)
            x_sum += weight * x
            if lone:
                y_sum += weight * y
        den, self._den = self._den, self._den * self._q
        radical = Fraction(y_sum, den) if y_sum else _NO_RADICAL
        return QuadExt._normalised(Fraction(x_sum, den), radical, self._d)


def _coeff_text(c: QuadExt) -> str:
    return str(c) if c.is_rational and c >= 0 else f"({c})"


def _binomial_factors(m: int) -> list[str]:
    """The factor C(n-1, m-1) as text; none for m = 1."""
    return [] if m == 1 else ["(n-1)" if m == 2 else f"C(n-1,{m - 1})"]


def _times(c: QuadExt, factors: list[str]) -> str:
    """c times the product of factors; a coefficient of 1 or -1 shows only
    as its sign."""
    body = "*".join(factors)
    if c == _ONE:
        return body
    if c == _MINUS_ONE:
        return f"-{body}"
    return f"{_coeff_text(c)}*{body}"


def _term_text(term: Term) -> str:
    c, r, m = term.coefficient, term.root, term.multiplicity
    if not r:
        return _spike_text(m, c)
    factors = _binomial_factors(m)
    if r != _ONE:
        plain = r.is_rational and r >= 0 and r.rational_part.denominator == 1
        factors.append((f"{r}" if plain else f"({r})") + f"^(n-{m})")
    if not factors:
        return str(c) if c.is_rational else f"({c})"
    return _times(c, factors)


def _orbit_text(term: Term) -> str:
    """The orbit of term as (u*(p+q*sqrt(d))^n + v*(p-q*sqrt(d))^n)
    over k^n*sqrt(d), where r = (p + q*sqrt(d))/k with k the least common
    denominator of r's parts, u = c*sqrt(d)/r^m and v = -conj(u)."""
    c, r, m = term.coefficient, term.root, term.multiplicity
    k = lcm(r.rational_part.denominator, r.radical_part.denominator)
    p, q = int(r.rational_part * k), int(r.radical_part * k)
    sqrt_d = f"sqrt({r.radicand})"
    radical = sqrt_d if q == 1 else f"{q}*{sqrt_d}"
    u = c * QuadExt._normalised(_NO_RADICAL, Fraction(1), r.radicand) / r ** m
    bases = (f"{p}+{radical}", f"{p}-{radical}") if p else \
        (radical, f"-{radical}")
    joined = _sum_text([_times(w, _binomial_factors(m) + [f"({b})^n"])
                        for w, b in zip((u, -u.conjugate()), bases)])
    return f"({joined})/" + (sqrt_d if k == 1 else f"({k}^n*{sqrt_d})")


def _spike_text(j: int, c: QuadExt) -> str:
    if c == _ONE:
        return f"delta(n,{j})"
    return f"{_coeff_text(c)}*delta(n,{j})"


def inverse_transform(expr: RatFunc) -> ClosedFormSequence:
    """Invert a transform into its closed form: its partial fractions are
    the closed form's terms.  A quotient with a polynomial part raises
    ``ImproperRational``."""
    return ClosedFormSequence(partial_fractions(expr))


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
