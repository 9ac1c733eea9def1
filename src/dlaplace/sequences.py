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
A closed form is built from rational terms and such orbits only, so every
value it takes is a ``Fraction``; any other term is refused when the form
is built.

A closed form memoises a(1), a(2), ... up to n = 4096 as unreduced integer
pairs over C*Q^(n-1): a read past the memo fills it up to n, so the
self-check, the growth estimate and every series sum of one request read the
pairs of one pass; past n = 4096 a value is summed term by term and not
kept.  The pass runs in integers (Cohen, *A Course in Computational Algebraic
Number Theory*, 3.4): with Q and C the lcm of the root and coefficient
parts' denominators, R = Q*root and K_m = C*Q^(m-1)*coefficient lie in
Z[sqrt(d)], and at a stepped root (rational, or one member of an orbit, from
2*K_m) of highest multiplicity M, C*Q^(n-1) times its terms is

    sum_m K_m * C(n-1, m-1) * R^(n-m) = R^(n-M) * P(n),

one running power for every m, with P stepped by forward differences
(Knuth, *TAOCP* 2, 4.6.4).  The self-check compares the pairs with direct
recursion by cross-products, the numeric check divides each into a double.
``root_factors`` names each distinct root's minimal polynomial and top
multiplicity, so the self-check can prove from few values that the form
solves a recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, islice
from math import comb, gcd, lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Union

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

    __slots__ = ("_terms", "_orbits", "_memo", "_steps")

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
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"multiplicity must be a positive int: {m}")
            key = (r, m)
            collected[key] = collected.get(key, QuadExt(0)) + c
        kept = [Term(c, r, m) for (r, m), c in collected.items() if c]
        kept.sort(key=lambda term: (sort_key(term.root), term.multiplicity))
        self._terms = tuple(kept)
        self._orbits = _orbits(self._terms)
        # a cache only: _terms alone defines the sequence
        self._memo: list[tuple[int, int]] = []
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

    def root_factors(self) -> list[tuple[list[int], int]]:
        """Each distinct root's minimal polynomial f over Q, a primitive
        integer vector lowest degree first, with the root's top
        multiplicity M: q*t - p for a rational root p/q (t for the spikes'
        root 0) and the quadratic of an orbit's two roots.  f(E)^M kills
        every term at the root for n >= 1, so the product of the f^M
        annihilates the sequence.  The orbits come sorted by root, so the
        terms at one root are adjacent."""
        return [(_minimal_polynomial(root),
                 max(term.multiplicity for term, _ in group))
                for root, group in groupby(self._orbits,
                                           key=lambda pair: pair[0].root)]

    def __call__(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("sequences start at n = 1")
        if n > _MEMO_LIMIT:
            return self._term_by_term(n)
        return Fraction(*self.ratios(n)[n - 1])

    def ratios(self, upto: int) -> list[tuple[int, int]]:
        """The memo stepped at least to n = upto: each a(n) an integer over
        C*Q^(n-1), not reduced; past the memo limit, reduced."""
        memo, stop = self._memo, min(upto, _MEMO_LIMIT)
        self._steps = self._steps or _IntegerSteps(self._orbits)
        while len(memo) < stop:
            memo.append(self._steps.next())
        return memo if upto <= _MEMO_LIMIT else memo + [
            (v.numerator, v.denominator) for v in map(
                self._term_by_term, range(_MEMO_LIMIT + 1, upto + 1))]

    def _term_by_term(self, n: int) -> Fraction:
        """a(n) as the rational part of each term, twice over an orbit."""
        total = Fraction(0)
        for term, partner in self._orbits:
            weight = comb(n - 1, term.multiplicity - 1)
            if weight:
                value = (term.coefficient * weight * term.root **
                         (n - term.multiplicity)).rational_part
                total += value if partner is None else 2 * value
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
        turns back into it, with c and r rational.  An orbit sums to
        2 Re[c (t - conj(r))^m] / (t^2 - 2 Re(r) t + N(r))^m, with Re the
        rational part and N(r) = r conj(r), so every quotient is over Q
        (Bronstein and Salvy, ISSAC 1993)."""
        total = RatFunc()
        for term, partner in self._orbits:
            c, r, m = term.coefficient, term.root, term.multiplicity
            if partner is None:
                quotient = RatFunc(c, Poly((-r, 1)) ** m)
            else:
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
        parts = [_orbit_text(term) if partner else _term_text(term)
                 for term, partner in self._orbits if term.root]
        return _sum_text(
            parts + [_spike_text(j, c) for j, c in self.deltas.items()])

    def __repr__(self) -> str:
        return f"ClosedFormSequence({list(self.terms)!r}, {self.deltas!r})"


def _orbits(terms: tuple[Term, ...]) -> list[tuple[Term, Term | None]]:
    """The sorted terms grouped by conjugate orbit, in order.

    A radical term and the term at its conjugate root with the same
    multiplicity, whose coefficients are conjugate within the root's
    field, are listed once, as (term, partner) with term the one of
    positive radical part, at the place of the partner, which sorts
    first.  A rational root or a spike with a rational coefficient is
    listed as (term, None).  Any other term has no transform over Q and
    raises ValueError naming it: a radical root with no partner, a pair
    whose coefficients are not conjugate, or a radical coefficient on a
    rational root."""
    by_key = {(t.root, t.multiplicity): t for t in terms}
    grouped = []
    for term in terms:
        r, c = term.root, term.coefficient
        if r.is_rational:
            if not c.is_rational:
                raise ValueError(f"term {_term_text(term)} has a "
                                 "radical coefficient on a rational root")
            grouped.append((term, None))
            continue
        partner = by_key.get((r.conjugate(), term.multiplicity))
        if partner is None:
            raise ValueError(f"term {_term_text(term)} has no conjugate "
                             "partner")
        if r.radical_part < 0:
            # the partner sorts first, so it is the term named
            c = partner.coefficient
            if c.radicand not in (0, r.radicand) or \
                    term.coefficient != c.conjugate():
                raise ValueError(
                    f"term {_term_text(term)} has the partner "
                    f"coefficient {c}, not its conjugate")
            grouped.append((partner, term))
    return grouped


def _minimal_polynomial(r: QuadExt) -> list[int]:
    """r's minimal polynomial over Q as a primitive integer vector: for
    q*r = x + y*sqrt(d), (q*t)^2 - 2*x*(q*t) + x^2 - d*y^2 over its
    content."""
    if r.is_rational:
        return [-r.rational_part.numerator, r.rational_part.denominator]
    q = lcm(r.rational_part.denominator, r.radical_part.denominator)
    x, y = _integer_pair(r, q)
    ints = [x * x - r.radicand * y * y, -2 * x * q, q * q]
    content = gcd(*ints)
    return [v // content for v in ints]


class _IntegerSteps:
    """The values of a closed form, stepped in integers per distinct root.

    The k-th difference of C(n-1, m-1) is C(n-1, m-1-k), so P's table at
    n = 1 is K_m * R^(M-m), m = 1..M, and a step is M-1 additions.  Values
    below n = M, and spikes, are summed when the steps are set up."""

    __slots__ = ("_head", "_roots", "_n", "_q", "_den")

    def __init__(self, orbits: list[tuple[Term, Term | None]]) -> None:
        q = lcm(*(x.denominator for t, _ in orbits
                  for x in (t.root.rational_part, t.root.radical_part)))
        c = lcm(*(x.denominator for t, _ in orbits
                  for x in (t.coefficient.rational_part,
                            t.coefficient.radical_part)))
        by_root: dict[QuadExt, dict[int, tuple[int, int]]] = {}
        for t, partner in orbits:
            by_root.setdefault(t.root, {})[t.multiplicity] = _integer_pair(
                t.coefficient,
                (2 if partner else 1) * c * q ** (t.multiplicity - 1))
        self._head: dict[int, int] = {}
        # [M, u, v, d, x, y, tables]: R = u+v*sqrt(d), R^(n-M) = x+y*sqrt(d)
        self._roots = []
        for root, ks in by_root.items():
            top, d = max(ks), root.radicand
            u, v = _integer_pair(root, q)
            runs = {m: [k] for m, k in ks.items()}  # K_m * R^e, e < top
            for run in runs.values():
                while len(run) < top:
                    x, y = run[-1]
                    run.append((x * u + y * v * d, x * v + y * u))
            # a spike, root 0, is K_m at n = m alone
            for n in range(1, top + (not root)):
                self._head[n] = self._head.get(n, 0) + sum(
                    comb(n - 1, m - 1) * run[n - m][0]
                    for m, run in runs.items() if m <= n)
            if root:
                table = [runs[m][top - m] if m in runs else (0, 0)
                         for m in range(1, top + 1)]
                self._roots.append([top, u, v, d, 1, 0, [
                    list(part) for part in zip(*table)][:1 + bool(d)]])
        self._q, self._n, self._den = q, 0, c  # den = C*Q^(n-1), next n

    def next(self) -> tuple[int, int]:
        n = self._n = self._n + 1
        total = self._head.get(n, 0)
        for root in self._roots:
            m, u, v, d, x, y, tables = root
            if m > 1 < n:
                for table in tables:
                    table[:-1] = map(add, table, table[1:])
            if n >= m:
                total += x * tables[0][0] + y * tables[-1][0] * d
                root[4:6] = x * u + y * v * d, x * v + y * u
        den, self._den = self._den, self._den * self._q
        return total, den


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


def value_pairs(seq: Sequence1, upto: int,
                start: int = 1) -> Iterator[tuple[object, int]]:
    """seq(start)..seq(upto) as (numerator, denominator) pairs: the
    unreduced integers of a ``ratios`` method, or else each value as it
    comes over 1."""
    if hasattr(seq, "ratios"):
        return islice(seq.ratios(upto), start - 1, upto)
    return ((v, 1) for v in map(seq, range(start, upto + 1)))


def equal_prefix(f: Sequence1, g: Sequence1, upto: int,
                 ) -> tuple[bool, int | None]:
    """Compare two sequences for n = 1..upto; report the first mismatch.
    Integer pairs are compared by cross-products, and other values, ints,
    Fractions or QuadExt, as they come."""
    sides = (value_pairs(f, upto), value_pairs(g, upto))
    for n, ((a, b), (c, d)) in enumerate(zip(*sides), 1):
        for value in (a, c):
            if not isinstance(value, _EXACT):
                raise TypeError(
                    f"cannot interpret {value!r} as an exact value")
        if a * d != c * b:
            return False, n
    return True, None
