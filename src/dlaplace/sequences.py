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
is built.  The pass that refuses them also groups the terms, once, as
the paper's inversion sums them, one group per pole: (root, paired,
{m: coefficient}) per rational root or orbit, which the integer steps, the
root factors, the term-by-term values and the printed form all read.

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
(Knuth, *TAOCP* 2, 4.6.4), a block of n at a time: one ``accumulate`` per
level of P's table.  Below n = M the same P(n) gives the value as
P(n) / R^(M-n), an exact division, so set-up costs O(M) products a root
and only spikes are summed up front.  The self-check compares the pairs
with direct recursion by cross-products; the numeric check divides each
into a double once and keeps the doubles beside the memo.
``root_factors`` names each group's minimal polynomial and top
multiplicity, so the self-check can prove from few values that the form
solves a recurrence, and the forward transform takes their product as its
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import comb, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, Union

from .exact import QuadExt, _NO_RADICAL, _integer_pair, sort_key
from .polys import (_ONE_POLY, Poly, RatFunc, Term, _cancel, _sum_text,
                    annihilated_numerator, partial_fractions)

Scalar = Union[int, Fraction, QuadExt]
Sequence1 = Callable[[int], Scalar]
# a closed form's terms at one root or orbit: (root, paired, {m: coefficient})
_Group = tuple[QuadExt, bool, dict[int, QuadExt]]

# Values past this index are computed term by term and not kept, so the
# memo's memory stays bounded however far a caller reads.  It is also the
# horizon limit of the CLI's --terms, --verify-upto and --upto and of the
# numeric series: past the memo every value is a power of ever larger
# numbers and costs a full evaluation, so one limit bounds every value the
# engine reads.
_MEMO_LIMIT = 4096

_ONE = QuadExt(1)
_MINUS_ONE = QuadExt(-1)
_EXACT = (int, Fraction, QuadExt)


class ClosedFormSequence:
    """An exact sequence given by pole terms; a zero root is a spike."""

    __slots__ = ("_terms", "_groups", "_memo", "_steps", "_doubles")

    def __init__(self, terms: Iterable[Term | tuple] = (),
                 deltas: Mapping[int, Scalar] | None = None) -> None:
        collected: dict[tuple[QuadExt, int], Term] = {}
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
            value, root = QuadExt.of(c), QuadExt.of(r)
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"multiplicity must be a positive int: {m}")
            key = (root, m)
            first = collected.get(key)
            if first is not None:
                collected[key] = Term(first.coefficient + value, first.root,
                                      m)
            elif value is c and root is r and isinstance(item, Term):
                collected[key] = item   # already in QuadExt values
            else:
                collected[key] = Term(value, root, m)
        kept = [term for term in collected.values() if term.coefficient]
        kept.sort(key=lambda term: (sort_key(term.root), term.multiplicity))
        self._terms = tuple(kept)
        # one group per root or orbit, in the terms' order; an orbit, a
        # radical term and its partner with the conjugate coefficient, is
        # held at its positive member where its negative one, which sorts
        # first, stands
        groups: list[_Group] = []
        for term in kept:
            c, r, m = term.coefficient, term.root, term.multiplicity
            if r.is_rational:
                if not c.is_rational:
                    raise ValueError(f"term {_term_text(c, r, m)} has a "
                                     "radical coefficient on a rational root")
            else:
                partner = collected.get((r.conjugate(), m))
                if partner is None or not partner.coefficient:
                    raise ValueError(f"term {_term_text(c, r, m)} has no "
                                     "conjugate partner")
                if r.radical_part > 0:
                    continue    # grouped at its partner, which sorts first
                k = partner.coefficient
                if k.radicand not in (0, r.radicand) or c != k.conjugate():
                    raise ValueError(
                        f"term {_term_text(c, r, m)} has the partner "
                        f"coefficient {k}, not its conjugate")
                c, r = k, partner.root
            if not groups or groups[-1][0] != r:
                groups.append((r, not r.is_rational, {}))
            groups[-1][2][m] = c
        self._groups = groups
        # a cache only: _terms alone defines the sequence
        self._memo: list[tuple[int, int]] = []
        self._steps: _IntegerSteps | None = None
        # the memo's values as doubles, kept by numeric._float_terms
        self._doubles: list[float] = []

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
        annihilates the sequence."""
        return [(_minimal_polynomial(root), max(ks))
                for root, _, ks in self._groups]

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
        if len(memo) < stop:
            self._steps = self._steps or _IntegerSteps(self._groups)
            memo += self._steps.take(stop - len(memo))
        return memo if upto <= _MEMO_LIMIT else memo + [
            (v.numerator, v.denominator) for v in map(
                self._term_by_term, range(_MEMO_LIMIT + 1, upto + 1))]

    def _term_by_term(self, n: int) -> Fraction:
        """a(n) as the rational part of each term, twice over an orbit."""
        total = Fraction(0)
        for root, paired, ks in self._groups:
            for m, c in ks.items():
                weight = comb(n - 1, m - 1)
                if weight:
                    value = (c * weight * root ** (n - m)).rational_part
                    total += 2 * value if paired else value
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedFormSequence):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def transform(self) -> RatFunc:
        """Forward transform N/P, P the product of the root factors f^M
        (``root_factors``): P(E) annihilates the sequence, so N is read
        off its first deg P values (``polys.annihilated_numerator``).  A
        term at a root of f with multiplicity M has a pole of order M
        there, so P is the least such product and N/P needs no gcd."""
        if self.is_zero:
            return RatFunc()
        den = prod(Poly(f) ** m for f, m in self.root_factors())
        num = annihilated_numerator(den, self.ratios(den.degree))
        return RatFunc._reduced(*_cancel(num, den, _ONE_POLY))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        # spikes, root 0, print last
        last = sorted(self._groups, key=lambda group: not group[0])
        return _sum_text([(_orbit_text if paired else _term_text)(c, root, m)
                          for root, paired, ks in last
                          for m, c in ks.items()])

    def __repr__(self) -> str:
        return f"ClosedFormSequence({list(self.terms)!r}, {self.deltas!r})"


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
    """The values of a closed form, stepped in integers per root group,
    a block of n at a time.

    The set-up reads the closed form's groups as they are, so no root is
    looked up or hashed.

    The k-th difference of C(n-1, m-1) is C(n-1, m-1-k), so P's table at
    n = 1 is K_m * R^(M-m), m = 1..M, made from the powers R^0..R^(M-1).
    A block of values runs each level of the table through one
    ``accumulate`` from the level above; a rational root's R^(n-M) is one
    ``accumulate`` of products, and only an orbit's pairs are stepped one n
    at a time.  Below n = M the value is P(n) / R^(M-n), which is
    Re(P(n) * conj(R^(M-n))) / N(R^(M-n)), an exact division with N the
    norm; only spikes are summed when the steps are set up."""

    __slots__ = ("_spikes", "_roots", "_n", "_q", "_den")

    def __init__(self, groups: list[_Group]) -> None:
        q = lcm(*(x.denominator for root, _, _ in groups
                  for x in (root.rational_part, root.radical_part)))
        c = lcm(*(x.denominator for _, _, ks in groups for k in ks.values()
                  for x in (k.rational_part, k.radical_part)))
        self._spikes: dict[int, int] = {}
        # [M, u, v, d, x, y, tables, powers]: R = u+v*sqrt(d),
        # R^(n-M) = x+y*sqrt(d) from n = M on, powers R^0..R^(M-1)
        self._roots = []
        for root, paired, coefficients in groups:
            ks = {m: _integer_pair(k, (2 if paired else 1) * c * q ** (m - 1))
                  for m, k in coefficients.items()}
            if not root:
                # a spike, root 0, is K_m at n = m alone
                self._spikes = {m: k for m, (k, _) in ks.items()}
                continue
            top, d = max(ks), root.radicand
            u, v = _integer_pair(root, q)
            powers = [(1, 0)]
            for _ in range(1, top):
                x, y = powers[-1]
                powers.append((x * u + y * v * d, x * v + y * u))
            table = []
            for m in range(1, top + 1):
                k, kd = ks.get(m, (0, 0))
                x, y = powers[top - m]
                table.append((k * x + kd * y * d, k * y + kd * x))
            self._roots.append([top, u, v, d, 1, 0, [
                list(part) for part in zip(*table)][:1 + bool(d)], powers])
        self._q, self._n, self._den = q, 0, c  # den = C*Q^(n-1), next n

    def take(self, count: int) -> list[tuple[int, int]]:
        """The next count values, as (integer, C*Q^(n-1)) pairs."""
        first = self._n + 1
        self._n += count
        totals = [0] * count
        for root in self._roots:
            top, u, v, d, x, y, tables, powers = root
            parts = []
            for table in tables:
                level = [table[-1]] * count
                for k in range(len(table) - 2, -1, -1):
                    level = list(accumulate(level, initial=table[k]))
                    table[k] = level.pop()
                parts.append(level)
            head = max(0, min(count, top - first))
            values = []
            for j in range(head):   # n < M: P(n) / R^(M-n)
                px, py = powers[top - first - j]
                a, b = parts[0][j], parts[-1][j]
                values.append((a * px - b * py * d) // (px * px - py * py * d))
            if not d:
                steps = list(accumulate(repeat(u, count - head), mul,
                                        initial=x))
                root[4] = steps.pop()
                values += map(mul, steps, parts[0][head:])
            else:
                for a, b in zip(parts[0][head:], parts[1][head:]):
                    values.append(x * a + y * b * d)
                    x, y = x * u + y * v * d, x * v + y * u
                root[4:6] = x, y
            totals = list(map(add, totals, values))
        for m, k in self._spikes.items():
            if first <= m < first + count:
                totals[m - first] += k
        dens = list(accumulate(repeat(self._q, count), mul,
                               initial=self._den))
        self._den = dens.pop()
        return list(zip(totals, dens))


def _coeff_text(c: QuadExt) -> str:
    return str(c) if c.is_rational and c.rational_part >= 0 else f"({c})"


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


def _term_text(c: QuadExt, r: QuadExt, m: int) -> str:
    if not r:
        return _spike_text(m, c)
    factors = _binomial_factors(m)
    if r != _ONE:
        plain = r.is_rational and r.rational_part >= 0 and \
            r.rational_part.denominator == 1
        factors.append((f"{r}" if plain else f"({r})") + f"^(n-{m})")
    if not factors:
        return str(c) if c.is_rational else f"({c})"
    return _times(c, factors)


def _orbit_text(c: QuadExt, r: QuadExt, m: int) -> str:
    """The orbit of the term c*C(n-1, m-1)*r^(n-m) as
    (u*(p+q*sqrt(d))^n + v*(p-q*sqrt(d))^n) over k^n*sqrt(d), where
    r = (p + q*sqrt(d))/k with k the least common denominator of r's
    parts, u = c*sqrt(d)/r^m and v = -conj(u)."""
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
