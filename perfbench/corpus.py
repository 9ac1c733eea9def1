"""Seeded recurrence corpora and the benchmark's own reference answers.

Every request is drawn from its roots: the generator picks the roots of the
characteristic polynomial (and, for homogeneous problems, a closed form
that excites every root to its full multiplicity), derives the recurrence
text from them, and states the outcome the engine must produce.  Expected
values come from iterating the recurrence in ``Fraction`` arithmetic here,
never from ``dlaplace``.

A workload is a list of strata, each a fixed problem shape, and a run
works through whole rounds: every stratum drawn once in each of BANDS
bands of the parameter that drives its cost (radicand, constant term,
forcing degree, dominant root, root shape).  Runs on different seeds thus
see the same mix and differ only in the exact numbers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

# A value a + b*sqrt(d): (a, b, d) with rational a, b.  d == 0 means
# rational, d == -1 means a + b*i (only for planted complex roots).
Quad = tuple

EXIT_OK, EXIT_CAPABILITY = 0, 2
CHECK_AT = (20, 40)   # closed-form positions checked beyond the printed values
BANDS = 4             # cost bands each stratum is drawn from in every round


@dataclass(frozen=True)
class Request:
    """One CLI call plus everything needed to judge its answer."""

    workload: str
    stratum: str
    argv: tuple[str, ...]
    coefficients: tuple[Fraction, ...]     # c_0 .. c_{k-1}
    initials: tuple[Fraction, ...]
    powers: tuple[tuple[int, Fraction], ...] = ()      # (p, coefficient)
    geometrics: tuple[tuple[Fraction, Fraction], ...] = ()  # (base, coeff)
    roots: tuple[tuple[Quad, int], ...] = ()  # every pole, fully excited
    expected_exit: int = EXIT_OK
    growth: float = 0.0   # log of the largest |pole|, at least 0

    @property
    def text(self) -> str:
        return self.argv[-1]


# ---------------------------------------------------------------- arithmetic

def qmul(x: Quad, y: Quad) -> Quad:
    d = _common(x, y)
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def qadd(x: Quad, y: Quad) -> Quad:
    return (x[0] + y[0], x[1] + y[1], _common(x, y))


def qpow(x: Quad, e: int) -> Quad:
    result: Quad = (Fraction(1), Fraction(0), x[2])
    while e:
        if e & 1:
            result = qmul(result, x)
        x = qmul(x, x)
        e >>= 1
    return result


def _common(x: Quad, y: Quad) -> int:
    if x[2] and y[2] and x[2] != y[2]:
        raise ValueError(f"radicands {x[2]} and {y[2]} do not mix")
    return x[2] or y[2]


def abs_bound(x: Quad) -> float:
    """max(|x|, |conjugate of x|) for a real x."""
    return abs(float(x[0])) + abs(float(x[1])) * math.sqrt(x[2])


def growth_of(poles) -> float:
    return math.log(max([1.0] + [abs_bound(p) for p in poles]))


def rat(value) -> Quad:
    return (Fraction(value), Fraction(0), 0)


def squarefree(d: int) -> tuple[int, int]:
    """(m, d0) with d == m*m*d0 and d0 squarefree."""
    m, p = 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            m *= p
        p += 1
    return m, d


def poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def root_factor(root: Quad) -> list:
    """Monic rational factor (low degree first) whose roots are root and,
    for an irrational root, its conjugate."""
    a, b, d = root
    if not b:
        return [-a, Fraction(1)]
    return [a * a - b * b * d, -2 * a, Fraction(1)]


# ----------------------------------------------------------------- reference

def forcing_value(req: Request, n: int) -> Fraction:
    total = Fraction(0)
    for p, c in req.powers:
        total += c * n ** p
    for base, c in req.geometrics:
        total += c * base ** n
    return total


def reference_values(req: Request, count: int) -> list[Fraction]:
    """a(1..count) by direct iteration of the recurrence."""
    values = list(req.initials)
    k = len(req.coefficients)
    while len(values) < count:
        m = len(values) - k + 1
        nxt = forcing_value(req, m)
        for j, c in enumerate(req.coefficients):
            nxt += c * values[m - 1 + j]
        values.append(nxt)
    return values[:count]


def _excite(components, count: int) -> list[Fraction]:
    """Values of sum c_j C(n-1, j-1) r^(n-j) over (root, [c_1..c_m]);
    an irrational root stands for itself plus its conjugate."""
    out = []
    for n in range(1, count + 1):
        total = Fraction(0)
        for root, cs in components:
            acc = (Fraction(0), Fraction(0), root[2])
            for j, c in enumerate(cs, start=1):
                if n >= j:
                    acc = qadd(acc, qmul(qmul(c, rat(comb(n - 1, j - 1))),
                                         qpow(root, n - j)))
            total += 2 * acc[0] if root[1] else acc[0]
        out.append(total)
    return out


def _json_quad(obj: dict) -> Quad:
    return (Fraction(obj["rational"]), Fraction(obj["radical"]),
            int(obj["radicand"]))


def closed_form_value(closed: dict, n: int) -> Quad:
    """Evaluate the engine's JSON closed form at n with our own arithmetic."""
    total: Quad = rat(0)
    for term in closed["terms"]:
        m = term["multiplicity"]
        if n >= m:
            piece = qmul(_json_quad(term["coefficient"]), rat(comb(n - 1, m - 1)))
            total = qadd(total, qmul(piece, qpow(_json_quad(term["root"]), n - m)))
    spike = closed["deltas"].get(str(n))
    if spike is not None:
        total = qadd(total, _json_quad(spike))
    return total


def check_output(req: Request, stdout: str) -> str | None:
    """None when a successful answer agrees with the reference, else why not."""
    try:
        payload = json.loads(stdout)
        if req.argv[0] == "solve":
            return _check_solve(req, payload)
        return _check_verify(req, payload)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        return f"malformed output: {exc!r}"


def _check_solve(req: Request, payload: dict) -> str | None:
    values = [Fraction(v) for v in payload["values"]]
    expected = reference_values(req, max(len(values), *CHECK_AT))
    if values != expected[:len(values)]:
        return "printed values differ from the recursion"
    if payload["verified_upto"] != 64:
        return f"verified_upto is {payload['verified_upto']}"
    closed = payload["closed_form"]
    for n in CHECK_AT:
        got = closed_form_value(closed, n)
        if got[1] or got[0] != expected[n - 1]:
            return f"closed form differs from the recursion at n = {n}"
    if req.roots:
        top: dict[Quad, int] = {}
        for term in closed["terms"]:
            root = _json_quad(term["root"])
            top[root] = max(top.get(root, 0), term["multiplicity"])
        drawn = {}
        for root, mult in req.roots:
            drawn[root] = mult
            if root[1]:
                drawn[(root[0], -root[1], root[2])] = mult
        if top != drawn:
            return "closed-form roots differ from the drawn roots"
    return None


def damped(v: Fraction, s: float, n: int) -> float:
    """v * e^(-s n), worked out in logs: near a dominant root of e^2, |v|
    passes the float range hundreds of terms before the product leaves it."""
    if not v:
        return 0.0
    size = math.exp(math.log(abs(v.numerator)) - math.log(v.denominator)
                    - s * n)
    return size if v > 0 else -size


def _check_verify(req: Request, payload: dict) -> str | None:
    if not payload["exact"]["passed"] or payload["exact"]["upto"] != 64:
        return "exact check did not pass to n = 64"
    numeric = payload["numeric"]
    if not numeric["passed"] or not numeric["checks"]:
        return "numeric check did not pass"
    longest = max(check["terms"] for check in numeric["checks"])
    values = reference_values(req, longest)
    for check in numeric["checks"]:
        s = check["s"]
        if s not in (1.0, 1.5, 2.0) or s <= req.growth:
            return f"sample point s = {s} is outside the convergent grid"
        series = math.fsum(damped(v, s, n)
                           for n, v in enumerate(values[:check["terms"]], 1))
        if abs(series - check["series"]) > 1e-9 * max(1.0, abs(series)):
            return f"series value at s = {s} differs from the recursion"
    return None


# ----------------------------------------------------------------- rendering

def _coeff_text(c: Fraction, body: str) -> str:
    if not body:
        return str(c)
    return body if c == 1 else f"{c}*{body}"


def render(coefficients, initials, powers=(), geometrics=()) -> str:
    """Recurrence text in the dlaplace language."""
    k = len(coefficients)
    terms = [(c, f"a[n+{j}]" if j else "a[n]")
             for j, c in reversed(list(enumerate(coefficients)))]
    terms += [(c, "" if p == 0 else "n" if p == 1 else f"n^{p}")
              for p, c in sorted(powers, reverse=True)]
    terms += [(c, f"{base}^n") for base, c in geometrics]
    rhs = ""
    for c, body in terms:
        if not c:
            continue
        text = _coeff_text(abs(c), body)
        if not rhs:
            rhs = f"-{text}" if c < 0 else text
        else:
            rhs += f" - {text}" if c < 0 else f" + {text}"
    inits = "; ".join(f"a[{i}] = {v}" for i, v in enumerate(initials, 1))
    return f"a[n+{k}] = {rhs or '0'}; {inits}"


# ----------------------------------------------------------------- drawing

class Draw:
    """Random draws for one request in cost band `band` of BANDS."""

    def __init__(self, rng: random.Random, band: int) -> None:
        self.rng = rng
        self.band = band

    def u(self) -> float:
        """A point of [0, 1] near band / (BANDS - 1): the bands pin the
        parameter that sets the cost to both ends of its range and evenly
        in between, and the seed only jitters it."""
        centre = self.band / (BANDS - 1)
        return min(1.0, max(0.0, centre + 0.01 * (2 * self.rng.random() - 1)))

    def log_uniform(self, lo: float, hi: float) -> int:
        return int(round(math.exp(math.log(lo) + self.u() * math.log(hi / lo))))

    def small_rational(self, top: int = 9, dens=(1, 1, 1, 2, 3)) -> Fraction:
        value = Fraction(self.rng.randint(1, top), self.rng.choice(dens))
        return value if self.rng.random() < 0.6 else -value

    def nonzero_coeff(self, d: int = 0) -> Quad:
        """A nonzero a + b*sqrt(d) with integer a, b (b = 0 when d = 0):
        denominators here would change the engine's cost from seed to
        seed without changing the problem's shape."""
        while True:
            a = Fraction(self.rng.randint(-5, 5))
            b = Fraction(self.rng.randint(-3, 3) if d else 0)
            if a or b:
                return (a, b, d)

    def squarefree_radicand(self, lo: int, hi: int,
                            banded: bool = True) -> int:
        while True:
            d = self.log_uniform(lo, hi) if banded else self.rng.randint(lo, hi)
            if d >= 2 and squarefree(d)[1] == d:
                return d

    def distinct_rationals(self, count: int, top: int = 9, avoid=(),
                           dens=(1, 1, 1, 2, 3)) -> list:
        seen = set(avoid)
        out = []
        while len(out) < count:
            r = self.small_rational(top, dens)
            if r not in seen:
                seen.add(r)
                out.append(r)
        return out


def _homog_request(workload: str, stratum: str, draw: Draw, command: str,
                   parts: list[tuple[Quad, int]],
                   expected_exit: int = EXIT_OK) -> Request:
    """A homogeneous IVP whose closed form excites every part fully."""
    char = [Fraction(1)]
    components = []
    for root, mult in parts:
        for _ in range(mult):
            char = poly_mul(char, root_factor(root))
        cs = [draw.nonzero_coeff(root[2]) for _ in range(mult)]
        components.append((root, cs))
    k = len(char) - 1
    coefficients = tuple(-c for c in char[:k])
    initials = tuple(_excite(components, k))
    argv = (command, "--json", render(coefficients, initials))
    if expected_exit != EXIT_OK:
        return Request(workload, stratum, argv, coefficients, initials,
                       expected_exit=expected_exit)
    return Request(workload, stratum, argv, coefficients, initials,
                   roots=tuple(parts),
                   growth=growth_of(root for root, _ in parts))


def _pair(draw: Draw, d: int, halves: bool) -> Quad:
    """(a' + sqrt(d))/2 with odd a' when `halves`, else a + sqrt(d).

    Halves put powers of two in every denominator, which roughly doubles
    the engine's cost at a given radicand, so each stratum fixes the shape.
    """
    if halves:
        return (Fraction(2 * draw.rng.randint(-6, 5) + 1, 2), Fraction(1, 2), d)
    return (Fraction(draw.rng.randint(-6, 6)), Fraction(1), d)


def _int_roots(draw: Draw, count: int, product_lo: float, product_hi: float):
    """Distinct nonzero integers whose product magnitude is near a target."""
    target = draw.log_uniform(product_lo, product_hi)
    roots: list[int] = []
    remaining = float(target)
    for i in range(count):
        left = count - i
        size = max(2, int(round(remaining ** (1.0 / left)
                                * draw.rng.uniform(0.7, 1.3))))
        while size in roots or -size in roots:
            size += 1
        roots.append(size if draw.rng.random() < 0.6 else -size)
        remaining = max(2.0, remaining / size)
    return [(rat(r), 1) for r in roots]


def _simple(roots) -> list:
    return [(rat(r), 1) for r in roots]


# solve-homog -------------------------------------------------------------

def _h_pair(lo: int, hi: int, halves: bool, mult: int = 1,
            rationals: int = 0):
    def parts(d: Draw):
        pair = _pair(d, d.squarefree_radicand(lo, hi), halves)
        return [(pair, mult)] + _simple(
            d.distinct_rationals(rationals, 9, dens=(1,)))
    return parts


def _h_repeated(d: Draw):
    first, second = d.distinct_rationals(2, 7)
    return [(rat(first), 3), (rat(second), 1)]


def _h_complex(d: Draw):
    a = Fraction(d.rng.randint(-6, 6))
    b = Fraction(d.rng.randint(1, 6))
    return [((a, b, -1), 1)] + _simple(d.distinct_rationals(1, 9))


def _irreducible_cubic_request(d: Draw) -> Request:
    """t^3 + p t^2 + q t + r with no integer root: irreducible over Q."""
    while True:
        p, q = d.rng.randint(-9, 9), d.rng.randint(-9, 9)
        r = d.rng.choice([v for v in range(-30, 31) if v])
        divisors = [v for v in range(1, abs(r) + 1) if r % v == 0]
        if all(x ** 3 + p * x * x + q * x + r
               for v in divisors for x in (v, -v)):
            break
    coefficients = (Fraction(-r), Fraction(-q), Fraction(-p))
    initials = tuple(Fraction(d.rng.randint(-9, 9)) for _ in range(3))
    if not any(initials):
        initials = (Fraction(1),) + initials[1:]
    argv = ("solve", "--json", render(coefficients, initials))
    return Request("solve-homog", "refuse-cubic", argv, coefficients,
                   initials, expected_exit=EXIT_CAPABILITY)


def _homog_stratum(name: str, parts_fn, command: str = "solve",
                   workload: str = "solve-homog", exit_code: int = EXIT_OK):
    return lambda d: _homog_request(workload, name, d, command, parts_fn(d),
                                    exit_code)


SOLVE_HOMOG = (
    _homog_stratum("rational-1",
                   lambda d: _simple([d.small_rational(30, (1, 2, 3, 5))])),
    _homog_stratum("rational-2",
                   lambda d: _simple(d.distinct_rationals(2, 12))),
    _homog_stratum("int-2-const-1e6-1e8",
                   lambda d: _int_roots(d, 2, 1e6, 1e8)),
    _homog_stratum("int-6-const-1e3-1e8",
                   lambda d: _int_roots(d, 6, 1e3, 1e8)),
    _homog_stratum("repeated-3+1", _h_repeated),
    _homog_stratum("pair-half-d-1e0-1e2", _h_pair(2, 10 ** 2, True)),
    _homog_stratum("pair-d-1e2-1e4", _h_pair(10 ** 2, 10 ** 4, False)),
    _homog_stratum("pair-half-d-1e4-1e6", _h_pair(10 ** 4, 10 ** 6, True)),
    _homog_stratum("pair+2-rational", _h_pair(2, 10 ** 6, False, rationals=2)),
    _homog_stratum("pair-x2+1-rational", _h_pair(2, 10 ** 6, False, 2, 1)),
    _homog_stratum("refuse-complex", _h_complex, exit_code=EXIT_CAPABILITY),
    _irreducible_cubic_request,
)


# solve-forced ------------------------------------------------------------

GEOMETRIC_BASES = tuple(Fraction(p, q) for p, q in
                        ((1, 2), (2, 3), (3, 2), (2, 1), (5, 2), (3, 1),
                         (1, 3), (4, 3), (5, 1)))


def _forced_request(workload: str, stratum: str, d: Draw, command: str,
                    roots: list[Fraction], degree: int,
                    bases: tuple[Fraction, ...] = ()) -> Request:
    """c n^degree (+ a constant) forcing, plus c b^n for the first base in
    `bases` that is not a characteristic root."""
    char = [Fraction(1)]
    for r in roots:
        char = poly_mul(char, [-r, Fraction(1)])
    k = len(roots)
    coefficients = tuple(-c for c in char[:k])
    powers = {p: d.small_rational(5, (1, 1, 2)) for p in {degree, 0}}
    geometrics = tuple((b, d.small_rational(5, (1, 1, 2)))
                       for b in [b for b in bases if b not in roots][:1])
    initials = tuple(Fraction(d.rng.randint(-9, 9)) for _ in range(k))
    powers_t = tuple(sorted(powers.items()))
    argv = (command, "--json", render(coefficients, initials, powers_t,
                                      geometrics))
    poles = [rat(r) for r in roots] + [rat(b) for b, _ in geometrics]
    return Request(workload, stratum, argv, coefficients, initials,
                   powers_t, geometrics, growth=growth_of(poles))


def _forced_roots(d: Draw) -> list[Fraction]:
    """The band picks the root shape: 1, r, (1, 1) or (r1, r2)."""
    one = Fraction(1)
    if d.band == 0:
        return [one]                 # pole at t = 1 of multiplicity p + 2
    if d.band == 1:
        return d.distinct_rationals(1, 5, avoid=(one,))
    if d.band == 2:
        return [one, one]
    return d.distinct_rationals(2, 5, avoid=(one,))


def _forced_stratum(p: int):
    def make(d: Draw) -> Request:
        bases = d.rng.sample(GEOMETRIC_BASES, 2) if (p + d.band) % 2 else ()
        return _forced_request("solve-forced", f"degree-{p}", d, "solve",
                               _forced_roots(d), p, tuple(bases))
    return make


SOLVE_FORCED = tuple(_forced_stratum(p) for p in range(13))


# verify ------------------------------------------------------------------

# Dominant-root bands A..D.  D stops short of e^2 so that s = 2 stays a
# convergent sample point for every drawn problem.
DOMINANT_BANDS = {"A": (1.0, 2.5), "B": (2.5, 4.5), "C": (4.5, 6.5),
                  "D": (6.5, 7.3)}


def _dominant(d: Draw, band: str) -> Fraction:
    """A rational of denominator 1..3 in the band, placed by d.band."""
    lo, hi = DOMINANT_BANDS[band]
    candidates = sorted({Fraction(p, q) for q in (1, 2, 3)
                         for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
                         if lo <= Fraction(p, q) <= hi})
    r = candidates[_spread(d.band, 0, len(candidates) - 1)]
    return r if d.rng.random() < 0.7 else -r


def _spread(band: int, lo: int, hi: int) -> int:
    """lo..hi spread evenly over the bands: band 0 gives lo, the last hi."""
    return round(lo + band * (hi - lo) / (BANDS - 1))


def _below(d: Draw, count: int, bound: float, avoid=()) -> list:
    """Distinct nonzero rationals of magnitude below bound."""
    out: list[Fraction] = []
    while len(out) < count:
        q = d.rng.choice((1, 2, 3))
        r = Fraction(d.rng.randint(1, max(1, math.ceil(bound * q) - 1)), q)
        r = r if d.rng.random() < 0.6 else -r
        if abs(r) < bound and r not in out and r not in avoid:
            out.append(r)
    return out


def _dominant_pair(d: Draw, band: str) -> Quad:
    lo, hi = DOMINANT_BANDS[band]
    width = (hi - lo) / BANDS
    lo, hi = lo + width * d.band, lo + width * (d.band + 1)
    while True:
        dd = d.squarefree_radicand(2, 60, banded=False)
        a = Fraction(d.rng.randint(-12, 12), 2)
        b = Fraction(d.rng.randint(1, 2), 2)
        if lo <= abs_bound((a, b, dd)) <= hi:
            return (a, b, dd)


def _v_homog(name: str, parts_fn):
    return _homog_stratum(name, parts_fn, "verify", "verify")


# Geometric bases for verify stay below 2 so that they do not move the
# dominant root, which sets the series length.
VERIFY_BASES = (Fraction(1, 2), Fraction(3, 2), Fraction(1, 3),
                Fraction(4, 3))


def _v_forced(name: str, roots_fn, degrees: tuple[int, int]):
    def make(d: Draw) -> Request:
        bases = VERIFY_BASES[d.band:] + VERIFY_BASES[:d.band] \
            if d.band % 2 == 0 else ()
        return _forced_request("verify", name, d, "verify", roots_fn(d),
                               _spread(d.band, *degrees), bases)
    return make


def _top_and_below(band: str, mult: int = 1, below: int = 1):
    def parts(d: Draw):
        top = _dominant(d, band)
        rest = _below(d, below, DOMINANT_BANDS[band][0], (top,))
        return [(rat(top), mult)] + _simple(rest)
    return parts


VERIFY = (
    _v_homog("homog-1-A", _top_and_below("A", below=0)),
    _v_homog("homog-2-B", _top_and_below("B")),
    _v_homog("homog-pair-B", lambda d: [(_dominant_pair(d, "B"), 1)]),
    _v_homog("homog-repeated-C", _top_and_below("C", mult=2)),
    _v_homog("homog-2-D", _top_and_below("D")),
    _v_forced("forced-1-deg-0-5", lambda d: [Fraction(1)], (0, 5)),
    _v_forced("forced-D-deg-0-6", lambda d: [_dominant(d, "D")], (0, 6)),
    _v_forced("forced-1x2-deg-6-9", lambda d: [Fraction(1)] * 2, (6, 9)),
    _v_forced("forced-1-deg-10-12", lambda d: [Fraction(1)], (10, 12)),
)


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple[Callable[[Draw], Request], ...]
    # Rounds in a run of REFERENCE_SECONDS: a fixed count, so every commit
    # runs the same requests for a seed and the sample count never flips.
    # solve-homog gets seven so that its tail falls mid-cell (see README).
    rounds: int


REFERENCE_SECONDS = 20


# Why each workload exists (the one-line `why` is repeated in BENCHMARK.json):
#
# solve-homog: nearly all of a homogeneous solve goes to the 64-term
#   self-check and, for order 2, the three basis solves; the tail comes
#   from QuadExt re-normalising the radicand on every arithmetic result.
#   n_power is never called.  Radicands reach 1e6 and constant terms 1e8,
#   below the inputs that hang the engine; the time limit still catches
#   anything that stalls.  Complex pairs and irreducible cubics must be
#   refused with exit 2.
# solve-forced: transform_of -> n_power -> RatFunc gcd, and partial
#   fractions on a pole of multiplicity up to 14 at t = 1, dominate.  All
#   roots are rational, so a change to radicand handling should leave this
#   workload flat, while n_power and gcd changes should show here.
# verify: the layers the solve workloads skip (verify_solution,
#   growth_bound, series_eval with hundreds of terms, closed forms evaluated
#   at large n in floating point).  Degrees and dominant roots span the
#   documented range, so the engine's wrong verdicts on correct solutions
#   (exit 3 at n^8..n^12 over a pole at 1, OverflowError when the
#   dominant root nears e^2) are counted as failures, not filtered out.
WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-homog",
        "solve --json on homogeneous order 1-6 recurrences drawn from their "
        "roots (radicands to 1e6, constants to 1e8, 1 in 6 must exit 2): "
        "self-check, basis solves, QuadExt radicands",
        SOLVE_HOMOG, 7),
    Workload(
        "solve-forced",
        "solve --json on order 1-2 recurrences with rational roots and n^p "
        "(p = 0..12) plus geometric forcing: n_power, RatFunc gcd and "
        "partial fractions at t = 1; no radicand work",
        SOLVE_FORCED, 2),
    Workload(
        "verify",
        "verify --json on both families, dominant roots up to e^2, degrees "
        "0..12: verify_solution, growth_bound, series_eval; known wrong "
        "verdicts and crashes count as failures",
        VERIFY, 2),
)}


def rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    """The workload's endless stream of rounds for one seed.

    A round draws every stratum once in each of its BANDS cost bands and
    shuffles the result, so every round has the same mix of problem shapes
    and cost bands; seeds change only the exact numbers and the order.
    """
    rng = random.Random(f"{workload}/{seed}")
    strata = WORKLOADS[workload].strata
    while True:
        batch = [make(Draw(rng, band))
                 for band in range(BANDS) for make in strata]
        rng.shuffle(batch)
        yield batch


def trace_set(workload: str, seed: int) -> list[Request]:
    """One request per stratum, bands rotating: the traced run's fixed set."""
    rng = random.Random(f"{workload}/{seed}/trace")
    return [make(Draw(rng, i % BANDS))
            for i, make in enumerate(WORKLOADS[workload].strata)]
