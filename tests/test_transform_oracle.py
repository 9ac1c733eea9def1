"""Both forward transforms against the rule-table oracle.

``transform_of`` and ``ClosedFormSequence.transform`` read N off an
annihilator P with ``polys.annihilated_numerator``, so a transform agrees
with the values it was read from by construction.  These seeded tests
check each against ``transform_reference``, which assembles the same
quotient from the shift rule's initial polynomial, ``n_power`` pieces and
orbit quotients instead, and check the helper itself on pairs of every
shape a ``ratios`` method gives.
"""

import random
from fractions import Fraction

from dlaplace.exact import QuadExt
from dlaplace.polys import Poly, RatFunc, annihilated_numerator
from dlaplace.sequences import ClosedFormSequence
from dlaplace.solver import (ForcingTerm, RecurrenceSpec, RecursiveSequence,
                             transform_of)
from dlaplace.transforms import MAX_N_POWER
from poly_reference import from_roots
from transform_reference import closed_form_transform, spec_transform

ROOTS = [Fraction(1), Fraction(2), Fraction(-1), Fraction(-3),
         Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def test_transform_of_matches_the_rule_assembly_randomized():
    rng = random.Random(33)

    def rational(top, bottom):
        return Fraction(rng.randint(-top, top), rng.randint(1, bottom))

    seen = dict.fromkeys(("resonant", "negative", "fractional", "top power",
                          "shared", "cancelling", "zero coefficient",
                          "unexcited", "zero solution", "order 6"), 0)
    for _ in range(150):
        order = rng.randint(1, 6)
        if rng.random() < 0.2:
            # a characteristic polynomial with no rational root, as a rule
            coefficients = [rational(5, 3) for _ in range(order)]
            roots = []
        else:
            roots = [rng.choice(ROOTS) for _ in range(order)]
            coefficients = [-c for c in from_roots(*roots).fractions[:-1]]
        pool = roots + ROOTS
        forcing = []
        for _ in range(rng.randint(0, 3)):
            power = MAX_N_POWER if rng.random() < 0.1 else rng.randint(0, 4)
            term = ForcingTerm(rng.choice([0, rational(5, 3) or 1]), power,
                               rng.choice(pool))
            forcing.append(term)
            if rng.random() < 0.2:
                forcing.append(ForcingTerm(-term.coefficient, term.exponent,
                                           term.base))
        draw = rng.random()
        if draw < 0.15 and not forcing:
            initials = [0] * order
        elif draw < 0.4 and roots:
            initials = [roots[0] ** n for n in range(order)]
        else:
            initials = [rational(9, 5) for _ in range(order)]
        spec = RecurrenceSpec(order, coefficients, initials, forcing)
        expr = transform_of(spec)
        assert expr == spec_transform(spec), spec
        bases = [term.base for term in forcing]
        seen["resonant"] += any(b in roots for b in bases)
        seen["negative"] += any(b < 0 for b in bases)
        seen["fractional"] += any(b.denominator > 1 for b in bases)
        seen["top power"] += any(t.exponent == MAX_N_POWER for t in forcing)
        seen["shared"] += len(set(bases)) < len(bases)
        seen["cancelling"] += any(t.coefficient == -u.coefficient != 0
                                  for t, u in zip(forcing, forcing[1:]))
        seen["zero coefficient"] += any(not t.coefficient for t in forcing)
        seen["unexcited"] += expr.den.degree < order
        seen["zero solution"] += expr.is_zero
        seen["order 6"] += order == 6
    assert min(seen.values()) >= 3, seen


def test_closed_form_transform_matches_the_orbit_formula_randomized():
    rng = random.Random(3301)
    fields = [QuadExt(Fraction(1, 2), Fraction(1, 2), 5), QuadExt(1, 1, 2),
              QuadExt(0, 2, 3), QuadExt(-1, Fraction(1, 3), 2)]

    def rational(top=6, den=3):
        return Fraction(rng.randint(-top, top), rng.randint(1, den))

    seen = dict.fromkeys(("orbit", "repeated", "spike", "zero"), 0)
    for _ in range(120):
        terms = []
        for _ in range(rng.randint(0, 3)):
            radical = rng.random() < 0.5
            root = rng.choice(fields) if radical else \
                QuadExt(rng.choice(ROOTS))
            for m in range(1, rng.randint(1, 3) + 1):
                c = QuadExt(rational(), rational() if radical else 0,
                            root.radicand)
                terms.append((c, root, m))
                if radical:
                    terms.append((c.conjugate(), root.conjugate(), m))
        deltas = {rng.randint(1, 4): rational()
                  for _ in range(rng.randint(0, 2))}
        seq = ClosedFormSequence(terms, deltas)
        assert seq.transform() == closed_form_transform(seq), seq
        seen["orbit"] += any(not t.root.is_rational for t in seq.terms)
        seen["repeated"] += any(t.multiplicity > 1 for t in seq.terms)
        seen["spike"] += bool(seq.deltas)
        seen["zero"] += seq.is_zero
    assert min(seen.values()) >= 3, seen
    assert ClosedFormSequence().transform() == RatFunc()


def test_annihilated_numerator_reads_any_denominators():
    # a(n) = (1/2)^n + 3 (-1/3)^n + n: P = (t - 1/2)(t + 1/3)(t - 1)^2
    # annihilates it, so P times the transform is a polynomial N.  The
    # pairs come reduced, scaled up each by its own factor, so that a
    # denominator need not divide the next, and over one denominator; a
    # P with a content and a P with more factors than needed give N too
    def value(n):
        return Fraction(1, 2) ** n + 3 * Fraction(-1, 3) ** n + n

    values = [value(n) for n in range(1, 12)]
    transform = RatFunc(Poly((1,)), Poly((-1, 2))) + \
        RatFunc(Poly((-3,)), Poly((1, 3))) + \
        RatFunc(Poly((0, 1)), Poly((1, -2, 1)))
    shapes = [
        [(v.numerator, v.denominator) for v in values],
        [(v.numerator * k, v.denominator * k)
         for k, v in zip((7, 1, 5, 1, 3, 2, 1, 1, 11, 1, 1), values)],
        [(v.numerator * (6 ** 11 // v.denominator), 6 ** 11)
         for v in values],
    ]
    assert any(b % a for (_, a), (_, b) in zip(shapes[1], shapes[1][1:]))
    exact = from_roots(Fraction(1, 2), Fraction(-1, 3), 1, 1)
    for p in (exact, exact * Fraction(9, 4), exact * Poly((3, 0, 0, 1))):
        expected = RatFunc(p) * transform
        assert expected.den == Poly((1,))
        for pairs in shapes:
            assert annihilated_numerator(p, iter(pairs)) == expected.num


def test_annihilated_numerator_reads_only_deg_p_values():
    # a sparse P reads its first deg P values and no more; a constant P
    # reads none and gives N = 0
    spec = RecurrenceSpec(40, [1] + [0] * 38 + [1], range(1, 41))
    recursion = RecursiveSequence(spec)
    p = spec.characteristic()
    consumed = []

    def pairs():
        for n, pair in enumerate(recursion.ratios(60), 1):
            consumed.append(n)
            yield pair

    num = annihilated_numerator(p, pairs())
    assert consumed == list(range(1, 41))
    assert RatFunc(num, p) == transform_of(spec)
    assert annihilated_numerator(Poly((5,)), iter([(1, 1)])).is_zero
