"""Reference transforms assembled from the rule table, each sum reduced by
its own gcd; the package itself never needs them.

A spec's transform is the initial data the shift rule leaves, plus one
``n_power`` quotient per forcing term, over the characteristic
polynomial.  A closed form's is one quotient per rational term or spike
and one per conjugate orbit.  The package reads both off an annihilator
instead (``polys.annihilated_numerator``), so these are the tests'
independent oracle for it.
"""

from math import comb

from dlaplace.polys import Poly, RatFunc
from dlaplace.transforms import n_power


def initial_polynomial(spec):
    """Initial data contributed by shifting both sides of the recurrence,
    lowest degree first.

    Shifting a by k contributes sum_i a(i) t^(k-i); each right-hand shift
    by j contributes -c_j * sum_{i<=j} a(i) t^(j-i).
    """
    a = spec.initials
    total = list(reversed(a))
    for j, c in enumerate(spec.coefficients):
        if c:
            for i in range(1, j + 1):
                total[j - i] -= c * a[i - 1]
    return total


def spec_transform(spec):
    """(init + sum c n_power(p, b)) / char for the spec's IVP."""
    char = spec.characteristic()
    total = RatFunc(Poly(initial_polynomial(spec)), char)
    for term in spec.forcing:
        total = total + n_power(term.exponent, term.base) * \
            RatFunc(term.coefficient) / char
    return total


def closed_form_transform(seq):
    """The sum of c/t^j over the spikes and of c/(t - r)^m over the
    rational terms, with each conjugate orbit as one quotient over Q:
    2 Re[c (t - conj(r))^m] / (t^2 - 2 Re(r) t + N(r))^m, Re the rational
    part and N(r) = r conj(r) (Bronstein and Salvy, ISSAC 1993)."""
    total = RatFunc()
    for j, c in seq.deltas.items():
        total = total + RatFunc(c, Poly.monomial(j))
    for term in seq.terms:
        c, r, m = term.coefficient, term.root, term.multiplicity
        if r.is_rational:
            total = total + RatFunc(c, Poly((-r, 1)) ** m)
        elif r.radical_part > 0:
            conj = r.conjugate()
            num = [2 * (c * comb(m, k) * (-conj) ** (m - k)).rational_part
                   for k in range(m + 1)]
            total = total + RatFunc(num, Poly((r * conj, -2 * r.rational_part,
                                               1)) ** m)
    return total
