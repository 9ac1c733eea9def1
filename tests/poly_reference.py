"""Reference polynomial constructions shared by the tests, built from
``Poly`` multiplication and coefficients alone; the package itself never
needs them."""

from fractions import Fraction

from dlaplace.exact import QuadExt
from dlaplace.polys import Poly, Term, factor_roots


def from_roots(*roots):
    """The monic polynomial with exactly the given roots, the product of
    the factors t - r; a radical root is refused where its factor is
    built."""
    p = Poly((1,))
    for r in roots:
        p = p * Poly((-r, 1))
    return p


def evaluate(p, x):
    """p(x) by Horner's rule over p's Fraction coefficients, for an int or
    a Fraction x."""
    acc = Fraction(0)
    for c in reversed(p.fractions):
        acc = acc * x + c
    return acc


def taylor(p, r, count):
    """The first count coefficients of p(r + u), by synthetic division in
    QuadExt arithmetic."""
    coeffs, out = list(p.coefficients), []
    for _ in range(count):
        acc, quotient = QuadExt(0), []
        for c in reversed(coeffs):
            acc = acc * r + c
            quotient.append(acc)
        out.append(quotient.pop() if quotient else QuadExt(0))
        coeffs = quotient[::-1]
    return out


def partial_fractions(a):
    """The terms c/(t - r)^j of a strictly proper quotient, in the order
    and form ``polys.partial_fractions`` returns them, by local expansion
    with the series quotient divided in QuadExt arithmetic: at t = r + u
    the first m coefficients of num/(den/(t - r)^m) are those of
    1/(t - r)^m .. 1/(t - r), and a conjugate root takes the conjugates."""
    local = {}
    for root, mult in factor_roots(a.den):
        if root.conjugate() in local:
            series = [c.conjugate() for c in local[root.conjugate()]]
        else:
            num = taylor(a.num, root, mult)
            den = taylor(a.den, root, 2 * mult)
            assert not any(den[:mult]), "root of lower multiplicity"
            q, inv, series = den[mult:], den[mult].inverse(), []
            for i in range(mult):
                series.append(inv * (num[i] - sum(
                    (q[j] * series[i - j] for j in range(1, i + 1)),
                    QuadExt(0))))
        local[root] = series
    return [Term(c, root, j) for root, series in local.items()
            for j, c in enumerate(reversed(series), 1) if c]
