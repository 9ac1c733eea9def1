"""Reference polynomial constructions shared by the tests, built from
``Poly`` multiplication alone; the package itself never needs them."""

from dlaplace.polys import Poly


def from_roots(*roots):
    """The monic polynomial with exactly the given roots, the product of
    the factors t - r; a radical root is refused where its factor is
    built."""
    p = Poly((1,))
    for r in roots:
        p = p * Poly((-r, 1))
    return p
