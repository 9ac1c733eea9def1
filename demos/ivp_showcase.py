# A tour of initial value problems the solver handles, plus the ones it
# refuses on purpose.

from fractions import Fraction

from dlaplace import (ForcingTerm, RecurrenceSpec, UnsupportedFactorization,
                      delta, partial_sums, solve_ivp)


def main():
    print("== second differences: (D^2 f)(n) = n, f(1) = 1, (Df)(1) = 2 ==")
    # D^2 f(n) = f(n+2) - 2f(n+1) + f(n), and f(2) = f(1) + (Df)(1) = 3
    spec = RecurrenceSpec(2, (-1, 2), (1, 3), (ForcingTerm(1, 1),))
    report = solve_ivp(spec, verify_upto=100)
    print("closed form:", report.closed_form)
    print("values:     ", ", ".join(str(v) for v in report.values(8)))
    print("check:       f(n) = 2n - 1 + n(n-1)(n-2)/6 exactly for n <= 100")
    for n in range(1, 101):
        assert report.closed_form(n) == \
            2 * n - 1 + Fraction(n * (n - 1) * (n - 2), 6)

    print()
    print("== the affine family a(n+1) = lam*a(n) + beta ==")
    for lam in (Fraction(3), Fraction(1, 2), Fraction(-1), Fraction(1)):
        report = solve_ivp(RecurrenceSpec(1, (lam,), (1,), (ForcingTerm(1),)))
        values = ", ".join(str(v) for v in report.values(6))
        print(f"lam = {str(lam):>4}: {str(report.closed_form):<34} {values}")
    print("(lam = 1 degenerates to an arithmetic progression, no pole)")

    print()
    print("== geometric forcing ==")
    spec = RecurrenceSpec(1, (Fraction(2),), (Fraction(1),),
                          (ForcingTerm(1, 0, 3),))
    report = solve_ivp(spec)
    print("a(n+1) = 2a(n) + 3^n:", report.closed_form)
    print("values:", ", ".join(str(v) for v in report.values(6)))

    print()
    print("== resonant forcing: the base 2 is a characteristic root ==")
    spec = RecurrenceSpec(1, (Fraction(2),), (Fraction(1),),
                          (ForcingTerm(1, 0, 2),))
    report = solve_ivp(spec)
    print("a(n+1) = 2a(n) + 2^n:", report.closed_form)
    print("values:", ", ".join(str(v) for v in report.values(6)))

    print()
    print("== refusals ==")
    try:
        solve_ivp(RecurrenceSpec(3, (Fraction(1), Fraction(1), Fraction(0)),
                                 (1, 1, 1)))
    except UnsupportedFactorization as exc:
        print("cubic roots:     ", exc)

    print()
    print("== inverse-square partial sums as an IVP ==")
    print("h(n) = sum_(k<=n-1) 1/k^2 with h(1) = 1 satisfies")
    print("h(n+1) = h(n) + 1/n^2; the engine verifies the recursion")
    inverse_squares = partial_sums(lambda k: Fraction(1, k * k))

    def h(n):
        return inverse_squares(n) + 1

    holds = h(2) == 2 and all(delta(h)(n) == Fraction(1, n * n)
                              for n in range(1, 201))
    print("and the exact rational values agree for n <= 200:", holds)
    print("h(5) =", h(5))


if __name__ == "__main__":
    main()
