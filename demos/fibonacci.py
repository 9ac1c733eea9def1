# The Fibonacci pipeline, end to end: recurrence text in, Binet formula
# out, with every step exact and the result double-checked two ways.

import math

from dlaplace import (RecursiveSequence, check_closed_form_pair, growth_bound,
                      parse_program, partial_fractions, solve_ivp)

TEXT = "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1"


def main():
    print("input:", TEXT)
    spec = parse_program(TEXT).to_spec()
    report = solve_ivp(spec)

    print()
    print("transform F(s) =", report.transform.render("e^s"))
    print("          F(t) =", report.transform.render("t"), "with t = e^s")

    print()
    print("partial fractions over Q(sqrt(5)):")
    for part in partial_fractions(report.transform):
        print(f"  ({part.coefficient}) / (t - ({part.root}))")

    print()
    print("closed form:", report.closed_form)

    values = report.values(12)
    print()
    print("first values:", ", ".join(str(v) for v in values))
    recursive = RecursiveSequence(spec)
    assert values == [recursive(n) for n in range(1, 13)]
    print(f"exact match with the recursion for n <= {report.verified_upto}")

    # the radicals cancel: every value is a plain integer
    f40 = report.closed_form(40)
    print("f(40) =", f40.as_fraction(), "(radical parts cancel exactly)")

    print()
    print("numeric cross-check of the defining series:")
    check = check_closed_form_pair(report.closed_form, report.transform)
    for entry in check.entries:
        print(f"  s = {entry.s:g}: {entry.terms} terms, "
              f"discrepancy {entry.discrepancy:.2e}")
    alpha, s0 = growth_bound(report.closed_form)
    print(f"  (series truncated by the tail bound, growth rate s0 = {s0:.4f})")

    print()
    ratio = float(recursive(41)) / float(recursive(40))
    phi = (1 + math.sqrt(5)) / 2
    print(f"f(41)/f(40) = {ratio:.15f}")
    print(f"phi         = {phi:.15f}")
    print(f"difference  = {abs(ratio - phi):.2e}")


if __name__ == "__main__":
    main()
