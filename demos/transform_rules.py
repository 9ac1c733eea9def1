# Walk through the transform rule table with exact arithmetic.
#
# Every line pairs a sequence rule with its rational-function image in
# t = e^s, then spot-checks a few values by inverting the result.

from fractions import Fraction

from dlaplace import (ClosedFormSequence, convolve, geometric,
                      inverse_transform, n_power, partial_sum, shift,
                      times_n)


def show(title, expr):
    print(f"{title:<28} {expr.render('e^s')}")


def main():
    print("== basic pairs ==")
    five = geometric(5)
    show("5^(n-1)", five)
    show("1 (all ones)", geometric(1))
    show("(1/2)^(n-1)", geometric(Fraction(1, 2)))

    print()
    print("== polynomial weights via -d/ds ==")
    for k in (1, 2, 3):
        show(f"n^{k}" if k > 1 else "n", n_power(k))

    # n^3 comes out with the Eulerian numerator 1, 4, 1
    cubes = inverse_transform(n_power(3))
    print("n^3 at n = 1..6:", [int(cubes(n)) for n in range(1, 7)])

    print()
    print("== shift rule ==")
    # push 5^(n-1) two steps: the head values f(1) = 1, f(2) = 5 are
    # subtracted off, exactly as the rule says
    pushed = shift(five, 2, [1, 5])
    show("f(n+2) for f = 5^(n-1)", pushed)
    moved = inverse_transform(pushed)
    print("f(n+2) at n = 1..4:", [int(moved(n)) for n in range(1, 5)])

    print()
    print("== times-n rule ==")
    weighted = times_n(geometric(2))
    show("n*2^(n-1)", weighted)
    seq = inverse_transform(weighted)
    print("n*2^(n-1) at n = 1..5:", [int(seq(n)) for n in range(1, 6)])

    print()
    print("== convolution theorem ==")
    ramp = ClosedFormSequence([(1, 1, 1), (1, 1, 2)])   # f(n) = n
    ones = ClosedFormSequence([(1, 1, 1)])
    product = ramp.transform() * ones.transform()
    show("(n * 1)(n)", product)
    print("direct sums:   ",
          ", ".join(str(convolve(ramp, ones, n)) for n in range(1, 8)))
    inverted = inverse_transform(product)
    print("from transform:",
          ", ".join(str(inverted(n)) for n in range(1, 8)))
    print("(n*1)(n) == (n^2 - n)/2 for all of them")

    print()
    print("== partial sums ==")
    sums = partial_sum(n_power(1))
    show("sum_(k<n) k", sums)
    triangle = inverse_transform(sums)
    print("triangle numbers (offset):",
          ", ".join(str(triangle(n)) for n in range(1, 8)))


if __name__ == "__main__":
    main()
