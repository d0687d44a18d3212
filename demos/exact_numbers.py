#!/usr/bin/env python3
"""Tour of the exact number kernel: towers of square roots with decidable
signs, the multiquadratic field, and the literal syntax.

Coordinates in this package are never floats.  They live in towers of
real quadratic extensions of the rationals: start from Q, repeatedly
adjoin the square root of something you already have.  A value is stored
as integer coefficients over the products of the adjoined square roots,
with one denominator, whether the radicands are integers or nested
radicals such as 5 + 2*sqrt(6); so every arithmetic operation is exact and
equality compares coefficients.  Crucially the sign of any element is
decidable -- first from a rigorous fixed-point enclosure, and when that
cannot decide (for instance because the value is exactly zero), by an
exact recursive argument.  That is what lets geometric predicates
(orientation, on-segment, congruence) return true answers instead of
float guesses.

Usage:
    python3 exact_numbers.py
"""

from fractions import Fraction

from equicut.exact import KElement, exactify, sqrt_adjoin
from equicut.literals import format_number, parse_number


def main():
    # --- a classic: sqrt(2)*sqrt(3) == sqrt(6), exactly -------------------
    s2, s3, s6 = sqrt_adjoin(2), sqrt_adjoin(3), sqrt_adjoin(6)
    print("sqrt(2)*sqrt(3) == sqrt(6):", s2 * s3 == s6)

    # --- a denested radical ------------------------------------------------
    # sqrt(3 + 2*sqrt(2)) is secretly 1 + sqrt(2); equality is decided
    # exactly even though the two sides live in different towers.
    nested = sqrt_adjoin(3 + 2 * s2)
    print("sqrt(3+2*sqrt(2)) == 1+sqrt(2):", nested == 1 + s2)

    # --- sign decisions that floats get wrong ------------------------------
    # sqrt(2)+sqrt(3) vs sqrt(5+2*sqrt(6)): equal, so the difference is 0.
    lhs = s2 + s3
    rhs = sqrt_adjoin(5 + 2 * s6)
    diff = lhs - rhs
    print("sign of sqrt(2)+sqrt(3)-sqrt(5+2*sqrt(6)):", diff.sign())

    # a tiny but nonzero difference is still resolved
    tiny = s2 - exactify(Fraction(665857, 470832))  # best approx, off by ~1e-12
    print("sign of sqrt(2) - 665857/470832:", tiny.sign())
    print("  as float:", float(tiny))

    # --- the flat multiquadratic field -------------------------------------
    # K = Q(sqrt(2), sqrt(3), sqrt(5), ...) in normal form: a finite sum of
    # rational coefficients times square roots of squarefree integers.
    x = KElement([(1, Fraction(1, 2)), (3, Fraction(1, 2))])  # (1+sqrt(3))/2
    y = x * x
    print("((1+sqrt(3))/2)^2 =", format_number(y.to_tower()))
    print("inverse check:", x * x.inverse() == KElement.from_rational(1))

    # --- literals: a round-trippable text form ------------------------------
    for text in ("1/2*sqrt(3)", "sqrt(5+2*sqrt(6))", "-7/8+2*sqrt(1/2)"):
        value = parse_number(text)
        back = format_number(value)
        print(f"parse({text!r}) -> format -> {back!r}  "
              f"(round trip: {parse_number(back) == value})")


if __name__ == "__main__":
    main()
