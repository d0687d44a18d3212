"""The acos enclosure that ``equicut.intervals`` formed before one
evaluation and a mean-value radius: acos evaluated at both ends of the
input, rounded outward onto the 2**-(bits+16) grid.  The differential tests
check the one-evaluation enclosures against it.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from equicut.intervals import RatInterval, mpf_to_fraction


def _dyadic_out(x, p, up):
    scaled = x * (1 << p)
    n = scaled.numerator // scaled.denominator
    if up and n * scaled.denominator != scaled.numerator:
        n += 1
    return Fraction(n, 1 << p)


def _exact_mpf(x):
    return mpmath.ldexp(x.numerator, -(x.denominator.bit_length() - 1))


def reference_acos_interval(x, bits):
    """acos over ``x``, clamped into [-1, 1], evaluated at both ends."""
    p = bits + 16
    lo_in = min(max(_dyadic_out(x.lo, p, up=False), Fraction(-1)), Fraction(1))
    hi_in = min(max(_dyadic_out(x.hi, p, up=True), Fraction(-1)), Fraction(1))
    eps = Fraction(1, 1 << bits)
    with mpmath.workprec(p + 8):
        out_lo = mpf_to_fraction(mpmath.acos(_exact_mpf(hi_in)))
        out_hi = mpf_to_fraction(mpmath.acos(_exact_mpf(lo_in)))
    lo = max(Fraction(0), out_lo - eps)
    return RatInterval(lo, max(lo, out_hi + eps))

