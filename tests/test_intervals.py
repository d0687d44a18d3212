import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicut.exact import MAX_WORK_BITS, _refine_to, sqrt_adjoin
from equicut.intervals import (
    NumericReal,
    RatInterval,
    RefinementLimitError,
    acos_interval,
    acos_numeric,
    mpf_to_fraction,
    pi_interval,
    sin_interval,
    sin_numeric,
)


def high_precision(fn, *args):
    """Reference value at 512 bits, returned as an exact Fraction."""
    with mpmath.workprec(512):
        conv = [
            mpmath.mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else a
            for a in args
        ]
        return mpf_to_fraction(fn(*conv))


class TestRatInterval:
    def test_basic_ops(self):
        a = RatInterval(1, 2)
        b = RatInterval(-1, Fraction(1, 2))
        assert (a + b).lo == 0 and (a + b).hi == Fraction(5, 2)
        assert (a - b).lo == Fraction(1, 2) and (a - b).hi == 3
        assert (-a).lo == -2
        prod = a * b
        assert prod.lo == -2 and prod.hi == 1

    def test_scalar_multiplication(self):
        a = RatInterval(1, 2)
        assert (a * -3).lo == -6 and (a * -3).hi == -3
        assert (2 * a).hi == 4

    def test_inverse(self):
        a = RatInterval(Fraction(1, 2), 2)
        inv = a.inverse()
        assert inv.lo == Fraction(1, 2) and inv.hi == 2
        with pytest.raises(ZeroDivisionError):
            RatInterval(-1, 1).inverse()

    def test_predicates(self):
        assert RatInterval(-1, 1).contains_zero()
        assert RatInterval(1, 2).strict_sign() == 1
        assert RatInterval(-2, -1).strict_sign() == -1
        assert RatInterval(-1, 1).strict_sign() == 0
        assert RatInterval(1, 3).contains(2)

    def test_sqrt_encloses(self):
        iv = RatInterval(2, 3).sqrt(80)
        assert iv.lo * iv.lo <= 2 and iv.hi * iv.hi >= 3

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            RatInterval(2, 1)


class TestMpfConversion:
    def test_round_trip(self):
        with mpmath.workprec(64):
            x = mpmath.mpf("1.375")
        assert mpf_to_fraction(x) == Fraction(11, 8)
        assert mpf_to_fraction(mpmath.mpf(0)) == 0
        assert mpf_to_fraction(mpmath.mpf(-3)) == -3

    def test_non_finite_rejected(self):
        for x in (mpmath.inf, -mpmath.inf, mpmath.nan):
            with pytest.raises(ValueError):
                mpf_to_fraction(x)

    def test_matches_the_power_of_two_product(self):
        """Built from mantissa and exponent directly, the value is the
        old Fraction(man) * 2**exp, on both exponent signs and at every
        precision the angle ladder uses."""
        def product(x):
            sign, man, exp, _ = mpmath.mpf(x)._mpf_
            value = Fraction(man) * (Fraction(2) ** exp)
            return -value if sign else value

        exps = set()
        for bits in (64, 256, 1024, 4096):
            with mpmath.workprec(bits):
                values = [mpmath.mpf(0), mpmath.mpf(-3), mpmath.mpf(3) * 2**70,
                          mpmath.mpf(-5) / 2**90, mpmath.mpf("-0.1")]
                values += [mpmath.acos(mpmath.mpf(c) / 7) for c in (-6, -1, 2, 5)]
                for x in values:
                    exps.add((x._mpf_[2] > 0) - (x._mpf_[2] < 0))
                    assert mpf_to_fraction(x) == product(x)
        assert exps == {-1, 0, 1}


class TestTranscendentalEnclosures:
    def test_pi(self):
        ref = high_precision(lambda: +mpmath.pi)
        for bits in (32, 64, 128):
            iv = pi_interval(bits)
            assert iv.contains(ref)
            assert iv.width <= Fraction(1, 1 << (bits - 2))

    @pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 2), Fraction(-3, 5), Fraction(1, 4)])
    def test_acos_point(self, c):
        ref = high_precision(mpmath.acos, c)
        iv = acos_interval(RatInterval(c, c), 96)
        assert iv.contains(ref)
        assert iv.width <= Fraction(1, 1 << 90)

    def test_acos_near_one(self):
        c = 1 - Fraction(1, 10**12)
        ref = high_precision(mpmath.acos, c)
        iv = acos_interval(RatInterval(c, c), 64)
        assert iv.contains(ref)

    def test_acos_endpoints(self):
        assert acos_interval(RatInterval(1, 1), 64).contains(0)
        pi_ref = high_precision(lambda: +mpmath.pi)
        assert acos_interval(RatInterval(-1, -1), 64).contains(pi_ref)

    @pytest.mark.parametrize(
        "t", [Fraction(1, 10), Fraction(1), Fraction(3, 2), Fraction(3)]
    )
    def test_sin_point(self, t):
        ref = high_precision(mpmath.sin, t)
        iv = sin_interval(RatInterval(t, t), 96)
        assert iv.contains(ref)
        assert iv.width <= Fraction(1, 1 << 90)

    def test_sin_spanning_maximum(self):
        iv = sin_interval(RatInterval(Fraction(3, 2), Fraction(8, 5)), 64)
        assert iv.hi == 1
        ref = high_precision(mpmath.sin, Fraction(3, 2))
        assert iv.lo <= ref


class TestNumericReal:
    def test_from_exact(self):
        x = NumericReal.from_exact(sqrt_adjoin(2))
        iv = x.enclosure(100)
        assert iv.lo**2 <= 2 <= iv.hi**2
        assert iv.width <= Fraction(1, 1 << 100)
        assert x.exact_backing is not None

    def test_arithmetic_encloses(self):
        x = NumericReal.from_exact(sqrt_adjoin(2))
        y = NumericReal.from_exact(Fraction(1, 3))
        expr = (x + y) * (x - y) - x * x  # equals -1/9
        iv = expr.enclosure(120)
        assert iv.contains(Fraction(-1, 9))
        assert iv.width <= Fraction(1, 1 << 120)

    def test_division(self):
        x = NumericReal.from_exact(sqrt_adjoin(2))
        iv = (1 / x).enclosure(100)
        ref = sqrt_adjoin(2) / 2
        lo, hi = ref.enclosure(120)
        assert iv.lo <= hi and iv.hi >= lo

    def test_division_by_zero_raises(self):
        quotient = NumericReal.from_exact(1) / NumericReal.from_exact(0)
        with pytest.raises(RefinementLimitError):
            quotient.enclosure(64)

    def test_operand_that_never_narrows_raises(self):
        stuck = NumericReal(lambda bits: RatInterval(0, 1))
        with pytest.raises(RefinementLimitError):
            (stuck + 1).enclosure(64)

    def test_target_past_the_work_limit_fails_before_any_attempt(self):
        attempts = []

        def attempt(work):
            attempts.append(work)
            return RatInterval(0)

        start = time.perf_counter()
        with pytest.raises(RefinementLimitError):
            _refine_to(1_000_000, attempt)
        with pytest.raises(RefinementLimitError):
            _refine_to(MAX_WORK_BITS + 1, attempt)
        assert time.perf_counter() - start < 1
        assert attempts == []
        assert _refine_to(MAX_WORK_BITS, attempt).width == 0

    def test_sqrt(self):
        x = NumericReal.from_exact(2)
        iv = x.sqrt().enclosure(150)
        assert iv.lo**2 <= 2 <= iv.hi**2
        assert iv.width <= Fraction(1, 1 << 150)

    def test_mixed_operands(self):
        x = NumericReal.from_exact(sqrt_adjoin(3))
        expr = 2 * x - sqrt_adjoin(3) - sqrt_adjoin(3)
        assert expr.enclosure(200).contains(0)

    def test_acos_sin_composition(self):
        # angle = acos(1/2) = pi/3, sin(pi/3) = sqrt(3)/2
        angle = acos_numeric(NumericReal.from_exact(Fraction(1, 2)))
        s = sin_numeric(angle)
        ref = sqrt_adjoin(3) / 2
        lo, hi = ref.enclosure(150)
        iv = s.enclosure(130)
        assert iv.lo <= hi and iv.hi >= lo
        assert iv.width <= Fraction(1, 1 << 130)

    def test_refinement_cache(self):
        calls = []

        def refine(bits):
            calls.append(bits)
            lo, hi = sqrt_adjoin(5).enclosure(bits)
            return RatInterval(lo, hi)

        x = NumericReal(refine)
        x.enclosure(64)
        x.enclosure(64)
        assert calls == [64]


@st.composite
def rat_intervals(draw):
    lo = draw(st.fractions(min_value=-3, max_value=3, max_denominator=20))
    w = draw(st.fractions(min_value=0, max_value=1, max_denominator=20))
    return RatInterval(lo, lo + w)


class TestIntervalAlgebraHypothesis:
    @given(rat_intervals(), rat_intervals(), st.fractions(min_value=-2, max_value=2, max_denominator=9))
    @settings(max_examples=80, deadline=None)
    def test_containment_preserved(self, a, b, pt_frac):
        # pick concrete points inside each interval and check images land inside
        pa = a.lo + (a.hi - a.lo) * Fraction(1, 3)
        pb = b.lo + (b.hi - b.lo) * Fraction(2, 3)
        assert (a + b).contains(pa + pb)
        assert (a - b).contains(pa - pb)
        assert (a * b).contains(pa * pb)
        assert (a * pt_frac).contains(pa * pt_frac)
