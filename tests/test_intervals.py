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
)
from interval_reference import reference_acos_interval


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
        prod = a * b
        assert prod.lo == -2 and prod.hi == 1

    def test_scalar_multiplication(self):
        a = RatInterval(1, 2)
        assert (a * -3).lo == -6 and (a * -3).hi == -3
        assert (2 * a).hi == 4

    def test_predicates(self):
        assert RatInterval(1, 3).contains(2)
        assert RatInterval(-1, 1).contains(0)
        assert not RatInterval(1, 3).contains(0)

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


def _point(x):
    return lambda bits: RatInterval(x)


def _tower(value):
    return value.enclosure


_TINY_COS = 1 - Fraction(1, 3 << 40)  # acos of it is about 2**-20, acos' about 2**20

# inputs by name, each a function of the precision; the narrow ones are the
# kind ``acos_numeric`` passes, an enclosure of width at most 2**-bits
ACOS_NARROW = {
    "dyadic-1/2": _point(Fraction(1, 2)),
    "dyadic-17/32": _point(Fraction(17, 32)),
    "dyadic-negative": _point(Fraction(-11, 16)),
    "zero": _point(Fraction(0)),
    "point-1/3": _point(Fraction(1, 3)),
    "point--5/7": _point(Fraction(-5, 7)),
    "tower-sqrt3/2": _tower(sqrt_adjoin(3) / 2),
    "tower-sqrt2/2": _tower(sqrt_adjoin(2) / 2),
    "tower-golden": _tower((sqrt_adjoin(5) - 1) / 4),
    "tower-negative": _tower(-sqrt_adjoin(7) / 3),
    "tiny-angle-point": _point(_TINY_COS),
    "tiny-angle-dyadic": _point(1 - Fraction(1, 1 << 41)),
    "tiny-angle-tower": _tower(sqrt_adjoin(_TINY_COS)),
    "near-minus-one": _tower(sqrt_adjoin(_TINY_COS) * -1),
}
# an end at or beyond +-1: both ends are evaluated, as in the reference
ACOS_AT_ONE = {
    "one": _point(Fraction(1)),
    "minus-one": _point(Fraction(-1)),
    "up-to-one": lambda bits: RatInterval(Fraction(1, 2), 1),
    "from-minus-one": lambda bits: RatInterval(-1, Fraction(-1, 3)),
    "all": lambda bits: RatInterval(-1, 1),
    "past-one": lambda bits: RatInterval(Fraction(9, 10), Fraction(3, 2)),
    "past-minus-one": lambda bits: RatInterval(-2, Fraction(-1, 2)),
    "past-both": lambda bits: RatInterval(-3, 3),
    "beyond-one": lambda bits: RatInterval(Fraction(3, 2), 2),
    "beyond-minus-one": lambda bits: RatInterval(-3, -2),
}
# wide inputs, where acos's mean-value radius is not that tight: containment only
WIDE = {
    "acos-spanning-zero": (mpmath.acos, RatInterval(Fraction(-9, 10), Fraction(7, 10))),
    "acos-near-one": (mpmath.acos, RatInterval(Fraction(9, 10), Fraction(99, 100))),
}
_BITS = (96, 256, 1024)


def _image_samples(fn, x, bits):
    """``fn`` at 2*bits working precision at the ends of ``x`` (clamped into
    [-1, 1] for acos) and at interior points."""
    lo, hi = x
    if fn is mpmath.acos:
        lo, hi = min(max(lo, -1), 1), min(max(hi, -1), 1)
    points = {lo, hi} | {lo + (hi - lo) * Fraction(k, 7) for k in range(1, 7)}
    with mpmath.workprec(2 * bits):
        return [
            mpf_to_fraction(fn(mpmath.mpf(t.numerator) / t.denominator)) for t in points
        ]


class TestMeanValueEnclosures:
    """One acos evaluation and a mean-value radius enclose what the two-ended
    reference encloses, and are wider by at most 2**-(bits+12) on inputs as
    narrow as the refinement loop passes."""

    @pytest.mark.parametrize("bits", _BITS)
    @pytest.mark.parametrize("name", sorted(ACOS_NARROW) + sorted(ACOS_AT_ONE))
    def test_acos(self, name, bits):
        x = {**ACOS_NARROW, **ACOS_AT_ONE}[name](bits)
        iv = acos_interval(x, bits)
        assert all(iv.contains(v) for v in _image_samples(mpmath.acos, x, bits))
        ref = reference_acos_interval(x, bits)
        assert iv.width <= ref.width + Fraction(1, 1 << (bits + 12))
        if name in ACOS_AT_ONE:
            assert (iv.lo, iv.hi) == (ref.lo, ref.hi)

    @pytest.mark.parametrize("bits", (64, 256))
    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_wide(self, name, bits):
        fn, x = WIDE[name]
        iv = acos_interval(x, bits)
        assert all(iv.contains(v) for v in _image_samples(fn, x, bits))

    def test_one_evaluation_away_from_one(self, monkeypatch):
        calls = []
        acos = mpmath.acos
        monkeypatch.setattr(mpmath, "acos", lambda t: calls.append(t) or acos(t))
        acos_interval(RatInterval(Fraction(1, 3), Fraction(1, 2)), 64)
        assert len(calls) == 1
        acos_interval(RatInterval(Fraction(1, 3), 1), 64)
        assert len(calls) == 3


class TestNumericReal:
    def test_from_exact(self):
        x = NumericReal.from_exact(sqrt_adjoin(2))
        iv = x.enclosure(100)
        assert iv.lo**2 <= 2 <= iv.hi**2
        assert iv.width <= Fraction(1, 1 << 100)
        assert x.exact_backing is not None

    def test_operand_that_never_narrows_raises(self):
        stuck = NumericReal(lambda bits: RatInterval(0, 1))
        with pytest.raises(RefinementLimitError):
            acos_numeric(stuck).enclosure(64)

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

    def test_float_of_a_tiny_exact_value(self):
        # the 64-bit enclosure's midpoint was off by 1.1e-20 here
        p, q = Fraction(665857), Fraction(470832)
        true = -1.5948618246068547e-12
        assert float(NumericReal.from_exact(sqrt_adjoin(2) - p / q)) == true

    def test_float_of_a_tiny_numeric_value(self):
        # no exact backing: refined until the width is 2**-60 of the value
        p, q = 665857, 470832
        x = NumericReal((sqrt_adjoin(2) * q - p).enclosure)
        assert x.exact_backing is None
        with mpmath.workprec(256):
            true = float(mpmath.sqrt(2) * q - p)
        assert float(x) == true
        tiny = NumericReal(NumericReal.from_exact(Fraction(1, 3 << 1100)).enclosure)
        assert float(tiny) == 2.0**-1100 / 3

    def test_float_of_a_numeric_zero_stops(self):
        """Enclosures that always straddle 0 never reach a relative width, so
        the float stops at the 2**-2048 enclosure, the sixth."""
        calls = []

        def refine(bits):
            calls.append(bits)
            half = Fraction(1, 1 << (bits + 1))
            return RatInterval(-half, half)

        x = NumericReal(refine)
        assert float(x) == 0.0
        assert calls == [64 * 2**k for k in range(6)]


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
        assert (a * b).contains(pa * pb)
        assert (a * pt_frac).contains(pa * pt_frac)
