import random
from fractions import Fraction

import mpmath
import pytest

from equicut.exact import sqrt_adjoin
from equicut.intervals import mpf_to_fraction, pi_interval
from equicut.trispace import (
    angles_from_sides,
    cosines_from_sides,
    in_side_sample_region,
    is_valid_angle_fractions,
    is_valid_side_pair,
    pi_numeric,
    sample_angle_fractions,
    sample_side_fractions,
    sample_side_triangle,
)


class TestValidity:
    def test_side_pairs(self):
        assert is_valid_side_pair(Fraction(7, 8), Fraction(3, 4))
        assert is_valid_side_pair(2, Fraction(3, 2))  # valid, 1 not longest
        assert not is_valid_side_pair(Fraction(1, 2), Fraction(1, 2))  # degenerate
        assert not is_valid_side_pair(Fraction(1, 4), Fraction(1, 4))
        assert not is_valid_side_pair(3, 1)  # 1 + 1 < 3
        assert not is_valid_side_pair(0, 1)
        assert is_valid_side_pair(sqrt_adjoin(2) / 2, sqrt_adjoin(2) / 2)

    def test_sample_region(self):
        assert in_side_sample_region(Fraction(7, 8), Fraction(3, 4))
        assert not in_side_sample_region(Fraction(1, 2), Fraction(1, 2))
        assert not in_side_sample_region(Fraction(3, 2), Fraction(3, 4))
        assert not in_side_sample_region(Fraction(1), Fraction(1))

    def test_angle_fractions(self):
        assert is_valid_angle_fractions(Fraction(1, 3), Fraction(1, 3))
        assert not is_valid_angle_fractions(Fraction(1, 2), Fraction(1, 2))
        assert not is_valid_angle_fractions(Fraction(0), Fraction(1, 3))


class TestCosinesFromSides:
    def test_scalene(self):
        cos_a, cos_b, cos_c = cosines_from_sides(Fraction(7, 8), Fraction(3, 4))
        assert cos_a.as_fraction() == Fraction(17, 32)
        assert cos_b.as_fraction() == Fraction(11, 16)
        assert cos_c.as_fraction() == Fraction(1, 4)

    def test_equilateral(self):
        for c in cosines_from_sides(1, 1):
            assert c.as_fraction() == Fraction(1, 2)

    def test_right_isoceles(self):
        h = sqrt_adjoin(2) / 2
        cos_a, cos_b, cos_c = cosines_from_sides(h, h)
        assert cos_c.is_zero()
        assert cos_a == h
        assert cos_b == h

    def test_thirty_sixty_ninety(self):
        a, b = sqrt_adjoin(3) / 2, Fraction(1, 2)
        cos_a, cos_b, cos_c = cosines_from_sides(a, b)
        assert cos_a.as_fraction() == Fraction(1, 2)
        assert cos_b == sqrt_adjoin(3) / 2
        assert cos_c.is_zero()

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            cosines_from_sides(Fraction(1, 2), Fraction(1, 2))


def contains_reference(numeric, ref: Fraction, bits=100) -> bool:
    iv = numeric.enclosure(bits)
    return iv.lo <= ref <= iv.hi


class TestAngleMaps:
    def test_pi_numeric(self):
        with mpmath.workprec(512):
            ref = mpf_to_fraction(+mpmath.pi)
        assert contains_reference(pi_numeric(), ref, 200)

    def test_equilateral_angles(self):
        alpha, beta, gamma = angles_from_sides(1, 1)
        pi3 = pi_interval(130) * Fraction(1, 3)
        for ang in (alpha, beta, gamma):
            iv = ang.enclosure(128)
            assert iv.lo <= pi3.hi and iv.hi >= pi3.lo

    def test_equal_angles_are_one_value(self):
        """Equal cosines give one shared angle, so each is enclosed once per
        precision."""
        alpha, beta, gamma = angles_from_sides(1, 1)
        assert alpha is beta is gamma
        alpha, beta, gamma = angles_from_sides(Fraction(3, 4), Fraction(3, 4))
        assert alpha is beta and gamma is not alpha
        assert len({id(t) for t in angles_from_sides(Fraction(7, 8), Fraction(3, 4))}) == 3

    def test_angle_sum_is_pi(self):
        alpha, beta, gamma = angles_from_sides(Fraction(7, 8), Fraction(3, 4))
        iv = alpha.enclosure(128) + beta.enclosure(128) + gamma.enclosure(128)
        pi = pi_interval(128)
        assert iv.lo <= pi.hi and iv.hi >= pi.lo


class TestSamplers:
    def test_deterministic(self):
        s1 = [sample_side_fractions(random.Random(42)) for _ in range(1)]
        s2 = [sample_side_fractions(random.Random(42)) for _ in range(1)]
        assert s1 == s2
        rng1, rng2 = random.Random(7), random.Random(7)
        seq1 = [sample_angle_fractions(rng1) for _ in range(10)]
        seq2 = [sample_angle_fractions(rng2) for _ in range(10)]
        assert seq1 == seq2

    def test_samples_valid(self):
        rng = random.Random(123)
        for _ in range(200):
            a, b = sample_side_fractions(rng)
            assert in_side_sample_region(a, b)
            assert a.denominator <= 1 << 53
        for _ in range(200):
            u, v = sample_angle_fractions(rng)
            assert is_valid_angle_fractions(u, v)

    def test_numeric_tier(self):
        rng = random.Random(5)
        a, b = sample_side_triangle(rng)
        iv = a.enclosure(80)
        assert iv.width <= Fraction(1, 1 << 80)

    def test_distinct_samples(self):
        rng = random.Random(999)
        seen = {sample_side_fractions(rng) for _ in range(50)}
        assert len(seen) == 50
