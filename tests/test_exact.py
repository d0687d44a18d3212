import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicut.exact import (
    FieldBuilder,
    KElement,
    NegativeSqrtError,
    RatInterval,
    SquarefreeBoundError,
    TowerReal,
    fraction_sqrt_bounds,
    k_membership,
    sqrt_adjoin,
    squarefree_decompose,
    tower_to_k,
)


def R(x) -> TowerReal:
    return TowerReal.from_rational(x)


class TestSquarefreeDecompose:
    def test_small(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(2) == (1, 2)
        assert squarefree_decompose(4) == (2, 1)
        assert squarefree_decompose(8) == (2, 2)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(360) == (6, 10)

    def test_large_prime_cofactor(self):
        p = 1000003  # prime just above the trial-division bound
        s, d = squarefree_decompose(4 * p)
        assert (s, d) == (2, p)

    def test_large_perfect_square(self):
        p = 1000003
        assert squarefree_decompose(p * p) == (p, 1)

    def test_uncertifiable(self):
        p, q = 1000003, 1000033  # distinct primes, product exceeds bound**2
        with pytest.raises(SquarefreeBoundError):
            squarefree_decompose(p * q)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_reconstruction(self, n):
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        for p in range(2, 60):
            assert d % (p * p) != 0


class TestFractionSqrtBounds:
    def test_encloses(self):
        lo, hi = fraction_sqrt_bounds(Fraction(2), 64)
        assert lo * lo <= 2 <= hi * hi
        assert hi - lo <= Fraction(1, 2**64)

    def test_exact_square(self):
        lo, hi = fraction_sqrt_bounds(Fraction(9, 4), 16)
        assert lo == hi == Fraction(3, 2)

    def test_negative_raises(self):
        with pytest.raises(NegativeSqrtError):
            fraction_sqrt_bounds(Fraction(-1), 8)


class TestTowerArithmetic:
    def test_square_of_sum(self):
        r2, r3 = sqrt_adjoin(2), sqrt_adjoin(3)
        assert (r2 + r3) ** 2 == 5 + 2 * sqrt_adjoin(6)

    def test_mixed_products(self):
        r2, r3, r6 = sqrt_adjoin(2), sqrt_adjoin(3), sqrt_adjoin(6)
        assert r6 * r2 == 2 * r3
        assert r2 * r3 == r6

    def test_rational_collapse(self):
        r2 = sqrt_adjoin(2)
        diff = r2 - r2
        assert diff.depth == 0
        assert diff.as_fraction() == 0
        assert (r2 * r2).as_fraction() == 2

    def test_division(self):
        r2 = sqrt_adjoin(2)
        assert (1 / r2) * r2 == 1
        assert ((1 + r2) / (1 + r2)).as_fraction() == 1
        assert 1 / r2 == r2 / 2

    def test_zero_division_raises(self):
        r2 = sqrt_adjoin(2)
        with pytest.raises(ZeroDivisionError):
            _ = r2 / 0
        with pytest.raises(ZeroDivisionError):
            _ = 1 / (r2 - r2)

    def test_power(self):
        r2 = sqrt_adjoin(2)
        assert r2**0 == 1
        assert r2**6 == 8
        assert (1 + r2) ** 2 == 3 + 2 * r2

    def test_comparisons(self):
        r2, r3 = sqrt_adjoin(2), sqrt_adjoin(3)
        assert r2 < r3 < r2 + r3
        assert r2 <= r2
        assert not (r3 < r2)
        assert r2 + r3 > sqrt_adjoin(6)

    def test_float_and_enclosure(self):
        r2 = sqrt_adjoin(2)
        assert abs(float(r2) - 2**0.5) < 1e-12
        lo, hi = r2.enclosure(200)
        assert lo <= r2 <= hi or (lo * lo <= 2 <= hi * hi)
        assert hi - lo <= Fraction(1, 2**200)


class TestSign:
    def test_spec_combination(self):
        # 3*sqrt(2) - 2*sqrt(3) + sqrt(6) - 5 is slightly negative
        x = 3 * sqrt_adjoin(2) - 2 * sqrt_adjoin(3) + sqrt_adjoin(6) - 5
        assert x.sign() == -1

    def test_sign_against_mpmath(self):
        with mpmath.workprec(256):
            ref = 3 * mpmath.sqrt(2) - 2 * mpmath.sqrt(3) + mpmath.sqrt(6) - 5
            assert ref < 0
        x = 3 * sqrt_adjoin(2) - 2 * sqrt_adjoin(3) + sqrt_adjoin(6) - 5
        assert x.sign() == -1

    def test_exact_zero(self):
        r2, r3 = sqrt_adjoin(2), sqrt_adjoin(3)
        z = (r2 + r3) * (r3 - r2) - 1
        assert z.sign() == 0
        assert z.is_zero()

    def test_tiny_difference(self):
        # 665857/470832 is a Pell convergent: p^2 - 2 q^2 = 1, so p/q > sqrt(2)
        p, q = 665857, 470832
        assert p * p - 2 * q * q == 1
        x = sqrt_adjoin(2) - Fraction(p, q)
        assert x.sign() == -1
        assert abs(float(x)) < 1e-11

    def test_nested_zero(self):
        r2, r3 = sqrt_adjoin(2), sqrt_adjoin(3)
        s = r2 + r3
        assert (sqrt_adjoin(s * s) - s).sign() == 0


# The tuple interval recursion the kernel used before it was built on
# RatInterval; kept as the reference for the differential test below.


def _iv_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _iv_mul(a, b):
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    return min(p1, p2, p3, p4), max(p1, p2, p3, p4)


def _rinterval(x, k, sqrt_ivs):
    if k == 0:
        return (x, x)
    p, q = x
    return _iv_add(_rinterval(p, k - 1, sqrt_ivs), _iv_mul(_rinterval(q, k - 1, sqrt_ivs), sqrt_ivs[k - 1]))


def _reference_interval(value: TowerReal, bits: int):
    sqrt_ivs = []
    for i, rad in enumerate(value.ctx.radicands):
        lo, hi = _rinterval(rad, i, sqrt_ivs)
        lo = max(lo, Fraction(0))
        sqrt_ivs.append((fraction_sqrt_bounds(lo, bits)[0], fraction_sqrt_bounds(hi, bits)[1]))
    return _rinterval(value.raw, value.depth, sqrt_ivs)


def _seeded_towers(seed: int) -> list:
    """Rationals, flat towers in either radicand order, towers ending in a
    nested sqrt(v*v + 1), and sums and products merged across orders."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 30))

    def tower(radicands, nested):
        v = TowerReal.from_rational(coeff())
        for r in radicands:
            v = v + coeff() * sqrt_adjoin(r)
        if nested:
            v = v + sqrt_adjoin(v * v + 1)
        return v

    rads = rng.sample((2, 3, 5, 7), 3)
    values = [
        tower((), False),
        tower(rads[:1], False),
        tower(rads[:2], False),
        tower(rads, False),
        tower(rads[:1], True),
        tower(rads[:2], True),
    ]
    a = tower(rads[:2], False)
    b = tower(rads[1::-1], False)
    c = tower(rads[:1], True)
    d = tower(rads[1:2], False)
    values += [a + b, a * b - 1, c + d, c * d, (a + c) * b]
    return values


class TestIntervalDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_interval_matches_tuple_recursion(self, seed):
        values = _seeded_towers(seed)
        assert {v.depth for v in values} == {0, 1, 2, 3}
        assert any(tower_to_k(v) is None for v in values)  # a nested radicand
        for v in values:
            for bits in (32, 64, 128):
                iv = v.interval(bits)
                assert isinstance(iv, RatInterval)
                assert (iv.lo, iv.hi) == _reference_interval(v, bits)

    @pytest.mark.parametrize("seed", range(4))
    def test_enclosure_width(self, seed):
        for v in _seeded_towers(seed):
            for bits in (32, 64, 128):
                iv = v.enclosure(bits)
                assert isinstance(iv, RatInterval)
                lo, hi = iv
                assert (lo, hi) == (iv.lo, iv.hi)
                assert hi - lo <= Fraction(1, 1 << bits)


class TestSqrtAdjoin:
    def test_perfect_square_rational(self):
        v = sqrt_adjoin(4)
        assert v.depth == 0
        assert v.as_fraction() == 2

    def test_rational_decomposes(self):
        v = sqrt_adjoin(8)
        assert v == 2 * sqrt_adjoin(2)
        w = sqrt_adjoin(Fraction(3, 4))
        assert w * 2 == sqrt_adjoin(3)

    def test_square_inside_tower(self):
        r2 = sqrt_adjoin(2)
        v = sqrt_adjoin(3 + 2 * r2)
        assert v == 1 + r2
        assert v.depth == 1

    def test_square_inside_deeper_tower(self):
        r2, r3 = sqrt_adjoin(2), sqrt_adjoin(3)
        s = r2 + r3
        v = sqrt_adjoin(s * s)
        assert v == s
        assert v.depth == 2

    def test_new_level_when_needed(self):
        r3 = sqrt_adjoin(3)
        v = sqrt_adjoin(2 + r3)
        assert v.depth == 2
        assert v * v == 2 + r3

    def test_zero_and_negative(self):
        assert sqrt_adjoin(0).is_zero()
        with pytest.raises(NegativeSqrtError):
            sqrt_adjoin(-2)
        with pytest.raises(NegativeSqrtError):
            sqrt_adjoin(sqrt_adjoin(2) - 2)


class TestCrossTowerMerge:
    def test_unrelated_contexts(self):
        a = sqrt_adjoin(2 + sqrt_adjoin(3))  # context [3, 2+sqrt(3)]
        b = sqrt_adjoin(5)  # context [5]
        total = a + b
        assert total - b == a
        assert total - a == b
        assert (a + b) * (a - b) == a * a - b * b

    def test_merge_is_exact(self):
        a = sqrt_adjoin(3) + sqrt_adjoin(2)
        b = sqrt_adjoin(6)
        assert a * a - 5 == 2 * b


class TestKElement:
    def test_normalization(self):
        assert KElement.sqrt_of(8) == KElement([(2, 2)])
        assert KElement.sqrt_of(12) == KElement([(3, 2)])
        assert KElement([(2, 1), (8, 1)]) == KElement([(2, 3)])
        assert KElement([(2, 1), (2, -1)]).is_zero()

    def test_product(self):
        one_plus = KElement([(1, 1), (2, 1)])
        min_plus = KElement([(1, -1), (2, 1)])
        assert one_plus * min_plus == KElement.from_rational(1)
        assert KElement.sqrt_of(6) * KElement.sqrt_of(2) == KElement([(3, 2)])

    def test_inverse(self):
        one_plus = KElement([(1, 1), (2, 1)])
        assert one_plus.inverse() == KElement([(1, -1), (2, 1)])
        assert 1 / one_plus == one_plus.inverse()
        x = KElement([(1, Fraction(1, 2)), (2, 3), (3, -1), (30, Fraction(2, 7))])
        assert x * x.inverse() == KElement.from_rational(1)
        with pytest.raises(ZeroDivisionError):
            KElement.zero().inverse()

    def test_hash_and_eq(self):
        assert hash(KElement.sqrt_of(8)) == hash(KElement([(2, 2)]))
        assert KElement.from_rational(3) == 3
        assert len({KElement.sqrt_of(2), KElement([(2, 1)])}) == 1

    def test_to_tower(self):
        x = KElement([(1, Fraction(1, 2)), (2, 3), (6, -1)])
        t = x.to_tower()
        assert t == Fraction(1, 2) + 3 * sqrt_adjoin(2) - sqrt_adjoin(6)


class TestKMembership:
    def test_positive(self):
        x = 3 * sqrt_adjoin(2) - 2 * sqrt_adjoin(3) + sqrt_adjoin(6) - 5
        m = k_membership(x, [1, 2, 3, 6])
        assert m == KElement([(1, -5), (2, 3), (3, -2), (6, 1)])

    def test_negative(self):
        assert k_membership(sqrt_adjoin(7), [1, 2, 3, 6]) is None
        assert k_membership(sqrt_adjoin(6), [1, 2, 3]) is None

    def test_rational(self):
        m = k_membership(TowerReal.from_rational(Fraction(7, 3)), [1, 2])
        assert m == KElement.from_rational(Fraction(7, 3))

    def test_basis_normalizes(self):
        m = k_membership(2 * sqrt_adjoin(2), [8])
        assert m == KElement([(2, 2)])

    def test_nested_value_in_k(self):
        r2, r3 = sqrt_adjoin(2), sqrt_adjoin(3)
        v = sqrt_adjoin((r2 + r3) ** 2)  # equals sqrt(2)+sqrt(3)
        m = k_membership(v, [2, 3])
        assert m == KElement([(2, 1), (3, 1)])


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def k_elements(max_terms=3):
    return st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 5, 6, 10]), small_fracs),
        min_size=0,
        max_size=max_terms,
    ).map(KElement)


class TestFieldAxiomsHypothesis:
    @given(k_elements(), k_elements(), k_elements())
    @settings(max_examples=60, deadline=None)
    def test_k_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + KElement.zero() == a
        assert a * KElement.from_rational(1) == a
        assert a - a == KElement.zero()

    @given(k_elements())
    @settings(max_examples=40, deadline=None)
    def test_k_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == KElement.from_rational(1)

    @given(st.sampled_from([2, 3, 5, 7]), small_fracs, small_fracs, small_fracs)
    @settings(max_examples=40, deadline=None)
    def test_tower_axioms(self, d, p, q, r):
        rd = sqrt_adjoin(d)
        x = p + q * rd
        y = r - q * rd
        z = rd * rd - d
        assert z == 0
        assert (x + y) * (x - y) == x * x - y * y
        assert x * y == y * x
        if not (x == 0):
            assert x / x == 1

    @given(k_elements(2))
    @settings(max_examples=30, deadline=None)
    def test_k_tower_agreement(self, a):
        basis = [d for d, _ in a.terms] or [1]
        m = k_membership(a.to_tower(), basis)
        assert m == a
