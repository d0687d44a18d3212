import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicut import exact
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
from equicut.literals import format_k_element, format_number, parse_number


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


# Integer-vector arithmetic on flat towers, checked against the recursive
# Fraction-leaf path, which stays in exact.py for nested towers.

FLAT_RADICANDS = [(2,), (3, 2), (2, 3, 5), (5, 7, 2), (15, 5), (6, 10)]


def _flat_ctx(radicands):
    builder = FieldBuilder()
    for r in radicands:
        builder.sqrt(r)
    assert builder.ctx.depth == len(radicands)
    return builder.ctx


def _random_raw(rng, k):
    if k == 0:
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-60, 60), rng.randint(1, 40))
    if rng.random() < 0.15:  # a zero top half, which the value strips
        return (_random_raw(rng, k - 1), exact._rconst(Fraction(0), k - 1))
    return (_random_raw(rng, k - 1), _random_raw(rng, k - 1))


def _lift(raw, k, to_k):
    for j in range(k, to_k):
        raw = (raw, exact._rconst(Fraction(0), j))
    return raw


def _reference_format(ctx, raw):
    """``format_number`` as it read the coordinates off the raw form."""
    ds = [exact._rasfrac(rad, i).numerator for i, rad in enumerate(ctx.radicands)]
    coords = []
    exact._rflatten(raw, ctx.depth, coords)
    terms = []
    for mask, c in enumerate(coords):
        if c:
            d = 1
            for j, dj in enumerate(ds):
                if mask >> j & 1:
                    d *= dj
            terms.append((d, c))
    return format_k_element(KElement(terms))


def _mp_value(raw, k, rads):
    if k == 0:
        return mpmath.mpf(raw.numerator) / raw.denominator
    p, q = raw
    return _mp_value(p, k - 1, rads) + _mp_value(q, k - 1, rads) * mpmath.sqrt(
        _mp_value(rads[k - 1], k - 1, rads)
    )


def _flat_pairs(seed):
    """(x, y) pairs of flat values: one context, a context and its prefix,
    and two contexts over the same radicands adjoined in different orders."""
    rng = random.Random(seed)
    pairs = []
    for rads in FLAT_RADICANDS:
        ctx = _flat_ctx(rads)
        for _ in range(3):
            j = rng.randrange(ctx.depth + 1)
            x = TowerReal(ctx, _random_raw(rng, ctx.depth))
            y = TowerReal(ctx, _random_raw(rng, ctx.depth))
            z = TowerReal(ctx.prefix(j), _random_raw(rng, j))
            pairs += [(x, y), (x, z), (z, x), (x, TowerReal.from_rational(rng.randint(-5, 5)))]
        if len(rads) > 1:
            other = _flat_ctx(rads[::-1])
            x = TowerReal(ctx, _random_raw(rng, ctx.depth))
            y = TowerReal(other, _random_raw(rng, other.depth))
            pairs += [(x, y), (y, x)]
    return pairs


def _check_result(z, ctx, want):
    """z, computed on integer vectors, against the raw result ``want``."""
    k = ctx.depth
    assert _lift(z.raw, z.depth, k) == want
    assert TowerReal(ctx, want) == z
    assert z.sign() == exact._rsign(want, k, ctx.radicands)
    assert z.is_zero() == exact._riszero(want, k)
    reference = SimpleNamespace(ctx=ctx, raw=want, depth=k)
    for bits in (32, 64):
        assert (z.interval(bits).lo, z.interval(bits).hi) == _reference_interval(reference, bits)
    assert format_number(z) == _reference_format(ctx, want)


class TestFlatDifferential:
    def test_flat_contexts_are_detected(self):
        for rads in FLAT_RADICANDS:
            ctx = _flat_ctx(rads)
            assert ctx._prods is not None
            assert TowerReal(ctx, _random_raw(random.Random(0), ctx.depth))._num is not None
        builder = FieldBuilder()
        builder.sqrt(builder.sqrt(2) + 3)
        assert builder.ctx._prods is None
        # (15, 5): the product 75 of the two radicands is not squarefree
        assert _flat_ctx((15, 5))._prods == [1, 15, 5, 75]

    @pytest.mark.parametrize("seed", range(6))
    def test_arithmetic_matches_recursion(self, seed):
        pairs = _flat_pairs(seed)
        assert {max(x.depth, y.depth) for x, y in pairs} >= {1, 2, 3}
        for x, y in pairs:
            builder = FieldBuilder(x.ctx)
            y_in = builder.embed(y)
            ctx = builder.ctx
            k, rads = ctx.depth, ctx.radicands
            assert y_in == y
            xr = _lift(x.raw, x.depth, k)
            yr = _lift(y_in.raw, y_in.depth, k)
            assert TowerReal(x.ctx, x.raw)._num == x._num
            _check_result(x + y, ctx, exact._radd(xr, yr, k))
            _check_result(x - y, ctx, exact._rsub(xr, yr, k))
            _check_result(x * y, ctx, exact._rmul(xr, yr, k, rads))
            assert (x == y) == exact._riszero(exact._rsub(xr, yr, k), k)
            assert (x - y).sign() == exact._rsign(exact._rsub(xr, yr, k), k, rads)
            if exact._riszero(yr, k):
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                want = exact._rmul(xr, exact._rinv(yr, k, rads), k, rads)
                _check_result(x / y, ctx, want)

    def test_near_zero_signs_take_the_exact_fallback(self, monkeypatch):
        calls = []
        reference_vsign = exact._vsign

        def counting_vsign(v, prods):
            calls.append(len(v))
            return reference_vsign(v, prods)

        monkeypatch.setattr(exact, "_vsign", counting_vsign)

        def pell(d, x1, y1, count):
            """Solutions of x**2 - d*y**2 = 1 past 2**40, where x - y*sqrt(d)
            = 1/(x + y*sqrt(d)) is too small for a 64-bit enclosure."""
            out, x, y = [], x1, y1
            while len(out) < count:
                if x > 1 << 40:
                    out.append((x, y))
                x, y = x1 * x + d * y1 * y, x1 * y + y1 * x
            return out

        values = []
        for rads, d, fundamental in (
            ((2,), 2, (3, 2)),
            ((2, 3), 2, (3, 2)),
            ((15,), 15, (4, 1)),
            ((15, 5), 15, (4, 1)),
            ((6, 10), 6, (5, 2)),
            ((2, 3, 5), 2, (3, 2)),
        ):
            builder = FieldBuilder()
            roots = [builder.sqrt(r) for r in rads]
            top = roots[-1]
            sols = pell(d, *fundamental, 4)
            for (p, q), (u, w) in zip(sols, sols[1:]):
                small = p - q * builder.sqrt(d)
                smaller = u - w * builder.sqrt(d)
                values += [small, -small, Fraction(p, q) - builder.sqrt(d)]
                if len(rads) > 1:
                    # both halves tiny and of opposite signs: the sign needs
                    # the norm one level down
                    values += [small * top - smaller, smaller - small * top, small * top + 3 * smaller]
        assert len(values) > 40
        with mpmath.workdps(400):
            for v in values:
                assert v.depth >= 1
                assert exact._vfilter(v._num, v.ctx._roots) == 0
                want = mpmath.sign(_mp_value(v.raw, v.depth, v.ctx.radicands))
                assert v.sign() == want
                assert v.sign() == exact._rsign(v.raw, v.depth, v.ctx.radicands)
        assert len(calls) >= len(values)


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
        # a rational element is interchangeable with its Fraction as a key
        assert {3: "x"}.get(KElement.from_rational(3)) == "x"
        assert len({3, KElement.from_rational(3)}) == 1
        assert hash(KElement.from_rational(Fraction(-2, 7))) == hash(Fraction(-2, 7))
        assert hash(KElement.zero()) == hash(0)

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
        assert k_membership(sqrt_adjoin(6), [8]) is None
        assert k_membership(sqrt_adjoin(6), [2, 3]) is None

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

    def test_value_of_a_nested_tower_in_k(self):
        # sqrt(5 + 2*sqrt(6)) does not denest over Q(sqrt(6)), so the
        # literal's tower keeps a nested radicand; it equals sqrt(2)+sqrt(3)
        v = parse_number("1/4*sqrt(5 + 2*sqrt(6))")
        assert v.ctx._prods is None
        m = k_membership(v, [2, 3])
        assert m == KElement([(2, Fraction(1, 4)), (3, Fraction(1, 4))])
        assert k_membership(v, [2, 5]) is None


# ---------------------------------------------------------------------------
# References for KElement and k_membership: the Fraction-dict product, the
# conjugate-loop inverse and the Gaussian elimination over flattened tower
# coordinates that they ran on before moving onto the integer vectors.


def _ref_add(x, y):
    acc = dict(x.terms)
    for d, c in y.terms:
        acc[d] = acc.get(d, 0) + c
    return KElement(acc)


def _ref_mul(x, y):
    acc = {}
    for d1, c1 in x.terms:
        for d2, c2 in y.terms:
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            acc[d] = acc.get(d, 0) + c1 * c2 * g
    return KElement(acc)


def _ref_smallest_prime_factor(n):
    p = 2
    while n % p:
        p += 1
    return p


def _ref_inverse(x):
    num, den = KElement.from_rational(1), x
    while not den.is_rational():
        # kill the smallest prime of any radicand with the sign-flipped conjugate
        p = min(_ref_smallest_prime_factor(d) for d, _ in den.terms if d > 1)
        conj = KElement([(d, -c if d % p == 0 else c) for d, c in den.terms])
        num, den = _ref_mul(num, conj), _ref_mul(den, conj)
    return _ref_mul(num, KElement.from_rational(1 / den.rational_part()))


def _ref_k_membership(value, basis):
    basis = sorted({squarefree_decompose(d)[1] for d in basis} | {1})
    builder = FieldBuilder(value.ctx)
    cols = [builder.const(1) if d == 1 else builder.sqrt(builder.const(d)) for d in basis]
    ctx = builder.ctx
    target = builder.embed(value)

    def vec(v):
        out = []
        exact._rflatten(v._lift_to(ctx), ctx.depth, out)
        return out

    matrix = [vec(builder.embed(c)) for c in cols]
    rhs = vec(target)
    n_rows, n_cols = len(rhs), len(matrix)
    aug = [[matrix[j][i] for j in range(n_cols)] + [rhs[i]] for i in range(n_rows)]
    pivots = []
    row = 0
    for col in range(n_cols):
        sel = next((i for i in range(row, n_rows) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for i in range(n_rows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
    if any(aug[i][n_cols] != 0 for i in range(row, n_rows)):
        return None
    coeffs = {d: Fraction(0) for d in basis}
    for r, c in pivots:
        coeffs[basis[c]] = aug[r][n_cols]
    result = KElement(list(coeffs.items()))
    if not (result.to_tower() - value).is_zero():
        return None
    return result


# squarefree radicands with up to four primes, plus 8 and 12, which fold
# onto 2 and 3
K_RADICANDS = (1, 2, 3, 5, 6, 10, 15, 30, 105, 8, 12)


def _random_k(rng):
    if rng.random() < 0.1:
        return KElement.zero()
    terms = [
        (rng.choice(K_RADICANDS), Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        for _ in range(rng.randint(1, 4))
    ]
    return KElement(terms)


class TestKElementDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_arithmetic_matches_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            x, y = _random_k(rng), _random_k(rng)
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert x + y == _ref_add(x, y)
            assert x - y == _ref_add(x, -y)
            assert x * y == _ref_mul(x, y)
            assert q - x == _ref_add(KElement.from_rational(q), -x)
            assert x * q == _ref_mul(x, KElement.from_rational(q))
            if y.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                assert y.inverse() == _ref_inverse(y)
                assert x / y == _ref_mul(x, _ref_inverse(y))
            if q and not x.is_zero():
                assert q / x == _ref_mul(KElement.from_rational(q), _ref_inverse(x))

    @pytest.mark.parametrize("order", [(6, 10), (15, 5), (3, 2)])
    def test_k_membership_matches_reference(self, order):
        rng = random.Random(sum(order))
        builder = FieldBuilder()
        r1, r2 = builder.sqrt(order[0]), builder.sqrt(order[1])
        bases = ([1, 2, 3, 5], [6, 10, 15], [8], [2, 3], [2, 3, 5], [15], [1], [order[0]])
        for _ in range(8):
            c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            if rng.random() < 0.5:
                c[3] = Fraction(0)
            v = c[0] + c[1] * r1 + c[2] * r2 + c[3] * r1 * r2
            for basis in bases:
                assert k_membership(v, basis) == _ref_k_membership(v, basis)

    @pytest.mark.parametrize("basis", [(1, 2, 3, 5), (1, 2, 3, 5, 7)])
    def test_k_membership_of_named_triangle_sides(self, basis):
        squares = [
            (1, 1),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(3, 4), Fraction(1, 4)),
            (Fraction(49, 64), Fraction(9, 16)),
            (Fraction(4, 5), Fraction(1, 5)),
        ]
        sides = [sqrt_adjoin(s) for pair in squares for s in pair]
        sides.append(parse_number("1/4*sqrt(5 + 2*sqrt(6))"))
        for side in sides:
            want = _ref_k_membership(side, basis)
            assert want is not None
            assert k_membership(side, basis) == want


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
