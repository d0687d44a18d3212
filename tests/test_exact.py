import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicut import exact, literals
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

import tower_reference as ref


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

    def test_comparisons_with_foreign_operands(self):
        r2 = sqrt_adjoin(2)
        for compare in (lambda: r2 < 1.5, lambda: r2 <= 1.5, lambda: r2 > 1.5,
                        lambda: r2 >= 1.5, lambda: 1.5 < r2):
            with pytest.raises(TypeError, match="not supported between instances"):
                compare()
        assert sorted([r2, 1, Fraction(3, 2)]) == [1, r2, Fraction(3, 2)]
        assert Fraction(1) < r2 and 2 >= r2 and not (Fraction(3, 2) <= r2)

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
        with mpmath.workprec(256):
            want = float(mpmath.sqrt(2) - mpmath.mpf(p) / q)
        assert abs(float(x) - want) <= math.ulp(want)

    def test_float_of_a_tiny_value_with_large_coefficients(self):
        # a 77-bit Pell convergent, p^2 - 2 q^2 = -1: q*sqrt(2) - p is about
        # 4.47e-24, far below the width of a 64-bit enclosure of q*sqrt(2)
        p, q = 111760107268250945908601, 79026329715516201199301
        assert p * p - 2 * q * q == -1
        x = q * sqrt_adjoin(2) - p
        with mpmath.workprec(512):
            want = float(q * mpmath.sqrt(2) - p)
        assert 4.47e-24 < want < 4.48e-24
        assert abs(float(x) - want) <= math.ulp(want)
        assert abs(float(-x) + want) <= math.ulp(want)
        assert abs(float(KElement([(1, -p), (2, q)])) - want) <= math.ulp(want)
        assert float(x - x) == 0.0

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
        # depth 2 to 6, the paper's generic sides among them, with stored
        # radicand vectors shorter than their level
        deep = _nested_values(seed)
        assert any(len(R) < 1 << i for v in deep for i, (R, _) in enumerate(v.ctx._rads))
        for v in values + deep:
            for bits in (32, 64, 128):
                iv = v.interval(bits)
                assert isinstance(iv, RatInterval)
                assert (iv.lo, iv.hi) == _reference_interval(v, bits)

    @pytest.mark.parametrize("seed", range(4))
    def test_views_round_trip(self, seed):
        """The nested-pair views, which the benchmark's fingerprints hash, give
        back every interned context and every value."""
        values = _seeded_towers(seed) + _nested_values(seed)
        for ctx in list(exact.TowerContext._interned.values()):
            assert ref.context(ctx.radicands) is ctx
        for v in values:
            w = ref.value(v.ctx, v.raw)
            assert w == v and (w.ctx, w._num, w._den) == (v.ctx, v._num, v._den)

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
# Fraction-leaf path in tower_reference.

FLAT_RADICANDS = [(2,), (3, 2), (2, 3, 5), (5, 7, 2), (15, 5), (6, 10)]


def _nested(ctx) -> bool:
    """Whether ``ctx`` has a radicand that is not a rational integer: its
    mask table covers only a proper prefix of the tower."""
    return len(ctx._prods) < 1 << ctx.depth


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
        return (_random_raw(rng, k - 1), ref.rconst(Fraction(0), k - 1))
    return (_random_raw(rng, k - 1), _random_raw(rng, k - 1))


def _reference_format(ctx, raw):
    """``format_number`` as it read the coordinates off the raw form."""
    ds = [ref.rasfrac(rad, i).numerator for i, rad in enumerate(ctx.radicands)]
    coords = []
    ref.rflatten(raw, ctx.depth, coords)
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
    two contexts over the same radicands adjoined in different orders,
    rationals on either side of a vector, int and Fraction operands on
    either side, and pairs whose sum or difference cancels to a prefix or to
    zero.  An operand may be a plain int or Fraction, never both."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    pairs = []
    for rads in FLAT_RADICANDS:
        ctx = _flat_ctx(rads)
        for _ in range(3):
            j = rng.randrange(ctx.depth + 1)
            x = ref.value(ctx, _random_raw(rng, ctx.depth))
            y = ref.value(ctx, _random_raw(rng, ctx.depth))
            z = ref.value(ctx.prefix(j), _random_raw(rng, j))
            r = R(rational())
            pairs += [(x, y), (x, z), (z, x), (x, TowerReal.from_rational(rng.randint(-5, 5)))]
            pairs += [(r, x), (r, r - x), (x, rng.randint(-5, 5)), (rng.randint(-5, 5), x)]
            pairs += [(x, rational()), (rational(), x), (x, x), (x, -x), (x, z - x), (x, x - z)]
        if len(rads) > 1:
            other = _flat_ctx(rads[::-1])
            x = ref.value(ctx, _random_raw(rng, ctx.depth))
            y = ref.value(other, _random_raw(rng, other.depth))
            pairs += [(x, y), (y, x)]
    for _ in range(4):
        d = rng.randint(1, 6)
        pairs += [(R(rational()), R(rational())), (R(Fraction(rng.randint(-9, 9), d)), R(Fraction(rng.randint(-9, 9), d)))]
        pairs += [(R(rational()), rational()), (rational(), R(rational())), (R(rational()), rng.randint(-3, 3))]
    # sums and differences that reduce: equal denominators, unequal ones, zero
    pairs += [(R(Fraction(3, 7)), R(Fraction(4, 7))), (R(Fraction(1, 6)), R(Fraction(1, 3)))]
    pairs += [(R(Fraction(5, 12)), R(Fraction(-5, 12))), (R(Fraction(5, 12)), Fraction(5, 12)), (2, R(0))]
    return pairs


def _check_result(z, ctx, want):
    """z, computed on integer vectors, against the raw result ``want``."""
    k = ctx.depth
    assert ref.lift(z.raw, z.depth, k) == want
    assert z.ctx is ctx.prefix(ref.strip(want, k)[1])
    assert ref.value(ctx, want) == z
    assert z.sign() == ref.rsign(want, k, ctx.radicands)
    assert z.is_zero() == ref.riszero(want, k)
    reference = SimpleNamespace(ctx=ctx, raw=want, depth=k)
    for bits in (32, 64):
        assert (z.interval(bits).lo, z.interval(bits).hi) == _reference_interval(reference, bits)
    assert format_number(z) == _reference_format(ctx, want)


class TestFlatDifferential:
    def test_flat_contexts_are_detected(self):
        for rads in FLAT_RADICANDS:
            ctx = _flat_ctx(rads)
            assert not _nested(ctx) and ctx._roots is not None
            assert ref.value(ctx, _random_raw(random.Random(0), ctx.depth))._num is not None
        builder = FieldBuilder()
        builder.sqrt(builder.sqrt(2) + 3)
        assert _nested(builder.ctx)
        # (15, 5): the product 75 of the two radicands is not squarefree
        assert _flat_ctx((15, 5))._prods == [1, 15, 5, 75]

    @pytest.mark.parametrize("seed", range(6))
    def test_arithmetic_matches_recursion(self, seed):
        pairs = _flat_pairs(seed)
        values = [(exact.exactify(x), exact.exactify(y)) for x, y in pairs]
        assert {max(x.depth, y.depth) for x, y in values} >= {0, 1, 2, 3}
        for (x, y), (tx, ty) in zip(pairs, values):
            builder = FieldBuilder(tx.ctx)
            y_in = builder.embed(ty)
            ctx = builder.ctx
            k, rads = ctx.depth, ctx.radicands
            assert y_in == y
            xr = ref.lift(tx.raw, tx.depth, k)
            yr = ref.lift(y_in.raw, y_in.depth, k)
            assert ref.value(tx.ctx, tx.raw)._num == tx._num
            _check_result(x + y, ctx, ref.radd(xr, yr, k))
            _check_result(x - y, ctx, ref.rsub(xr, yr, k))
            _check_result(x * y, ctx, ref.rmul(xr, yr, k, rads))
            assert (x == y) == ref.riszero(ref.rsub(xr, yr, k), k)
            assert (x - y).sign() == ref.rsign(ref.rsub(xr, yr, k), k, rads)
            if ref.riszero(yr, k):
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                want = ref.rmul(xr, ref.rinv(yr, k, rads), k, rads)
                _check_result(x / y, ctx, want)

    def test_near_zero_signs_take_the_exact_fallback(self, monkeypatch):
        calls = []
        reference_vsign = exact._vsign

        def counting_vsign(v, ctx):
            calls.append(len(v))
            return reference_vsign(v, ctx)

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
                assert v.sign() == ref.rsign(v.raw, v.depth, v.ctx.radicands)
        assert len(calls) >= len(values)


# ---------------------------------------------------------------------------
# Integer vectors on nested towers, checked against the Fraction-leaf
# recursion in tower_reference: arithmetic, decisions, the raw view, the
# literal form, and the radicands FieldBuilder adjoins.


def _nested_values(seed: int) -> list:
    """Seeded values of nested towers of depth 2 to 6: kernel-shaped
    v + sqrt(v*v + 1), the non-denesting sqrt(5 + 2*sqrt(6)) and
    sqrt(3 + sqrt(5)), the paper's generic sides, and their products and
    sums, merged across radicand orders."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 9))

    def kernel_shaped(radicands, builder=None):
        sqrt = builder.sqrt if builder is not None else sqrt_adjoin
        v = R(coeff())
        for r in radicands:
            v = v + coeff() * sqrt(r)
        return v + sqrt(v * v + 1)

    rads = rng.sample((2, 3, 5, 7), 3)
    a = parse_number("1/2*sqrt(1 + sqrt(2))")
    b = parse_number("1/2*sqrt(1 + sqrt(3))")
    values = [
        kernel_shaped(rads[:1]),
        kernel_shaped(rads[:2]),
        kernel_shaped(rads),
        kernel_shaped(rads[1::-1]),
        coeff() * parse_number("sqrt(5 + 2*sqrt(6))") + coeff(),
        coeff() * parse_number("sqrt(3 + sqrt(5))") + coeff() * sqrt_adjoin(5),
        a,
        b,
        coeff() * a + coeff() * b,
    ]
    x, y = values[1], values[3]  # one radicand set, adjoined in two orders
    values += [x + y, x * y - coeff(), (x + b) * y, a * b + kernel_shaped(rads[:1])]
    values.append(x * kernel_shaped((rads[2], 11)) + coeff())  # two nested chains
    shared = FieldBuilder()
    z = kernel_shaped(rads[:2], shared)
    values += [z, kernel_shaped(rads[:2], shared) * z + coeff()]  # depth 4 in one chain
    return values


def _nested_pairs(seed: int) -> list:
    """(x, y) pairs: one context, a value and a prefix value, and values of
    different tower chains, which the product merges."""
    rng = random.Random(seed + 100)
    values = _nested_values(seed)
    pairs = []
    for x in values:
        k = rng.randrange(x.depth)
        lower = ref.value(x.ctx.prefix(k), _random_raw(rng, k))
        same = ref.value(x.ctx, _random_raw(rng, x.depth))
        pairs.append((x, lower) if len(pairs) % 2 else (lower, x))
        if x.depth <= 4:  # the reference recursion is slow above
            pairs += [(x, same), (x, x), (x, R(rng.randint(-4, 4)))]
    pairs += [(values[i], values[j]) for i, j in ((0, 3), (1, 3), (2, 6), (6, 7), (4, 5), (9, 0))]
    return pairs


def _embed_shapes() -> dict:
    """(x, y) pairs whose merge embeds y into x's chain, by the shape of the
    merge: flat chains in reversed orders, a nested tower into a reversed
    flat chain, nested towers whose top radicands differ, a denested
    radicand, a source radicand that denests only in the destination, and
    vectors with zero halves."""

    def chain(*radicands):
        builder = FieldBuilder()
        return [builder.sqrt(r) for r in radicands]

    s2, s3 = chain(2, 3)
    t3, t2 = chain(3, 2)
    u2, u3, u5 = chain(2, 3, 5)
    v5, v3, v2 = chain(5, 3, 2)
    builder = FieldBuilder()
    w2, w3 = builder.sqrt(2), builder.sqrt(3)
    w = builder.sqrt(1 + w2 + w3)  # nested over (2, 3)
    n2, n3 = parse_number("sqrt(1 + sqrt(2))"), parse_number("sqrt(3 + sqrt(2))")
    return {
        "flat 23 into 32": (t3 - t2 / 7 + t2 * t3, 1 + s2 / 3 - 2 * s3 + 5 * s2 * s3),
        "flat 235 into 532": (v5 + v3 * v2, u2 - 3 * u3 * u5 + u2 * u3 * u5 / 4),
        "nested into reversed flat": (t3 + t2, w * w2 - 3 * w + w3),
        "nested tops differ": (n2 + 1, 2 * n3 - 5),
        "denested sqrt(3 + 2*sqrt(2))": (t3 - 1, 3 + 2 * s2),
        "radicand denests in destination": (s2 + s3, parse_number("sqrt(5 + 2*sqrt(6))") + 1),
        "zero low half": (t3 + t2, 2 * w3 * w),
        "zero inner halves": (t3, 5 + w),
    }


def _reference_embed(x, y):
    """(radicands, raw of y, depth of y) for y embedded in x's chain."""
    builder = ref.ReferenceBuilder(x.ctx.radicands)
    raw, k = builder.embed((y.raw, y.depth), y.ctx.radicands)
    return builder.rads, raw, k


def _check_embed(x, y):
    """y embedded into x's chain against the recursion: the same radicands,
    compared as tuples and so in adjoin order, and the same vector.
    Returns the destination context and y there."""
    builder = FieldBuilder(x.ctx)
    y_in = builder.embed(y)
    want_rads, want_raw, want_k = _reference_embed(x, y)
    assert builder.ctx.radicands == want_rads
    assert y_in.ctx.radicands == want_rads[:want_k] and y_in.raw == want_raw
    assert (list(y_in._num), y_in._den) == ref.vector(want_raw, want_k)
    assert y_in == y
    return builder.ctx, y_in


def _check_sqrt(ctx, arg):
    """``FieldBuilder(ctx).sqrt(arg)`` against the recursion's."""
    builder = FieldBuilder(ctx)
    got = builder.sqrt(arg)
    reference = ref.ReferenceBuilder(ctx.radicands)
    raw, k = reference.sqrt((arg.raw, arg.depth), arg.ctx.radicands)
    assert builder.ctx.radicands == reference.rads
    assert (got.raw, got.depth) == (raw, k)
    assert got.sign() >= 0 and got * got == builder.embed(arg)


def _check_pair(x, y):
    """x op y for each operation against the recursion, over the deeper of
    one chain, else x's chain with y embedded in it."""
    if x.depth < y.depth and y.ctx.prefix(x.depth) is x.ctx:
        ctx, y_in = y.ctx, y
    else:
        ctx, y_in = _check_embed(x, y)
    k, rads = ctx.depth, ctx.radicands
    xr = ref.lift(x.raw, x.depth, k)
    yr = ref.lift(y_in.raw, y_in.depth, k)
    assert ref.value(x.ctx, x.raw)._num == x._num
    _check_nested_result(x + y, ctx, ref.radd(xr, yr, k))
    _check_nested_result(x - y, ctx, ref.rsub(xr, yr, k))
    _check_nested_result(x * y, ctx, ref.rmul(xr, yr, k, rads), (32, 64, 128))
    assert (x == y) == ref.riszero(ref.rsub(xr, yr, k), k)
    if ref.riszero(yr, k):
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _check_nested_result(x / y, ctx, ref.rmul(xr, ref.rinv(yr, k, rads), k, rads))


def _reference_terms(rads, raw, k):
    """``format_number``'s terms from the raw form: the squarefree basis
    when every nonzero coordinate sits on rational radicands, else
    p + q*sqrt(r) structurally."""
    raw, k = ref.strip(raw, k)
    coords = []
    ref.rflatten(raw, k, coords)
    terms = []
    for mask, c in enumerate(coords):
        if c:
            d = 1
            for j in range(k):
                f = ref.rasfrac(rads[j], j) if mask >> j & 1 else 1
                if f is None:
                    break
                d *= f
            else:
                terms.append((int(d), c))
                continue
            break
    else:
        return literals._k_terms(KElement(terms))
    p, q = raw
    terms = _reference_terms(rads, p, k - 1)
    q, kq = ref.strip(q, k - 1)
    if not ref.riszero(q, kq):
        root = f"sqrt({literals._join_terms(_reference_terms(rads, rads[k - 1], k - 1))})"
        qf = ref.rasfrac(q, kq)
        if qf is None:
            terms.append((1, f"({literals._join_terms(_reference_terms(rads, q, kq))})*{root}"))
        elif abs(qf) == 1:
            terms.append((1 if qf > 0 else -1, root))
        else:
            terms.append((1 if qf > 0 else -1, f"{literals._frac_str(abs(qf))}*{root}"))
    return terms


def _check_nested_result(z, ctx, want, bits=(64,)):
    """z, computed on integer vectors, against the raw result ``want``;
    ``interval`` at each precision in ``bits``."""
    k, rads = ctx.depth, ctx.radicands
    assert ref.lift(z.raw, z.depth, k) == want
    assert ctx.prefix(z.depth) is z.ctx
    assert ref.strip(want, k)[1] == z.depth
    assert z.sign() == ref.rsign(want, k, rads)
    assert z.is_zero() == ref.riszero(want, k)
    assert z.as_fraction() == ref.rasfrac(want, k)
    reference = SimpleNamespace(ctx=ctx, raw=want, depth=k)
    for b in bits:
        assert (z.interval(b).lo, z.interval(b).hi) == _reference_interval(reference, b)
    assert format_number(z) == literals._join_terms(_reference_terms(rads, want, k))


class TestNestedDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_towers_are_nested_of_depth_two_to_six(self, seed):
        values = _nested_values(seed)
        assert all(_nested(v.ctx) for v in values)
        assert {v.depth for v in values} >= {2, 3, 4, 5, 6}

    @pytest.mark.parametrize("seed", range(3))
    def test_arithmetic_matches_recursion(self, seed):
        for x, y in _nested_pairs(seed):
            _check_pair(x, y)

    @pytest.mark.parametrize("shape", list(_embed_shapes()))
    def test_embed_shapes_match_recursion(self, shape):
        x, y = _embed_shapes()[shape]
        _check_pair(x, y)
        _check_sqrt(x.ctx, y if y.sign() > 0 else -y)

    @pytest.mark.parametrize("seed", range(2))
    def test_sqrt_adjoins_what_the_recursion_adjoins(self, seed):
        rng = random.Random(seed)
        values = _nested_values(seed)
        for v in values:
            w = ref.value(v.ctx, _random_raw(rng, v.depth))
            args = [v * v, R(rng.randint(2, 30)), v if v.sign() > 0 else -v]
            if v.depth <= 4:  # the reference recursion is slow above
                args += [v * v + 1, w * w, w * w * 3]
            for arg in args:
                _check_sqrt(v.ctx, arg)

    def test_near_zero_signs_take_the_exact_fallback(self, monkeypatch):
        """Values too close to zero for the 64-bit roots, so the nested
        halving recursion decides; both halves tiny and of opposite signs
        need the norm one level down."""
        calls = []
        reference_vsign = exact._vsign

        def counting_vsign(v, ctx):
            if _nested(ctx):
                calls.append(len(v))
            return reference_vsign(v, ctx)

        monkeypatch.setattr(exact, "_vsign", counting_vsign)
        values = []
        for text in ("sqrt(1 + sqrt(2))", "sqrt(5 + 2*sqrt(6))", "sqrt(3 + sqrt(5))"):
            t = parse_number(text)
            top = sqrt_adjoin(t + 7)  # a nested level above t
            w = t - 1 if t < 2 else t - 3  # |w| < 1 < its conjugates
            for n in (30, 40, 60):
                small, smaller = w**n, w ** (n + 10)
                values += [small, -small, t.enclosure(40 + 2 * n).lo - t, small * top - smaller]
                values += [smaller - small * top, small * top + 3 * smaller]
        with mpmath.workdps(400):
            for v in values:
                assert _nested(v.ctx)
                assert exact._vfilter(v._num, exact._roots(v.ctx)) == 0
                want = mpmath.sign(_mp_value(v.raw, v.depth, v.ctx.radicands))
                assert want != 0
                assert v.sign() == want == ref.rsign(v.raw, v.depth, v.ctx.radicands)
        assert len(values) == 54
        assert len(calls) >= len(values)

    def test_roots_of_nested_contexts(self):
        """roots[m] <= 2**64 * (product of the t_i picked by m) < roots[m] + 1."""
        for v in _nested_values(0):
            ctx = v.ctx
            roots = exact._roots(ctx)
            assert len(roots) == 1 << ctx.depth and roots[0] == 1 << 64
            with mpmath.workdps(120):
                ts = [mpmath.sqrt(_mp_value(r, i, ctx.radicands)) for i, r in enumerate(ctx.radicands)]
                for m, root in enumerate(roots):
                    x = mpmath.mpf(2) ** 64
                    for i, t in enumerate(ts):
                        if m >> i & 1:
                            x *= t
                    assert root <= x < root + 1

    def test_float_bounds_enclose_nested_values(self):
        for v in _nested_values(1):
            for x in (v, v * v - 3, 1 / v):
                lo, hi = exact._float_bounds(x)
                iv = x.interval(128)
                assert lo <= iv.lo and iv.hi <= hi
                assert hi - lo <= 1e-12 * max(1.0, abs(lo))


# ---------------------------------------------------------------------------
# The nested product against the halves recursion it ran before it stopped
# at the flat prefix: four half products per level, down to level 0.


def _hmul_uncut(x, y, k, rads, scales):
    """S_k * x * y over a nested context by halves all the way down."""
    if len(y) == 1:
        c = y[0] * scales[k]
        return [a * c for a in x]
    h = 1 << (k - 1)
    R, e = rads[k - 1]
    c = scales[k - 1] * e
    p1, q1, p2, q2 = x[:h], x[h:], y[:h], y[h:]
    low = [a * c for a in _hmul_uncut(p1, p2, k - 1, rads, scales)]
    high = _hmul_uncut(q1, p2, k - 1, rads, scales)
    if q2:
        qq = _hmul_uncut(q1, q2, k - 1, rads, scales)
        low = [a + b for a, b in zip(low, _hmul_uncut(qq, R, k - 1, rads, scales))]
        high = [a + b for a, b in zip(high, _hmul_uncut(p1, q2, k - 1, rads, scales))]
    return low + [a * c for a in high]


def _product_uncut(ctx, x, y):
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1:
        return [a * y[0] for a in x], 1
    k = (len(x) - 1).bit_length()
    return _hmul_uncut(x, y, k, ctx._rads, ctx._scales), ctx._scales[k]


def _cut_contexts():
    """Nested contexts by the length j of their flat prefix: j = 0 with a
    first radicand 1/2 (e = 2) and a rational radicand above a nested one,
    j = 1 with e = 3 on the nested level, j = 2 as in the paper's generic
    sides, and j = 3 under two nested levels."""
    one = Fraction(1)
    three = ref.rconst(Fraction(3), 2)
    out = {0: ref.context((Fraction(1, 2), (one, one), three))}
    for j, build in (
        (1, lambda b: [b.sqrt(2), b.sqrt(Fraction(1, 3) + b.sqrt(2)) + 5]),
        (2, lambda b: [b.sqrt(2), b.sqrt(3), b.sqrt(1 + b.sqrt(2)), b.sqrt(1 + b.sqrt(3))]),
        (3, lambda b: [b.sqrt(2), b.sqrt(3), b.sqrt(5), b.sqrt(7 + b.sqrt(6) * b.sqrt(5))]),
    ):
        builder = FieldBuilder()
        values = build(builder)
        builder.sqrt(values[-1] * values[-1] + values[0])
        out[j] = builder.ctx
    return out


def _random_vector(rng, n):
    """n integer coordinates: small and large, negative, with zeros and
    sometimes a whole zero half."""
    v = [rng.choice((0, rng.randint(-9, 9), rng.randint(-(1 << 70), 1 << 70))) for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        h = n >> 1
        lo, hi = (0, h) if rng.random() < 0.5 else (h, n)
        v[lo:hi] = [0] * (hi - lo)
    return v


class TestProductCutoff:
    """``_product`` over nested contexts, which halves only down to the flat
    prefix and there multiplies by masks, against the uncut recursion."""

    def test_flat_prefix_of_each_context(self):
        contexts = _cut_contexts()
        for j, ctx in contexts.items():
            assert _nested(ctx) and len(ctx._prods) == 1 << j, j
            assert not _nested(ctx.prefix(j)) and _nested(ctx.prefix(j + 1)), j
            assert ctx.depth >= j + 2
            assert ctx._prods == ctx.prefix(j)._prods
            rs = [R[0] for R, _ in ctx._rads[:j]]
            want = [math.prod(r for i, r in enumerate(rs) if m >> i & 1) for m in range(1 << j)]
            assert ctx._prods == want
            assert ctx._scales[: j + 1] == [1] * (j + 1)
        assert contexts[0]._prods == [1] and contexts[0]._rads[0] == ((1,), 2)
        assert contexts[1]._rads[1][1] == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_products_match_the_uncut_recursion(self, seed):
        rng = random.Random(seed)
        for j, ctx in _cut_contexts().items():
            k = ctx.depth
            for _ in range(40):
                kx = rng.randint(1, k)
                ky = rng.randint(0, kx)  # y as long as x, or shorter
                x, y = _random_vector(rng, 1 << kx), _random_vector(rng, 1 << ky)
                want = _product_uncut(ctx, x, y)
                assert exact._product(ctx, x, y) == want, (j, kx, ky)
                assert exact._product(ctx, y, x) == want, (j, kx, ky)

    @pytest.mark.parametrize("seed", range(2))
    def test_values_and_intervals_match(self, seed):
        """``*`` and ``/`` on values give what the uncut products give, to
        the same ``interval(bits)`` endpoints."""
        rng = random.Random(seed + 10)
        for ctx in _cut_contexts().values():
            k = ctx.depth
            for _ in range(6):
                x = exact._vector_value(ctx, _random_vector(rng, 1 << k), rng.randint(1, 50))
                y = exact._vector_value(ctx, _random_vector(rng, 1 << rng.randint(0, k)), 7)
                z, s = _product_uncut(ctx, list(x._num), list(y._num))
                want = exact._vector_value(ctx, z, s * x._den * y._den)
                got = x * y
                assert (got.ctx, got._num, got._den) == (want.ctx, want._num, want._den)
                for bits in (32, 64, 128):
                    assert (got.interval(bits).lo, got.interval(bits).hi) == (
                        want.interval(bits).lo,
                        want.interval(bits).hi,
                    )
                if not y.is_zero():
                    assert (x / y) * y == x
                    assert got.sign() == exact._vsign(want._num, want.ctx)

    def test_the_cutoff_runs_and_flat_contexts_keep_their_path(self, monkeypatch):
        ctx, flat = _cut_contexts()[2], _flat_ctx((2, 3, 5))
        calls = []
        vmul = exact._vmul

        def counting_vmul(x, y, prods):
            calls.append((len(x), prods))
            return vmul(x, y, prods)

        monkeypatch.setattr(exact, "_vmul", counting_vmul)
        x = list(range(1, 1 + (1 << ctx.depth)))
        exact._product(ctx, x, x)
        # the halves recursion stops at level j = 2: no product above or below it
        assert calls and all(n == 4 and p is ctx._prods for n, p in calls)
        assert len(calls) < 4 ** (ctx.depth - 2) + 1

        hmul, hmul_levels = exact._hmul, []

        def counting_hmul(x, y, k, c):
            hmul_levels.append(k)
            return hmul(x, y, k, c)

        monkeypatch.setattr(exact, "_hmul", counting_hmul)
        calls.clear()
        assert exact._product(flat, [1, 2, 3, 4, 5, 6, 7, 8], [1, -1]) == (
            vmul([1, 2, 3, 4, 5, 6, 7, 8], [1, -1], flat._prods),
            1,
        )
        # a flat product is one mask product over the whole tower, no halves
        assert hmul_levels == [3]
        assert len(calls) == 1 and calls[0][0] == 8 and calls[0][1] is flat._prods


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


def _routed_operands(seed: int) -> list:
    """(ctx, x, y) with x and y over the one context ``ctx`` or rational,
    where a rational may be a plain int or Fraction; never both plain."""
    rng = random.Random(seed)
    contexts = [_flat_ctx(rads) for rads in FLAT_RADICANDS]
    contexts += [v.ctx for v in _nested_values(seed) if v.depth <= 4]
    cases = []
    for ctx in contexts:
        x, y = [v for v in (ref.value(ctx, _random_raw(rng, ctx.depth)) for _ in range(8)) if v.ctx is ctx][:2]
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for a, b in ((x, y), (y, x), (x, x), (x, -x), (x, R(q)), (R(q), x), (x, 3), (-2, x), (x, q), (q, x), (x, 0)):
            cases.append((ctx, a, b))
    q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    rationals = ((R(q), R(Fraction(5, 6))), (R(Fraction(1, 6)), R(Fraction(1, 3))), (R(q), 4), (Fraction(-3, 4), R(q)), (R(q), R(0)))
    cases += [(_flat_ctx(()), a, b) for a, b in rationals]
    return cases


def _raising(*args):
    raise AssertionError("merged or embedded")


def _check_routed(z, ctx, want):
    """``_check_nested_result``, and z's integers are the canonical ones."""
    _check_nested_result(z, ctx, want)
    w = ref.value(ctx, want)
    assert (z.ctx, z._num, z._den) == (w.ctx, w._num, w._den)


class TestOperandRoutes:
    """Operands over one context, or with a rational among them, combine
    without a merge; operands over different contexts still merge."""

    @pytest.mark.parametrize("seed", range(3))
    def test_same_context_and_rational_operands_need_no_merge(self, monkeypatch, seed):
        cases = _routed_operands(seed)
        results = []
        with monkeypatch.context() as patched:
            patched.setattr(TowerReal, "_merge", staticmethod(_raising))
            patched.setattr(FieldBuilder, "embed", _raising)
            for ctx, x, y in cases:
                out = [x + y, x - y, x * y]
                try:
                    out.append(x / y)
                except ZeroDivisionError:
                    out.append(None)
                out.append(x == y)
                results.append(out)
        for (ctx, x, y), (total, diff, prod, quot, equal) in zip(cases, results):
            k, rads = ctx.depth, ctx.radicands
            tx, ty = exact.exactify(x), exact.exactify(y)
            xr, yr = ref.lift(tx.raw, tx.depth, k), ref.lift(ty.raw, ty.depth, k)
            _check_routed(total, ctx, ref.radd(xr, yr, k))
            _check_routed(diff, ctx, ref.rsub(xr, yr, k))
            _check_routed(prod, ctx, ref.rmul(xr, yr, k, rads))
            assert equal == ref.riszero(ref.rsub(xr, yr, k), k)
            if ref.riszero(yr, k):
                assert quot is None
            else:
                _check_routed(quot, ctx, ref.rmul(xr, ref.rinv(yr, k, rads), k, rads))

    def test_different_chains_still_merge(self, monkeypatch):
        merges = []
        merge = TowerReal._merge

        def counting_merge(a, b):
            merges.append((a.ctx, b.ctx))
            return merge(a, b)

        s2, s3 = _flat_ctx((2, 3)), _flat_ctx((3, 2))
        x = ref.value(s2, ((Fraction(1), Fraction(2, 3)), (Fraction(-5), Fraction(1, 4))))
        y = ref.value(s3, ((Fraction(7, 2), Fraction(0)), (Fraction(-1, 3), Fraction(2))))
        assert x.ctx is s2 and y.ctx is s3
        with monkeypatch.context() as patched:
            patched.setattr(TowerReal, "_merge", staticmethod(counting_merge))
            total, diff, prod, quot, equal = x + y, x - y, x * y, x / y, x == y
        # + - * / and == each merge once; the embedding inside merges prefixes
        assert merges.count((s2, s3)) == 5
        ctx, y_in = _check_embed(x, y)
        k, rads = ctx.depth, ctx.radicands
        xr, yr = ref.lift(x.raw, x.depth, k), ref.lift(y_in.raw, y_in.depth, k)
        _check_nested_result(total, ctx, ref.radd(xr, yr, k))
        _check_nested_result(diff, ctx, ref.rsub(xr, yr, k))
        _check_nested_result(prod, ctx, ref.rmul(xr, yr, k, rads))
        _check_nested_result(quot, ctx, ref.rmul(xr, ref.rinv(yr, k, rads), k, rads))
        assert not equal


def _count_roots(monkeypatch) -> dict:
    """From here on, the number of ``FieldBuilder.sqrt`` calls and the
    arguments, as (numerators, denominator), of every ``_sqrt_try`` call,
    its own recursive calls included."""
    calls = {"sqrt": 0, "sqrt_try": []}
    sqrt, sqrt_try = FieldBuilder.sqrt, exact._sqrt_try

    def counting_sqrt(self, value):
        calls["sqrt"] += 1
        return sqrt(self, value)

    def counting_sqrt_try(x, ctx):
        calls["sqrt_try"].append((x._num, x._den))
        return sqrt_try(x, ctx)

    monkeypatch.setattr(FieldBuilder, "sqrt", counting_sqrt)
    monkeypatch.setattr(exact, "_sqrt_try", counting_sqrt_try)
    return calls


def _counted_embed(monkeypatch, builder, value) -> tuple[TowerReal, dict]:
    """``builder.embed(value)`` against the recursion, the same radicands
    and raw value: the same result context, by identity, the same vector
    and the same final builder context.  Returns the result and its
    ``_count_roots`` counts."""
    reference = ref.ReferenceBuilder(builder.ctx.radicands)
    raw, k = reference.embed((value.raw, value.depth), value.ctx.radicands)
    calls = _count_roots(monkeypatch)
    got = builder.embed(value)
    want_ctx = ref.context(reference.rads)
    want = ref.value(want_ctx.prefix(k), raw)
    assert builder.ctx is want_ctx
    assert (got.ctx, got._num, got._den) == (want.ctx, want._num, want._den)
    return got, calls


def _check_repeat_merge(monkeypatch, start, value, first, first_ctx):
    """An identical second merge of ``value`` into a builder over ``start``,
    after a first that gave ``first`` and left its builder at ``first_ctx``:
    no root and no denesting search, and the same result and builder
    context as the first."""
    builder = FieldBuilder(start)
    again, calls = _counted_embed(monkeypatch, builder, value)
    assert calls == {"sqrt": 0, "sqrt_try": []}
    assert builder.ctx is first_ctx
    assert again.ctx is first.ctx and (again._num, again._den) == (first._num, first._den)


class TestEmbedRoots:
    """``FieldBuilder.embed`` takes one root per source level on the first
    merge of a context pair, and a source radicand already in the
    destination chain never reaches the denesting search; a repeat merge of
    the pair takes no root at all.  Each test adjoins primes that no other
    test adjoins, so its first merge is the first."""

    @pytest.mark.parametrize("k", range(2, 6))
    def test_flat_value_takes_one_root_per_level(self, monkeypatch, k):
        primes = (251, 257, 263, 269, 271)[:k]
        src, dst = FieldBuilder(), FieldBuilder()
        roots = [src.sqrt(p) for p in primes]
        for p in reversed(primes):
            dst.sqrt(p)
        start = dst.ctx
        value = sum((i + 1) * t for i, t in enumerate(roots)) + roots[0] * roots[-1] / 3
        first, calls = _counted_embed(monkeypatch, dst, value)
        assert value.depth == k and calls == {"sqrt": k, "sqrt_try": []}
        assert dst.ctx is start
        _check_repeat_merge(monkeypatch, start, value, first, dst.ctx)

    def test_nested_value_takes_one_root_per_level(self, monkeypatch):
        src, dst = FieldBuilder(), FieldBuilder()
        t2, t3 = src.sqrt(277), src.sqrt(281)
        w = src.sqrt(1 + t2 + t3)
        u3, u2 = dst.sqrt(281), dst.sqrt(277)
        dst.sqrt(1 + u2 + u3)
        start = dst.ctx
        value = w * t2 * t3 - 5 * w + t3
        first, calls = _counted_embed(monkeypatch, dst, value)
        assert value.depth == 3 and calls == {"sqrt": 3, "sqrt_try": []}
        assert dst.ctx is start
        _check_repeat_merge(monkeypatch, start, value, first, dst.ctx)

    def test_missing_radicands_adjoin_as_before(self, monkeypatch):
        """(101, 103, 1 + sqrt(101)) into (103,): 103 is found by lookup, and
        101 and 1 + sqrt(101) are adjoined after it, as the recursion adjoins
        them.  The first merge proves both non-squares by denesting; an
        identical second merge reuses its roots and context.  No other test
        adjoins these radicands, so the first merge is the first."""
        src = FieldBuilder()
        t101, t103 = src.sqrt(101), src.sqrt(103)
        value = 4 * src.sqrt(1 + t101) + t103 + 1
        dst = FieldBuilder()
        dst.sqrt(103)
        start = dst.ctx
        first, calls = _counted_embed(monkeypatch, dst, value)
        assert value.depth == 3 and calls["sqrt"] == 3
        assert calls["sqrt_try"] and ((103,), 1) not in calls["sqrt_try"]
        assert dst.ctx.radicands[:2] == (Fraction(103), ref.rconst(Fraction(101), 1))
        assert dst.ctx.depth == 3
        _check_repeat_merge(monkeypatch, start, value, first, dst.ctx)


# The merging tower shapes of the benchmark's kernel workload (bench/workloads.py,
# KERNEL_TRIPLES): for x, y and z, the radicands in adjoin order and whether the
# tower ends with a nested sqrt(v*v + 1).  Radicand i stands for the shape's
# i-th prime, so each shape adjoins radicands that nothing else in the suite does.
_KERNEL_MERGE_SHAPES = [
    (((0, 1), 0), ((1, 0), 0), ((0, 1), 0)),
    (((0, 1, 2), 0), ((2, 1, 0), 0), ((1, 2, 0), 0)),
    (((0,), 1), ((1,), 0), ((0, 1), 0)),
    (((0, 1), 1), ((1, 0), 0), ((0,), 0)),
    (((0, 1), 1), ((1, 0), 1), ((0, 1), 0)),
    (((0,), 1), ((0,), 1), ((1,), 0)),
]
_SHAPE_PRIMES = [(151, 157, 163), (167, 173, 179), (181, 191, 193), (197, 199, 211),
                 (223, 227, 229), (233, 239, 241)]


def _kernel_tower(rng, primes, radicands, nested):
    """A tower as the kernel workload builds one apart: c0 + sum c_i*sqrt(p_i),
    then + sqrt(v*v + 1) if nested."""
    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 9))

    v = R(coeff())
    for i in radicands:
        v = v + coeff() * sqrt_adjoin(primes[i])
    return v + sqrt_adjoin(v * v + 1) if nested else v


def _children() -> dict:
    """The interned contexts above the base, grouped by their parent's key
    and then by top radicand."""
    out: dict = {}
    for rads, child in exact.TowerContext._interned.items():
        if rads:
            out.setdefault(rads[:-1], {})[rads[-1]] = child
    return out


class TestChildLookup:
    """A radicand that the destination chain lacks but that some earlier
    ``FieldBuilder.sqrt`` adjoined to the same context is taken from the
    interned context one level up, its child, without the denesting search,
    with the same result and context as the search gives, and with no other
    change."""

    def test_square_times_a_big_prime_square(self):
        """6*q*q over (2, 3) is the square q*sqrt(6), with or without children
        of (2, 3); factoring it before the search would raise."""
        q = 2**127 - 1
        for adjoin_children in (False, True):
            builder = FieldBuilder()
            t2, t3 = builder.sqrt(2), builder.sqrt(3)
            if adjoin_children:
                for other in (sqrt_adjoin(5), sqrt_adjoin(Fraction(2, 11)),
                              parse_number("sqrt(1 + sqrt(2))")):
                    FieldBuilder(builder.ctx).embed(other)
                assert len(_children()[builder.ctx._rads]) >= 3
            v = builder.sqrt(6 * q * q)
            assert v == q * t2 * t3 and v.depth == 2 and builder.ctx.depth == 2
        with pytest.raises(SquarefreeBoundError):
            sqrt_adjoin(q)
        with pytest.raises(SquarefreeBoundError):
            FieldBuilder(builder.ctx).sqrt(q)

    @pytest.mark.parametrize("chain", [(2,), (3,), (2, 3), (3, 2), (5, 2), (5, 3)])
    def test_rational_radicands_with_square_factors(self, monkeypatch, chain):
        """sqrt(8), sqrt(12) and sqrt(2/3) as the recursion takes them, twice;
        then a root the chain lacks is found as a child, with no search."""
        builder = FieldBuilder()
        for p in chain:
            builder.sqrt(p)
        ctx = builder.ctx
        for _ in range(2):
            for arg in (8, 12, Fraction(2, 3), 2, 3, 6):
                _check_sqrt(ctx, R(arg))
        for arg in (2, 3, 6, Fraction(2, 3)):
            calls = _count_roots(monkeypatch)
            root_builder = FieldBuilder(ctx)
            root = root_builder.sqrt(arg)
            if root_builder.ctx is not ctx:
                assert calls["sqrt_try"] == [] and root.ctx is root_builder.ctx
        assert FieldBuilder(ctx).sqrt(8) == 2 * FieldBuilder(ctx).sqrt(2)

    def test_one_child_entry_per_interned_context(self):
        """Every context above the base is its parent's child under its top
        radicand, and the intern table is all the state the lookup keeps."""
        builder = FieldBuilder()
        builder.embed(parse_number("sqrt(1 + sqrt(2))") + sqrt_adjoin(3))
        builder.sqrt(Fraction(5, 7))
        interned = exact.TowerContext._interned
        children = _children()
        for ctx in interned.values():
            if ctx.depth:
                assert children[ctx.prefix(ctx.depth - 1)._rads][ctx._rads[-1]] is ctx
        assert sum(map(len, children.values())) == len(interned) - 1

    @pytest.mark.parametrize("index", range(len(_KERNEL_MERGE_SHAPES)))
    def test_kernel_shapes_miss_then_hit(self, monkeypatch, index):
        """Each pairwise merge of a kernel triple and each root of one tower's
        value in another's chain, twice, against the recursion: the first run
        adjoins through the denesting search; in the second, each merge
        reuses the first's roots and each root comes from a child."""
        rng, primes = random.Random(index), _SHAPE_PRIMES[index]
        towers = [_kernel_tower(rng, primes, r, n) for r, n in _KERNEL_MERGE_SHAPES[index]]
        pairs = [(a, b) for a in towers for b in towers if a is not b]
        searched = []
        for _ in range(2):
            calls = _count_roots(monkeypatch)
            for a, b in pairs:
                _counted_embed(monkeypatch, FieldBuilder(a.ctx), b)
                _check_sqrt(a.ctx, b if b.sign() > 0 else -b)
            searched.append(calls["sqrt_try"])
        assert searched[0] and searched[1] == []


def _check_memo(start, value):
    """``value`` merged into a builder over ``start`` as the memo's miss (its
    entry for the pair dropped first) and then as its hit, each against the
    recursion: one result context, by identity, one vector and one final
    builder context.  The miss takes one root per source level."""
    with pytest.MonkeyPatch.context() as patched:
        start._embeds.pop(value.ctx, None)
        miss = FieldBuilder(start)
        got, calls = _counted_embed(patched, miss, value)
        prefix = value.depth <= start.depth and start.prefix(value.depth) is value.ctx
        assert calls["sqrt"] == (0 if prefix else value.depth)
        _check_repeat_merge(patched, start, value, got, miss.ctx)


# Primes for the memo's differential tests, which adjoin them in orders no
# other test does: one triple per kernel shape, then the flat and nested
# sources and the destinations of the drawn vectors.
_MEMO_SHAPE_PRIMES = [(283, 293, 307), (311, 313, 317), (331, 337, 347), (349, 353, 359),
                      (367, 373, 379), (383, 389, 397)]
_MEMO_PRIMES = (401, 409, 419, 421)


def _memo_contexts() -> tuple[dict, dict]:
    """Sources over the primes p0..p3 of ``_MEMO_PRIMES``: flat (p0, p1, p2)
    and nested (p0, p1, 1 + sqrt(p0) + sqrt(p1)).  Destinations: the two
    reversed, (p1, p0) and (p1, p0, 1 + sqrt(p1) + sqrt(p0)), and (p3,),
    which has to adjoin every source level."""
    p0, p1, p2, p3 = _MEMO_PRIMES
    flat, nested = FieldBuilder(), FieldBuilder()
    for p in (p0, p1, p2):
        flat.sqrt(p)
    nested.sqrt(1 + nested.sqrt(p0) + nested.sqrt(p1))
    reversed_flat, reversed_nested = FieldBuilder(), FieldBuilder()
    reversed_flat.sqrt(p1)
    reversed_flat.sqrt(p0)
    reversed_nested.sqrt(reversed_nested.sqrt(p1) + reversed_nested.sqrt(p0) + 1)
    sources = {"flat": flat.ctx, "nested": nested.ctx}
    destinations = {"reversed flat": reversed_flat.ctx, "reversed nested": reversed_nested.ctx,
                    "fresh": sqrt_adjoin(p3).ctx}
    return sources, destinations


class TestEmbedMemo:
    """The memo of ``FieldBuilder.embed`` against the path it replaces: for
    each value, the first merge of its context pair, a repeat merge and the
    recursion (``ReferenceBuilder.embed``) agree on the result context, the
    vector and the final builder context."""

    @pytest.mark.parametrize("index", range(len(_KERNEL_MERGE_SHAPES)))
    def test_kernel_shapes(self, index):
        rng, primes = random.Random(index), _MEMO_SHAPE_PRIMES[index]
        towers = [_kernel_tower(rng, primes, r, n) for r, n in _KERNEL_MERGE_SHAPES[index]]
        fresh = sqrt_adjoin(_MEMO_PRIMES[3]).ctx
        for b in towers:
            for start in [a.ctx for a in towers if a is not b] + [fresh]:
                _check_memo(start, b)
                _check_memo(start, b * b - 3 * b)

    @given(st.sampled_from(["flat", "nested"]),
           st.sampled_from(["reversed flat", "reversed nested", "fresh"]),
           st.lists(st.integers(-9, 9), min_size=8, max_size=8), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_drawn_vectors(self, source, destination, num, den):
        sources, destinations = _memo_contexts()
        _check_memo(destinations[destination], exact._vector_value(sources[source], num, den))


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

    def test_unfactorable_product_raises(self):
        """Both factors are primes above the trial-division bound and their
        product is above its square, so the product's radicand cannot be
        certified squarefree."""
        p, q = KElement.sqrt_of(1000003), KElement.sqrt_of(1000033)
        with pytest.raises(SquarefreeBoundError):
            p * q
        with pytest.raises(SquarefreeBoundError):
            (p + 1) * (q + 1)

    def test_radicands_sharing_a_big_prime(self):
        """2P, 3P and 5P share the prime P above the trial-division bound, so
        a product of two or three of them factors only if P**2 is taken out
        as it is read; the product is the same in either order."""
        P = 1000003
        a = KElement.sqrt_of(2 * P) + KElement.sqrt_of(3 * P) + KElement.sqrt_of(5 * P)
        cube = a * (a * a)
        assert cube == (a * a) * a == _ref_mul(a, _ref_mul(a, a))
        assert cube == KElement([(2 * P, 26 * P), (3 * P, 24 * P), (5 * P, 20 * P),
                                 (30 * P, 6 * P)])

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
        assert _nested(v.ctx)
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
        ref.rflatten(ref.lift(v.raw, v.depth, ctx.depth), ctx.depth, out)
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
