import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from interval_reference import reference_acos_interval

from equicut import exact, intervals, relations
from equicut.exact import FieldBuilder, KElement, sqrt_adjoin
from equicut.intervals import NumericReal, RatInterval, acos_numeric
from equicut.literals import parse_number
from equicut.relations import (
    MAX_LADDER_BITS,
    RelationResult,
    RelationStatus,
    SearchSpaceError,
    _canonical,
    _angle_relations,
    _Column,
    _decode,
    _start_bits,
    _sweep,
    find_angle_relation,
    find_angle_relation_pi_fractions,
    find_integer_relation,
    find_side_relation,
)
from equicut.trispace import (
    angles_from_sides,
    is_valid_side_pair,
    pi_numeric,
    sample_side_fractions,
)


class TestIntegerRelationExact:
    def test_trivial_equal_values(self):
        res = find_integer_relation([Fraction(1), Fraction(1)], 1)
        assert res.status == RelationStatus.FOUND_CERTIFIED
        assert res.witnesses == [(1, -1)]

    def test_golden_combination(self):
        # 3*sqrt(2) - 2*sqrt(3) + sqrt(6) - 5 is nonzero: no relation of
        # height 1 among these four exact values other than none at all
        vals = [3 * sqrt_adjoin(2), 2 * sqrt_adjoin(3), sqrt_adjoin(6), Fraction(5)]
        res = find_integer_relation(vals, 1)
        assert res.status == RelationStatus.NONE_UP_TO_HEIGHT
        assert res.witnesses == []

    def test_exact_relation_found(self):
        # sqrt(8) = 2*sqrt(2)
        res = find_integer_relation([sqrt_adjoin(8), sqrt_adjoin(2)], 2)
        assert res.status == RelationStatus.FOUND_CERTIFIED
        assert (1, -2) in res.witnesses

    def test_input_validation(self):
        with pytest.raises(ValueError):
            find_integer_relation([], 3)
        with pytest.raises(ValueError):
            find_integer_relation([Fraction(1)], 0)
        with pytest.raises(TypeError):
            find_integer_relation([object()], 2)

    @pytest.mark.parametrize("labels", [[], ["a"], ["a", "b", "c"]])
    def test_labels_must_match_values(self, labels):
        with pytest.raises(ValueError, match="labels must match values"):
            find_integer_relation([1, 2], 2, labels=labels)

    def test_space_size_guard(self):
        with pytest.raises(ValueError):
            find_integer_relation([Fraction(i + 1) for i in range(9)], 12)

    def test_matched_pair_guard(self):
        # six equal values have about 780 000 vanishing combinations at
        # height 8, though each half-table holds only 17**3 sums
        with pytest.raises(SearchSpaceError, match="too many near-zero"):
            find_integer_relation([Fraction(1)] * 6, 8)

    def test_value_beyond_the_float_range(self):
        with pytest.raises(SearchSpaceError, match="beyond the float range"):
            find_integer_relation([Fraction(10**400), 1], 1)


def _outer_product_sweep(columns, height):
    """The full (2H+1)**n outer-product sweep that ``_sweep`` replaced,
    kept as the reference for the differential test."""
    n = len(columns)
    mids, errs = [], []
    for col in columns:
        iv = col.enclosure(64)
        mids.append(iv.mid)
        errs.append(iv.width / 2)
    floats = [float(m) for m in mids]
    conv = [abs(Fraction(f) - m) for f, m in zip(floats, mids)]
    magnitude = sum(abs(Fraction(f)) for f in floats) * height + 1
    bound = (
        height * sum(e + c for e, c in zip(errs, conv))
        + Fraction(4 * n) * magnitude / (1 << 52)
    )
    threshold = max(Fraction(1, 10**9), 100 * bound)

    rng = np.arange(-height, height + 1, dtype=np.float64)
    acc = rng * floats[0]
    for f in floats[1:]:
        acc = np.add.outer(acc, rng * f).ravel()
    hits = np.nonzero(np.abs(acc) <= float(threshold))[0]
    decoded = []
    for coeffs in _decode(hits, n, height):
        canon = _canonical(coeffs)
        if canon is not None:
            decoded.append(canon)
    return sorted(set(decoded)), threshold


def _random_columns(rng, numeric):
    return [_Column(v) for v in _random_values(rng, numeric)]


def _random_values(rng, numeric):
    """One to five values: small rationals, some times a square root and
    some a small multiple of the value before, so that random values often
    share exact relations; numeric values may also be square roots of small
    rationals.  Each value is built exactly, and a numeric one is then
    ``NumericReal.from_exact`` of it."""
    values, exacts = [], []
    for _ in range(rng.randint(1, 5)):
        if values and rng.random() < 0.3:
            value = exacts[-1] * Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
            as_numeric = isinstance(values[-1], NumericReal)
        elif numeric and rng.random() < 0.3:
            square = Fraction(rng.choice((1, 2, 3, 8, 12)), rng.randint(1, 4))
            value, as_numeric = sqrt_adjoin(square), True
        else:
            value = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
            d = rng.choice((1, 1, 2, 3))
            if d != 1:
                value = value * sqrt_adjoin(d)
            as_numeric = numeric
        exacts.append(value)
        values.append(NumericReal.from_exact(value) if as_numeric else value)
    return values


class TestSweepMatchesOuterProduct:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("numeric", [False, True], ids=["exact", "numeric"])
    def test_same_survivors_and_threshold(self, seed, numeric):
        rng = random.Random(seed)
        columns = _random_columns(rng, numeric)
        height = rng.randint(1, 6)
        assert _sweep(columns, height) == _outer_product_sweep(columns, height)


def _reference_relation(values, height, *, labels=None, mask=None, start_bits=None):
    """``find_integer_relation`` with the certification stage it had before
    integer dot products, kept as the reference for the differential test:
    a ``TowerReal`` sum per exact survivor, and a ``RatInterval`` sum per
    pending vector at each precision rung."""
    columns = [_Column(v) for v in values]
    names = list(labels) if labels else [f"v{i}" for i in range(len(columns))]
    start = _start_bits(start_bits)
    survivors, _ = _sweep(columns, height)
    if mask is not None:
        survivors = [s for s in survivors if mask(s)]
    result = RelationResult(
        status=RelationStatus.NONE_UP_TO_HEIGHT, height=height, columns=names
    )
    if all(col.exact for col in columns):
        builder = FieldBuilder()
        embedded = [builder.embed(col.value) for col in columns]
        for coeffs in survivors:
            if sum(c * v for c, v in zip(coeffs, embedded)).is_zero():
                result.witnesses.append(coeffs)
        if result.witnesses:
            result.status = RelationStatus.FOUND_CERTIFIED
        return result
    cap = max(start, MAX_LADDER_BITS)
    rungs = []
    b = start
    while b < cap:
        rungs.append(b)
        b *= 2
    rungs.append(cap)
    result.precision_bits = start
    pending = list(survivors)
    for bits in rungs:
        if not pending:
            break
        result.precision_bits = bits
        ivs = [col.enclosure(bits) for col in columns]
        still = []
        for coeffs in pending:
            total = RatInterval(0)
            for c, iv in zip(coeffs, ivs):
                if c:
                    total = total + iv * c
            if total.contains(0):
                still.append(coeffs)
        pending = still
    if pending:
        if all(col.refinable for col in columns):
            result.candidates = pending
            result.status = RelationStatus.FOUND_CANDIDATE
        else:
            result.unresolved = pending
            result.status = RelationStatus.UNDECIDED
    return result


_RESULT_FIELDS = (
    "status", "height", "columns", "witnesses", "candidates", "unresolved",
    "memberships", "precision_bits",
)


def _assert_same_result(new, ref):
    for name in _RESULT_FIELDS:
        assert getattr(new, name) == getattr(ref, name), name


def _both(call, monkeypatch):
    """``call()`` on the integer certification and on the reference."""
    new = call()
    with monkeypatch.context() as m:
        m.setattr(relations, "find_integer_relation", _reference_relation)
        ref = call()
    return new, ref


_R2, _R3 = sqrt_adjoin(2), sqrt_adjoin(3)
_THIRD = NumericReal.from_exact(Fraction(1, 3))
_TINY = Fraction(1, 1 << 300)

# (values, height): inputs chosen for the cases random columns rarely hit
DIFFERENTIAL_CASES = {
    # exact values over different prefixes of one chain: Q, Q(sqrt 2) and
    # Q(sqrt 2, sqrt 3)
    "prefixes": ([Fraction(1, 2), _R2, _R2 * _R3, sqrt_adjoin(6), 3 * _R2 / 4], 2),
    "prefixes-reversed": ([_R2 * _R3, _R3, Fraction(-2, 3), _R2, sqrt_adjoin(6) / 2], 2),
    # a sweep survivor that is no relation: equal in coordinate 0 only
    "exact-near-miss": ([1 + _R2 / 10**12, Fraction(1)], 1),
    # rational enclosures are single points with denominators 3 and 6, so a
    # relation's interval sum is exactly [0, 0]
    "non-dyadic": ([_THIRD, NumericReal.from_exact(Fraction(5, 6)), Fraction(1, 2)], 4),
    "non-dyadic-roots": ([NumericReal.from_exact(sqrt_adjoin(Fraction(1, 3))),
                          NumericReal.from_exact(_R3 / 3), _THIRD], 3),
    # separated only at the 512-bit rung
    "numeric-near-miss": ([NumericReal.from_exact(_R2 + _TINY), NumericReal.from_exact(_R2)], 2),
    "bare-floats": ([0.5, 1.0, NumericReal.from_exact(_R2 / 2), 2**-0.5], 2),
}

RUNGS = [256, 512, 1024, 2048, 4096]

# squared sides of the five named triangles: equilateral, right isoceles,
# 30-60-90, the scalene (1, 7/8, 3/4) and the right triangle with legs 1:2
NAMED_TRIANGLES = [
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 4), Fraction(1, 4)),
    (Fraction(49, 64), Fraction(9, 16)),
    (Fraction(4, 5), Fraction(1, 5)),
]


class TestCertificationMatchesReference:
    """The integer dot-product certification decides exactly as the
    ``RatInterval`` ladder and the ``TowerReal`` sums did."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("kind", ["exact", "numeric", "float"])
    def test_random_columns(self, seed, kind):
        rng = random.Random(seed)
        values = _random_values(rng, kind != "exact")
        if kind == "float":
            values = [float(v) if rng.random() < 0.4 else v for v in values]
        height = rng.randint(1, 6)
        start = rng.choice((None, 64, 300))
        new = find_integer_relation(values, height, start_bits=start)
        ref = _reference_relation(values, height, start_bits=start)
        _assert_same_result(new, ref)

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_chosen_columns(self, case):
        values, height = DIFFERENTIAL_CASES[case]
        new = find_integer_relation(values, height)
        _assert_same_result(new, _reference_relation(values, height))
        assert new.stats["masked_survivors"] > 0  # certification ran

    @pytest.mark.parametrize("sides", NAMED_TRIANGLES, ids=str)
    def test_named_triangle_angles(self, sides, monkeypatch):
        alpha, beta, _ = angles_from_sides(*map(sqrt_adjoin, sides))
        new, ref = _both(lambda: find_angle_relation(alpha, beta), monkeypatch)
        _assert_same_result(new, ref)
        assert new.status == RelationStatus.FOUND_CANDIDATE

    @pytest.mark.parametrize("sides", NAMED_TRIANGLES, ids=str)
    def test_named_triangle_sides(self, sides, monkeypatch):
        a, b = map(sqrt_adjoin, sides)
        new, ref = _both(lambda: find_side_relation(a, b), monkeypatch)
        _assert_same_result(new, ref)
        assert new.status == RelationStatus.FOUND_CERTIFIED


def _with_reference_enclosures(call, monkeypatch):
    """``call()`` on the package's acos enclosures and on the two-ended
    reference ones.  ``call`` builds its own angles, so no cache is
    shared."""
    new = call()
    with monkeypatch.context() as m:
        m.setattr(intervals, "acos_interval", reference_acos_interval)
        ref = call()
    _assert_same_result(new, ref)
    assert new.stats["pending"] == ref.stats["pending"]
    return new


def _angle_call(a, b):
    return lambda: find_angle_relation(*angles_from_sides(a, b)[:2])


def _without_cosines(*angles):
    """The angles of ``acos_numeric`` enclosed alike but with no exact
    cosine, so that ``find_integer_relation`` runs every survivor up the
    ladder; equal angles still share one value."""
    bare = {id(t): acos_numeric(NumericReal(t.cosine.enclosure)) for t in angles}
    return [bare[id(t)] for t in angles]


def _ladder_angle_call(a, b):
    return lambda: find_angle_relation(*_without_cosines(*angles_from_sides(a, b)[:2]))


class TestOneEvaluationMatchesReference:
    """Angles enclosed by one acos evaluation and a mean-value radius decide
    every relation as the two-ended reference enclosures did."""

    @pytest.mark.parametrize("sides", NAMED_TRIANGLES, ids=str)
    def test_named_triangle_angles(self, sides, monkeypatch):
        # without their cosines the relations climb the whole ladder, so the
        # two enclosures are compared on every rung
        call = _ladder_angle_call(*map(sqrt_adjoin, sides))
        assert list(_with_reference_enclosures(call, monkeypatch).stats["pending"]) == RUNGS

    def test_sampled_triangle_angles(self, monkeypatch):
        rng = random.Random(2026)
        for _ in range(200):
            _with_reference_enclosures(_angle_call(*sample_side_fractions(rng)), monkeypatch)

    @pytest.mark.parametrize(
        "sides, evaluations",
        [(NAMED_TRIANGLES[0], 6), (NAMED_TRIANGLES[1], 6), (NAMED_TRIANGLES[2], 12)],
        ids=["equilateral", "right-isoceles", "30-60-90"],
    )
    def test_one_acos_per_angle_and_rung(self, sides, evaluations, monkeypatch):
        """Each distinct angle without an exact cosine is enclosed once for
        the sweep and once per rung of the 256..4096 ladder, by one acos
        each; equal angles share."""
        calls = []
        acos = mpmath.acos
        monkeypatch.setattr(mpmath, "acos", lambda t: calls.append(t) or acos(t))
        result = _ladder_angle_call(*map(sqrt_adjoin, sides))()
        assert list(result.stats["pending"]) == RUNGS
        assert len(calls) == evaluations

    @pytest.mark.parametrize(
        "sides, evaluations",
        [(NAMED_TRIANGLES[0], 1), (NAMED_TRIANGLES[1], 1), (NAMED_TRIANGLES[2], 2)],
        ids=["equilateral", "right-isoceles", "30-60-90"],
    )
    def test_exact_cosines_take_only_the_sweep_acos(self, sides, evaluations, monkeypatch):
        """With exact cosines every survivor is a relation decided by de
        Moivre, so no rung encloses an angle: the sweep's 64-bit enclosure
        is the only acos of each distinct angle."""
        calls = []
        acos = mpmath.acos
        monkeypatch.setattr(mpmath, "acos", lambda t: calls.append(t) or acos(t))
        result = _angle_call(*map(sqrt_adjoin, sides))()
        assert list(result.stats["pending"]) == RUNGS
        assert len(calls) == evaluations


def _assert_same_path(new, ladder):
    _assert_same_result(new, ladder)
    assert new.stats == ladder.stats


def _mixed_angles(cosine=True):
    """acos(1/2 + 2**-40) and acos(1/2) = pi/3: 104 survivors, of which the
    four (0, 3k, -k) are relations and the rest drop at the 256-bit rung."""
    angles = [acos_numeric(NumericReal.from_exact(c))
              for c in (Fraction(1, 2) + Fraction(1, 1 << 40), Fraction(1, 2))]
    return angles if cosine else _without_cosines(*angles)


class TestExactCosinesMatchLadder:
    """Angles with exact cosines, decided by de Moivre before the ladder,
    give the result and stats of the same angles without their cosines,
    which run every survivor up the ladder."""

    def _check(self, a, b):
        new, ladder = _angle_call(a, b)(), _ladder_angle_call(a, b)()
        _assert_same_path(new, ladder)
        return new

    @pytest.mark.parametrize("sides", NAMED_TRIANGLES, ids=str)
    def test_named_triangles(self, sides):
        result = self._check(*map(sqrt_adjoin, sides))
        assert result.status == RelationStatus.FOUND_CANDIDATE
        assert list(result.stats["pending"]) == RUNGS

    @pytest.mark.parametrize(
        "sides",
        [("sqrt(2)", "sqrt(3)"), ("1", "sqrt(2)"), ("sqrt(3)", "2"),
         ("1/4*sqrt(5 + 2*sqrt(6))", "3/4")],
        ids=str,
    )
    def test_other_exact_triangles(self, sides):
        self._check(*map(parse_number, sides))

    @pytest.mark.parametrize("sides", [NAMED_TRIANGLES[2], NAMED_TRIANGLES[3]], ids=str)
    @pytest.mark.parametrize(
        "picks, pi, height",
        [((0, 1, 2), True, 4), ((0, 1, 2), False, 4), ((0,), True, 12), ((0, 2), True, 8)],
    )
    def test_other_angle_columns(self, sides, picks, pi, height):
        # one, two or three angles, with or without pi, as columns
        angles = angles_from_sides(*map(sqrt_adjoin, sides))
        chosen = [angles[i] for i in picks]
        tail = [pi_numeric()] if pi else []
        new = find_integer_relation(chosen + tail, height)
        _assert_same_path(new, find_integer_relation(_without_cosines(*chosen) + tail, height))

    def test_small_rational_triangles(self):
        # isoceles and right triangles among them have relations
        rng = random.Random(24)
        found, done = 0, 0
        while done < 200:
            a, b = (Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(2))
            if is_valid_side_pair(a, b):
                found += len(self._check(a, b).candidates)
                done += 1
        assert found > 100

    def test_sampled_rational_triangles(self):
        rng = random.Random(24)
        for _ in range(200):
            self._check(*sample_side_fractions(rng))

    def test_mixed_relations_and_near_misses(self):
        new, ladder = (find_angle_relation(*_mixed_angles(c)) for c in (True, False))
        _assert_same_path(new, ladder)
        assert new.stats["masked_survivors"] == 104
        assert new.candidates == [(0, 3, -1), (0, 6, -2), (0, 9, -3), (0, 12, -4)]
        assert new.stats["pending"] == {bits: 4 for bits in RUNGS}

    def test_same_as_reference(self, monkeypatch):
        new, ref = _both(lambda: find_angle_relation(*_mixed_angles()), monkeypatch)
        _assert_same_result(new, ref)

    def test_sine_radicand_too_large_to_factor_is_not_factored(self, monkeypatch):
        """1 - c**2 = n/d for c = 1/2 + 2**-40 has n*d past the square of
        the trial-division bound, so the check leaves every survivor to the
        ladder without trying to factor it."""
        c = Fraction(1, 2) + Fraction(1, 1 << 40)
        radicand = (1 - c * c).numerator * (1 - c * c).denominator
        assert radicand > exact.DEFAULT_FACTOR_BOUND**2
        factored = []
        decompose = exact.squarefree_decompose
        monkeypatch.setattr(exact, "squarefree_decompose",
                            lambda n, *rest: factored.append(n) or decompose(n, *rest))
        new, ladder = (find_angle_relation(*_mixed_angles(k)) for k in (True, False))
        _assert_same_path(new, ladder)
        assert radicand not in factored

    def test_start_past_the_ladder_skips_the_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            relations, "_angle_relations", lambda *args: calls.append(args) or []
        )
        alpha, beta, _ = angles_from_sides(1, 1)
        find_angle_relation(alpha, beta, height=2, start_bits=MAX_LADDER_BITS)
        assert len(calls) == 1
        find_angle_relation(alpha, beta, height=2, start_bits=MAX_LADDER_BITS + 1)
        assert len(calls) == 1


class TestAngleRelationCheck:
    def test_a_full_turn_is_not_a_relation(self):
        # z**6 = 1 for alpha = pi/3, but 6*alpha = 2*pi: only the bound
        # |q . theta| < 2*pi rejects (6, 0, 0), (3, 3, 0) and (0, 0, 2)
        alpha, beta, _ = angles_from_sides(1, 1)
        columns = [_Column(v) for v in (alpha, beta, pi_numeric())]
        fed = [(1, -1, 0), (3, 0, -1), (6, 0, -2), (6, 0, 0), (3, 3, 0), (0, 0, 2)]
        assert _angle_relations(columns, fed) == [(1, -1, 0), (3, 0, -1), (6, 0, -2)]

    def test_half_turns_and_conjugates_are_not_relations(self):
        # within the bound, but the product is -1 (pi, 3*alpha), has the
        # real part of 1's conjugate pair and not its imaginary part (z**2),
        # or is no real number (alpha)
        alpha, beta, _ = angles_from_sides(1, 1)
        columns = [_Column(v) for v in (alpha, beta, pi_numeric())]
        fed = [(0, 0, 1), (3, 0, 0), (1, 1, 0), (1, 0, 0), (2, 1, -1)]
        assert _angle_relations(columns, fed) == [(2, 1, -1)]

    def test_columns_without_cosines(self):
        alpha, beta, _ = angles_from_sides(1, 1)
        fed = [(1, -1, 0)]
        assert _angle_relations([_Column(v) for v in (alpha, beta, pi_numeric())], fed)
        for values in ([*_without_cosines(alpha), beta, pi_numeric()],
                       [alpha, beta, Fraction(1)]):
            assert _angle_relations([_Column(v) for v in values], fed) == []

    def test_cosine_past_one(self):
        # acos clamps 2 to 0, but no angle has cosine 2: no exact decision
        columns = [_Column(acos_numeric(NumericReal.from_exact(v))) for v in (2, 1)]
        assert _angle_relations(columns, [(1, -1)]) == []


class TestNonFiniteFloats:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejected(self, value):
        with pytest.raises(ValueError, match="is not finite"):
            find_integer_relation([value, 1.0], 2)


class TestRelationStats:
    def test_exact_counts(self):
        res = find_integer_relation([1 + _R2 / 10**12, Fraction(1)], 1)
        assert res.status == RelationStatus.NONE_UP_TO_HEIGHT
        assert res.stats == {
            "left_table": 3,
            "right_table": 3,
            # the zero vector, (1, -1) and its negated twin
            "matched_pairs": 3,
            "swept_survivors": 1,
            "masked_survivors": 1,
            "pending": {},
        }

    def test_pending_per_rung(self):
        values, height = DIFFERENTIAL_CASES["numeric-near-miss"]
        res = find_integer_relation(values, height)
        assert res.stats["pending"] == {256: 2, 512: 0}  # (1, -1) and (2, -2)
        assert res.precision_bits == 512

    def test_mask_and_full_ladder(self):
        a, b = NumericReal.from_exact(_R3 / 2), NumericReal.from_exact(Fraction(1, 2))
        res = find_integer_relation([a, b, Fraction(1), _R3], 2, mask=lambda c: c[0] != 0)
        stats = res.stats
        assert (stats["left_table"], stats["right_table"]) == (25, 25)
        # the mask drops (0, 2, -1, 0); true relations reach the last rung
        assert (stats["swept_survivors"], stats["masked_survivors"]) == (4, 3)
        assert stats["pending"] == {bits: 3 for bits in (256, 512, 1024, 2048, 4096)}
        assert res.candidates == [(2, -2, 1, -1), (2, 0, 0, -1), (2, 2, -1, -1)]

    def test_not_serialized(self):
        res = find_integer_relation([Fraction(1), Fraction(1)], 1)
        assert res.stats
        assert "stats" not in res.to_dict()


# hand-derived: 7*q1 + 6*q2 + 8*n = 0 with all |coefficients| <= 8,
# (q1, q2) != (0, 0), first nonzero coefficient positive
RATIONAL_SIDE_WITNESSES = [
    (0, 4, -3),
    (0, 8, -6),
    (2, -5, 2),
    (2, -1, -1),
    (2, 3, -4),
    (2, 7, -7),
    (4, -6, 1),
    (4, -2, -2),
    (4, 2, -5),
    (4, 6, -8),
    (6, -7, 0),
    (6, -3, -3),
    (6, 1, -6),
    (8, -8, -1),
    (8, -4, -4),
    (8, 0, -7),
]


class TestSideRelationExact:
    def test_five_radicand_basis(self):
        # seven columns: beyond the combination cap of the outer-product sweep
        res = find_side_relation(
            Fraction(7, 8), Fraction(3, 4), height=8, basis=(1, 2, 3, 5, 7)
        )
        assert res.status == RelationStatus.FOUND_CERTIFIED
        assert res.columns == ["a", "b", "1", "sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(7)"]
        assert res.witnesses == [w + (0, 0, 0, 0) for w in RATIONAL_SIDE_WITNESSES]

    def test_rational_sides_full_witness_set(self):
        res = find_side_relation(Fraction(7, 8), Fraction(3, 4), height=8, basis=(1,))
        assert res.status == RelationStatus.FOUND_CERTIFIED
        assert res.witnesses == RATIONAL_SIDE_WITNESSES
        assert res.memberships["a"] == KElement.from_rational(Fraction(7, 8))
        assert res.memberships["b"] == KElement.from_rational(Fraction(3, 4))

    def test_right_isoceles(self):
        h = sqrt_adjoin(2) / 2
        res = find_side_relation(h, h, height=3, basis=(1, 2))
        assert res.status == RelationStatus.FOUND_CERTIFIED
        assert res.columns == ["a", "b", "1", "sqrt(2)"]
        # q1 + q2 must be even, constant coefficient zero
        expected = [
            (0, 2, 0, -1),
            (1, -3, 0, 1),
            (1, -1, 0, 0),
            (1, 1, 0, -1),
            (1, 3, 0, -2),
            (2, -2, 0, 0),
            (2, 0, 0, -1),
            (2, 2, 0, -2),
            (3, -3, 0, 0),
            (3, -1, 0, -1),
            (3, 1, 0, -2),
            (3, 3, 0, -3),
        ]
        assert res.witnesses == expected
        assert res.memberships["a"] == KElement([(2, Fraction(1, 2))])

    def test_membership_without_integer_witness(self):
        # a = 22/7 needs constant 22, beyond height 8; membership still fires
        res = find_side_relation(Fraction(22, 7), Fraction(3, 1), height=2, basis=(1,))
        assert res.status == RelationStatus.FOUND_CERTIFIED
        assert res.memberships["a"] == KElement.from_rational(Fraction(22, 7))
        assert all(w[0] == 0 for w in res.witnesses)  # only b-relations in reach

    def test_outside_basis(self):
        r7 = sqrt_adjoin(7) / 2
        res = find_side_relation(r7, r7 / 2 + Fraction(1, 4), height=2, basis=(1, 2))
        # sqrt(7) is independent of {1, sqrt(2)}; only the a-b relation links
        # the two sides: 2a - 4b + 1 = 0 requires height 4, so none here
        assert res.status == RelationStatus.NONE_UP_TO_HEIGHT
        assert "a" not in res.memberships

    def test_mask_excludes_pure_constants(self):
        res = find_side_relation(Fraction(7, 8), Fraction(3, 4), height=8, basis=(1,))
        for w in res.witnesses:
            assert (w[0], w[1]) != (0, 0)


class TestSideRelationNumeric:
    def test_thirty_sixty_ninety_candidates(self):
        a = NumericReal.from_exact(sqrt_adjoin(3) / 2)
        b = NumericReal.from_exact(Fraction(1, 2))
        res = find_side_relation(a, b, height=2, basis=(1, 3))
        assert res.status == RelationStatus.FOUND_CANDIDATE
        assert res.candidates == [
            (0, 2, -1, 0),
            (2, -2, 1, -1),
            (2, 0, 0, -1),
            (2, 2, -1, -1),
        ]
        assert res.witnesses == []  # numeric inputs are never certified
        assert res.memberships == {}

    def test_sampled_triangle_no_relation(self):
        rng = random.Random(42)
        af, bf = sample_side_fractions(rng)
        a, b = NumericReal.from_exact(af), NumericReal.from_exact(bf)
        res = find_side_relation(a, b, height=8, basis=(1, 2, 3, 5))
        assert res.status == RelationStatus.NONE_UP_TO_HEIGHT

    def test_float_inputs_undecided(self):
        res = find_side_relation(0.8660254037844386, 0.5, height=2, basis=(1, 3))
        assert res.status == RelationStatus.UNDECIDED
        assert (0, 2, -1, 0) in res.unresolved


class TestAngleRelations:
    def test_pi_fraction_equilateral(self):
        res = find_angle_relation_pi_fractions(Fraction(1, 3), Fraction(1, 3), height=3)
        assert res.status == RelationStatus.FOUND_CERTIFIED
        assert res.witnesses == [
            (0, 3, -1),
            (1, -1, 0),
            (1, 2, -1),
            (2, -2, 0),
            (2, 1, -1),
            (3, -3, 0),
            (3, 0, -1),
            (3, 3, -2),
        ]
        assert res.columns == ["alpha", "beta", "pi"]

    def test_pi_fraction_generic(self):
        res = find_angle_relation_pi_fractions(
            Fraction(1000003, 2**21), Fraction(700001, 2**21), height=12
        )
        assert res.status == RelationStatus.NONE_UP_TO_HEIGHT

    def test_numeric_equilateral_candidates(self):
        alpha, beta, _ = angles_from_sides(1, 1)
        res = find_angle_relation(alpha, beta, height=3)
        assert res.status == RelationStatus.FOUND_CANDIDATE
        assert (1, -1, 0) in res.candidates
        assert (3, 0, -1) in res.candidates
        assert res.precision_bits >= 4096

    def test_numeric_sampled_none(self):
        rng = random.Random(7)
        af, bf = sample_side_fractions(rng)
        alpha, beta, _ = angles_from_sides(af, bf)
        res = find_angle_relation(alpha, beta, height=6)
        assert res.status == RelationStatus.NONE_UP_TO_HEIGHT

    def test_right_angle_relation_detected(self):
        alpha, beta, _ = angles_from_sides(sqrt_adjoin(3) / 2, Fraction(1, 2))
        res = find_angle_relation(alpha, beta, height=6)
        assert res.status == RelationStatus.FOUND_CANDIDATE
        # alpha = pi/3: 3*alpha - pi = 0; beta = pi/6: 6*beta - pi = 0
        assert (3, 0, -1) in res.candidates
        assert (0, 6, -1) in res.candidates

    def test_reference_scalene_has_an_exact_angle_relation(self):
        # The (1, 7/8, 3/4) triangle satisfies 3*alpha + 4*beta = 2*pi
        # exactly: cos(alpha) = 17/32, cos(beta) = 11/16, and the triple/
        # quadruple angle formulas give cos(3*alpha) = 4c^3 - 3c =
        # -8143/8192 = 8c^4 - 8c^2 + 1 = cos(4*beta), with sin(3*alpha) =
        # -sin(4*beta) > 0 pinning 3*alpha = 2*pi - 4*beta.  So despite
        # scalene sides the angles are commensurable, and the finder must
        # report the candidate (never certified for numeric inputs).
        alpha, beta, _ = angles_from_sides(Fraction(7, 8), Fraction(3, 4))
        res = find_angle_relation(alpha, beta, height=12)
        assert res.status == RelationStatus.FOUND_CANDIDATE
        assert res.candidates[0] == (3, 4, -2)
        assert all(
            (w[0], w[1], w[2]) in ((3, 4, -2), (6, 8, -4), (9, 12, -6))
            for w in res.candidates
        )


class TestResultSerialization:
    def test_to_dict(self):
        res = find_side_relation(Fraction(7, 8), Fraction(3, 4), height=2, basis=(1,))
        d = res.to_dict()
        assert d["status"] == "found_certified"
        assert d["memberships"]["a"] == "7/8"
        assert all(isinstance(w, list) for w in d["witnesses"])

    @pytest.mark.parametrize("value", ["abc", "128"])
    def test_precision_variable_is_ignored(self, monkeypatch, value):
        """EQUICUT_PRECISION_BITS, once an override of the starting precision,
        changes nothing: ``start_bits`` is the only source."""

        def answer():
            a = NumericReal.from_exact(sqrt_adjoin(3) / 2)
            b = NumericReal.from_exact(Fraction(1, 2))
            res = find_side_relation(a, b, height=2, basis=(1, 3))
            return res.status, res.candidates, res.precision_bits, res.stats

        monkeypatch.delenv("EQUICUT_PRECISION_BITS", raising=False)
        unset = answer()
        assert unset[0] == RelationStatus.FOUND_CANDIDATE
        assert min(unset[3]["pending"]) == 256  # the ladder starts at the default
        monkeypatch.setenv("EQUICUT_PRECISION_BITS", value)
        assert answer() == unset
