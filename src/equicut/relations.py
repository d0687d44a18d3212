"""Bounded-height integer relation detection with certified answers.

Given real values v1..vn, the engine searches every integer coefficient
vector (c1..cn) with 0 < max|ci| <= height for relations c1*v1+...+cn*vn = 0.
The search is exhaustive and every reported answer carries a guarantee:

* ``FOUND_CERTIFIED``  -- a relation verified by exact field arithmetic
  (only possible when every input is exact).
* ``FOUND_CANDIDATE``  -- a combination indistinguishable from zero at the
  maximum working precision; inputs were numeric, so equality is not
  claimed (for angles with exact cosines it is in fact proven, below).
* ``NONE_UP_TO_HEIGHT`` -- every combination was certified nonzero.
* ``UNDECIDED``        -- some combination could not be resolved because an
  input cannot be refined (e.g. a bare float); nothing was found either.

The exhaustive pass is a float64 meet-in-the-middle sweep: the columns are
split in two halves, the float sums of every coefficient choice on each half
are tabulated, one table is sorted, and each sum of the other is matched by
binary search against the sums that cancel it to within a threshold.  The
rounding error is bounded statically, so only combinations smaller than the
threshold survive to certification and the sweep never discards a true
relation.  Time and memory grow with (2H+1)**(n/2) rather than (2H+1)**n.
Two guards raise ``SearchSpaceError`` (a ``ValueError``) instead of
searching: a half-table of more than about 4 M sums, and more than 65 536
near-zero pairs to certify.  Certification runs on integers over a common
denominator and decides as summing the values or their enclosures would:
exact survivors by the columns' coordinate rows in one ``FieldBuilder``
chain, numeric ones by enclosure endpoints on a ladder from 256 to 4096
bits.  ``start_bits`` overrides the start; a start below 64 runs at 64.

When every column is an angle known by its exact cosine (``acos_numeric``
of an exact value, and ``pi_numeric``) and the start is at most 4096 bits,
``_angle_relations`` first decides each survivor exactly by de Moivre.  A
relation holds 0 in every rigorous enclosure, so it would stay pending to
the last rung: the ladder refines only the other survivors, and the
relations are counted pending at each rung and reported as candidates, as
the full ladder would report them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm
from operator import mul
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .exact import (
    DEFAULT_FACTOR_BOUND,
    FieldBuilder,
    KElement,
    NegativeSqrtError,
    SquarefreeBoundError,
    TowerReal,
    _coordinate_rows,
    k_membership,
    sqrt_adjoin,
    squarefree_decompose,
)
from .intervals import NumericReal, RatInterval

__all__ = [
    "RelationResult",
    "RelationStatus",
    "SearchSpaceError",
    "find_angle_relation",
    "find_angle_relation_pi_fractions",
    "find_integer_relation",
    "find_side_relation",
]

DEFAULT_ANGLE_HEIGHT = 12
DEFAULT_SIDE_HEIGHT = 8
DEFAULT_SIDE_BASIS = (1, 2, 3, 5)
DEFAULT_START_BITS = 256
MAX_LADDER_BITS = 4096
# entries in the larger half-table of the sweep (about 32 MB of float64)
_MAX_HALF_TABLE = 1 << 22
# near-zero pairs the sweep hands on to certification, which costs up to
# about 0.4 ms per surviving vector for numeric inputs
_MAX_MATCHED_PAIRS = 1 << 16

Value = Union[TowerReal, NumericReal, Fraction, int, float]


class SearchSpaceError(ValueError):
    """The relation sweep refused an input whose search it cannot bound:
    a half-table too large to allocate, too many near-zero combinations to
    certify, or a value beyond the float range."""


class RelationStatus(enum.Enum):
    FOUND_CERTIFIED = "found_certified"
    FOUND_CANDIDATE = "found_candidate"
    NONE_UP_TO_HEIGHT = "none_up_to_height"
    UNDECIDED = "undecided"


@dataclass
class RelationResult:
    status: RelationStatus
    height: int
    columns: list[str]
    witnesses: list[tuple[int, ...]] = field(default_factory=list)
    candidates: list[tuple[int, ...]] = field(default_factory=list)
    unresolved: list[tuple[int, ...]] = field(default_factory=list)
    memberships: dict[str, KElement] = field(default_factory=dict)
    precision_bits: int = 0
    # half-table sizes, matched pairs, survivors of the sweep and the mask,
    # and vectors pending after each rung by its bits; not in to_dict()
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        from .literals import format_k_element

        return {
            "status": self.status.value,
            "height": self.height,
            "columns": list(self.columns),
            "witnesses": [list(w) for w in self.witnesses],
            "candidates": [list(w) for w in self.candidates],
            "unresolved": [list(w) for w in self.unresolved],
            "memberships": {
                k: format_k_element(v) for k, v in self.memberships.items()
            },
            "precision_bits": self.precision_bits,
        }


class _Column:
    """One input value, normalized to a uniform enclosure interface."""

    __slots__ = ("value", "exact", "refinable")

    def __init__(self, value: Value):
        if isinstance(value, (int, Fraction)):
            value = TowerReal.from_rational(value)
        if isinstance(value, TowerReal):
            self.value: Union[TowerReal, NumericReal] = value
            self.exact, self.refinable = True, True
        elif isinstance(value, NumericReal):
            self.value = value
            self.exact, self.refinable = False, True
        elif isinstance(value, float):
            if not isfinite(value):
                raise ValueError(f"float value {value!r} is not finite")
            # a bare float is an approximation of unknown provenance: give it
            # a generous fixed uncertainty and mark it unrefinable
            center = Fraction(value)
            slack = abs(center) / (1 << 48) + Fraction(1, 1 << 48)
            fixed = RatInterval(center - slack, center + slack)
            self.value = NumericReal(lambda bits: fixed)
            self.exact, self.refinable = False, False
        else:
            raise TypeError(f"unsupported value type {type(value).__name__}")

    def enclosure(self, bits: int) -> RatInterval:
        return self.value.enclosure(bits)


def _canonical(coeffs: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    for c in coeffs:
        if c > 0:
            return coeffs
        if c < 0:
            return None  # the negated twin is reported instead
    return None  # all zero


def _decode(indices: np.ndarray, n: int, height: int) -> list[tuple[int, ...]]:
    base = 2 * height + 1
    out = []
    for idx in indices.tolist():
        digits = []
        for _ in range(n):
            digits.append(idx % base - height)
            idx //= base
        digits.reverse()
        out.append(tuple(digits))
    return out


def _half_sums(floats: Sequence[float], height: int) -> np.ndarray:
    """Float value of every coefficient vector over ``floats``, indexed in
    base 2*height+1 with the first column's digit most significant."""
    rng = np.arange(-height, height + 1, dtype=np.float64)
    acc = np.zeros(1)
    for f in floats:
        acc = np.add.outer(acc, rng * f).ravel()
    return acc


def _sweep(columns: Sequence[_Column], height: int, stats: Optional[dict] = None):
    """Exhaustive meet-in-the-middle pass.  Returns the surviving coefficient
    vectors (every true relation is guaranteed among them) and the threshold
    used, and counts the half-tables and matched pairs in ``stats``."""
    n = len(columns)
    split = n // 2
    if (2 * height + 1) ** (n - split) > _MAX_HALF_TABLE:
        raise SearchSpaceError("combination space too large for exhaustive search")
    mids: list[Fraction] = []
    errs: list[Fraction] = []
    for col in columns:
        iv = col.enclosure(64)
        mids.append(iv.mid)
        errs.append(iv.width / 2)
    try:
        floats = [float(m) for m in mids]
    except OverflowError:
        raise SearchSpaceError("a value is beyond the float range") from None
    # static error bound: per-value (enclosure width + float conversion) plus
    # float64 rounding across <= 2n + 1 operations at the sum's magnitude
    conv = [abs(Fraction(f) - m) for f, m in zip(floats, mids)]
    magnitude = sum(abs(Fraction(f)) for f in floats) * height + 1
    bound = (
        height * sum(e + c for e, c in zip(errs, conv))
        + Fraction(4 * n) * magnitude / (1 << 52)
    )
    threshold = max(Fraction(1, 10**9), 100 * bound)

    # The bound still covers this evaluation order.  Each half-sum takes at
    # most n float operations (a product and an addition per column of its
    # half), the pair sum one more, and every partial sum is at most
    # ``magnitude``, so a true relation's float value is within ``bound`` of
    # zero.  Rounding moves the window endpoints by at most ulp(magnitude),
    # far below threshold/100, so the window holds every such partner; the
    # float test |L + R| <= t then decides each pair.
    t = float(threshold)
    left = _half_sums(floats[:split], height)
    right = _half_sums(floats[split:], height)
    order = np.argsort(right)
    ordered = right[order]
    lo = np.searchsorted(ordered, -left - t, side="left")
    hi = np.searchsorted(ordered, -left + t, side="right")
    counts = hi - lo
    matched = int(counts.sum())
    if stats is not None:
        stats.update(left_table=left.size, right_table=right.size, matched_pairs=matched)
    if matched > _MAX_MATCHED_PAIRS:
        raise SearchSpaceError(
            f"too many near-zero combinations to certify ({matched} found)"
        )
    left_idx = np.repeat(np.arange(left.size), counts)
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    right_idx = order[starts + np.arange(matched)]
    keep = np.abs(left[left_idx] + right[right_idx]) <= t
    hits = left_idx[keep] * right.size + right_idx[keep]
    decoded = []
    for coeffs in _decode(hits, n, height):
        canon = _canonical(coeffs)
        if canon is not None:
            decoded.append(canon)
    return sorted(set(decoded)), threshold


def _start_bits(override: Optional[int]) -> int:
    return DEFAULT_START_BITS if override is None else max(64, int(override))


def _integer_ends(columns: Sequence[_Column], bits: int) -> tuple[list[int], list[int], int]:
    """L + H and H - L for each column's enclosure [L, H] at ``bits``, as
    integers over one common denominator d, and d."""
    ivs = [col.enclosure(bits) for col in columns]
    d = lcm(*(e.denominator for iv in ivs for e in iv))
    ends = [[e.numerator * (d // e.denominator) for e in iv] for iv in ivs]
    return [lo + hi for lo, hi in ends], [hi - lo for lo, hi in ends], d


def _angle_relations(
    columns: Sequence[_Column], survivors: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The survivors q with q . theta = 0, decided exactly, when every column
    is an angle theta_k in [0, pi] known by its exact cosine c_k (the
    ``cosine`` of ``acos_numeric`` and ``pi_numeric``); otherwise, or when a
    sine cannot be adjoined, none.

    In one ``FieldBuilder`` chain s_k = sqrt(1 - c_k**2) >= 0, and z_k =
    c_k + i*s_k = exp(i*theta_k).  Then q . theta is a multiple of 2*pi
    exactly when prod z_k**q_k == 1, and it is 0 when moreover |q . theta|
    < 2*pi, which the 64-bit enclosures certify.  A negative power is the
    conjugate, since |z_k| = 1, and a real z_k = +-1 (pi's -1) is a sign.
    A rational 1 - c_k**2 = n/d with n*d past ``DEFAULT_FACTOR_BOUND**2``
    gives none at once: trial division might not factor it."""
    cosines = [getattr(col.value, "cosine", None) for col in columns]
    if not survivors or None in cosines:
        return []
    distinct = []
    for c in cosines:
        if c not in distinct:
            distinct.append(c)
    index = [distinct.index(c) for c in cosines]
    builder = FieldBuilder()
    unit = []  # (c, s) per distinct cosine
    try:
        for c in distinct:
            c = builder.embed(c)
            r = 1 - c * c
            f = r.as_fraction()
            if f is not None and f.numerator * f.denominator > DEFAULT_FACTOR_BOUND**2:
                return []
            unit.append((c, builder.sqrt(r)))
    except (NegativeSqrtError, SquarefreeBoundError):
        return []
    # powers[j][p] = z_j**p as (real, imaginary) for 0 < |p| <= max |q_k|;
    # a real z_j = +-1 has none and flips the sign for odd p when it is -1
    top = [0] * len(unit)
    for q in survivors:
        for j, qk in zip(index, q):
            top[j] = max(top[j], abs(qk))
    powers, flips = [], []
    for (c, s), h in zip(unit, top):
        zp = {}
        if s:
            a, b = c, s
            for p in range(1, h + 1):
                zp[p], zp[-p] = (a, b), (a, -b)
                a, b = a * c - b * s, a * s + b * c
        powers.append(zp)
        flips.append(not s and c < 0)

    found = []
    for q in survivors:
        sign, terms = 1, []
        for j, qk in zip(index, q):
            if qk:
                if powers[j]:
                    terms.append((powers[j], qk))
                elif flips[j] and qk & 1:
                    sign = -sign
        if not terms:
            if sign == 1:
                found.append(q)
            continue
        # sign * prod z**q == 1 exactly when sign times the product over all
        # but the last term equals the last term's inverse, its conjugate
        zp, qk = terms.pop()
        a, b = zp[-qk] if sign > 0 else (-zp[-qk][0], -zp[-qk][1])
        head = [zp[qk] for zp, qk in terms]
        re, im = head[0] if head else (1, 0)
        for x, y in head[1:]:
            re, im = re * x - im * y, re * y + im * x
        if im == b and re == a:  # the imaginary part first: it rejects most
            found.append(q)
    # 2|q . theta| <= |q . (L + H)| + |q| . (H - L) over the denominator d
    # of the sweep's enclosures, and 6 < 2*pi
    mids, widths, d = _integer_ends(columns, 64)
    return [q for q in found
            if abs(sum(map(mul, q, mids))) + sum(map(mul, map(abs, q), widths)) < 12 * d]


def find_integer_relation(
    values: Sequence[Value],
    height: int,
    *,
    labels: Optional[Sequence[str]] = None,
    mask: Optional[Callable[[tuple[int, ...]], bool]] = None,
    start_bits: Optional[int] = None,
) -> RelationResult:
    """Exhaustively search integer combinations of ``values`` up to
    ``height`` for relations summing to zero."""
    if height < 1:
        raise ValueError("height must be at least 1")
    if not values:
        raise ValueError("need at least one value")
    columns = [_Column(v) for v in values]
    names = list(labels) if labels is not None else [f"v{i}" for i in range(len(columns))]
    if len(names) != len(columns):
        raise ValueError("labels must match values")

    start = _start_bits(start_bits)
    result = RelationResult(
        status=RelationStatus.NONE_UP_TO_HEIGHT, height=height, columns=names
    )
    stats = result.stats
    survivors, _ = _sweep(columns, height, stats)
    stats["swept_survivors"] = len(survivors)
    if mask is not None:
        survivors = [s for s in survivors if mask(s)]
    stats["masked_survivors"] = len(survivors)
    stats["pending"] = {}

    if all(col.exact for col in columns):
        builder = FieldBuilder()
        embedded = [builder.embed(col.value) for col in columns]
        # coordinate j of sum(c_i * v_i) is c . (row_i[j] for each i)
        coords = [col for col in zip(*_coordinate_rows(builder.ctx, embedded)) if any(col)]
        result.witnesses = [
            c for c in survivors if not any(sum(map(mul, c, col)) for col in coords)
        ]
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

    # Every enclosure is rigorous, so a relation holds 0 at every rung: the
    # ladder runs only on the rest, and the relations count as pending.
    relations = _angle_relations(columns, survivors) if start <= MAX_LADDER_BITS else []
    pending = [c for c in survivors if c not in relations]
    for bits in rungs:
        if not (pending or relations):
            break
        result.precision_bits = bits
        if pending:
            # the sum of the c_i * [L_i, H_i] holds 0 exactly when
            # |c . (L + H)| <= |c| . (H - L)
            mids, widths, _ = _integer_ends(columns, bits)
            pending = [c for c in pending
                       if abs(sum(map(mul, c, mids))) <= sum(map(mul, map(abs, c), widths))]
        stats["pending"][bits] = len(relations) + len(pending)

    pending = sorted(relations + pending)
    if pending:
        refinable = all(col.refinable for col in columns)
        if refinable:
            result.candidates = pending
            result.status = RelationStatus.FOUND_CANDIDATE
        else:
            result.unresolved = pending
            result.status = RelationStatus.UNDECIDED
    return result


def find_angle_relation(
    alpha: Value,
    beta: Value,
    height: int = DEFAULT_ANGLE_HEIGHT,
    *,
    start_bits: Optional[int] = None,
) -> RelationResult:
    """Relations q1*alpha + q2*beta + q3*pi = 0 with |qi| <= height."""
    from .trispace import pi_numeric

    return find_integer_relation(
        [alpha, beta, pi_numeric()],
        height,
        labels=["alpha", "beta", "pi"],
        start_bits=start_bits,
    )


def find_angle_relation_pi_fractions(
    u: Fraction, v: Fraction, height: int = DEFAULT_ANGLE_HEIGHT
) -> RelationResult:
    """Exact variant of the angle search for angles (u*pi, v*pi): the pi
    factor cancels, leaving integer combinations of rationals."""
    return find_integer_relation(
        [Fraction(u), Fraction(v), Fraction(1)],
        height,
        labels=["alpha", "beta", "pi"],
    )


def find_side_relation(
    a: Value,
    b: Value,
    height: int = DEFAULT_SIDE_HEIGHT,
    basis: Sequence[int] = DEFAULT_SIDE_BASIS,
    *,
    start_bits: Optional[int] = None,
) -> RelationResult:
    """Relations q1*a + q2*b + sum n_d*sqrt(d) = 0 over the squarefree
    ``basis``, requiring (q1, q2) != (0, 0) and all |coefficients| <= height.

    For exact inputs, membership of a side in the multiquadratic field
    spanned by the basis is also decided outright and reported (certified)
    even when no bounded integer witness exists.
    """
    norm_basis = sorted({squarefree_decompose(int(d))[1] for d in basis})
    roots = [
        TowerReal.from_rational(1) if d == 1 else sqrt_adjoin(d) for d in norm_basis
    ]
    labels = ["a", "b"] + [("1" if d == 1 else f"sqrt({d})") for d in norm_basis]
    result = find_integer_relation(
        [a, b, *roots],
        height,
        labels=labels,
        mask=lambda c: c[0] != 0 or c[1] != 0,
        start_bits=start_bits,
    )
    a_col, b_col = _Column(a), _Column(b)
    if a_col.exact and b_col.exact:
        for name, col in (("a", a_col), ("b", b_col)):
            member = k_membership(col.value, norm_basis)
            if member is not None:
                result.memberships[name] = member
        if result.memberships:
            result.status = RelationStatus.FOUND_CERTIFIED
    return result
