"""Exact arithmetic over iterated square-root extensions of the rationals.

``TowerReal`` is an element of an explicit real quadratic tower
Q(sqrt(r1))(sqrt(r2))...(sqrt(rk)), where each radicand lies in the tower
below it.  Every value is a vector of integer coefficients over the
products of the radicands' square roots, one per bit mask, with one
positive denominator.  These products are a basis of the tower over Q,
because no radicand is a square at its own level, so the coordinates are
unique and the form is canonical.  Above a tower's flat prefix, its
leading rational-integer radicands, t_i**2 = r_i is a vector one level
down, and products reduce by halves, top level first, down to that prefix;
there they multiply by masks.  A *flat* tower is one whose prefix is the
whole tower.  Signs come from a 64-bit fixed-point enclosure of the basis
products, or from an exact halving recursion when the enclosure cannot
certify one.

A binary ``+ - * /`` is routed by its operands.  Two rationals (ints,
Fractions or values over the base context) combine as four integers with
one gcd.  A rational and a vector move the vector's coordinate 0 (``+ -``)
or scale every coordinate (``*``, and ``/`` by the rational), over the
vector's context.  Two vectors over one context have one length and
combine or multiply directly.  Only values over different contexts merge:
one over a prefix of the other's context is padded with zeros, and
otherwise the merge takes one root per source level, by lookup where the
destination chain holds the radicand, and maps vectors by halves; a repeat
merge of one context pair reuses the first merge's roots and context.
Contexts are interned by their radicands' integer vectors; the nested-pair
views ``raw`` and ``radicands`` are built on each call, for output only.

``KElement`` is the squarefree-basis view of a flat vector: a rational
combination of square roots of squarefree integers in canonical form, so
equality is coefficient equality.  Its ``+ - * /`` lift the operands into
one ``FieldBuilder`` chain, compute there with ``TowerReal`` and read the
result back.

The package's one interval type, ``RatInterval``, and its one bounded
refinement loop, ``_refine_to``, live here too: the kernel's fast path is
built from them, and ``intervals`` encloses transcendental values with them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isqrt, lcm, nextafter
from operator import add, sub
from typing import Callable, Iterable, Optional, Sequence, Union

__all__ = [
    "Fraction",
    "KElement",
    "MAX_WORK_BITS",
    "NegativeSqrtError",
    "RatInterval",
    "RefinementLimitError",
    "SquarefreeBoundError",
    "TowerContext",
    "TowerReal",
    "fraction_sqrt_bounds",
    "k_membership",
    "sqrt_adjoin",
    "squarefree_decompose",
    "tower_to_k",
]

DEFAULT_FACTOR_BOUND = 10**6

_ZERO = Fraction(0)
_ONE = Fraction(1)

Rationalish = Union[int, Fraction]


class NegativeSqrtError(ValueError):
    """Square root of a certified-negative quantity was requested."""


class SquarefreeBoundError(ValueError):
    """A radicand was too large to factor within the trial-division bound."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as s**2 * d with d squarefree; returns (s, d).

    Trial division runs up to ``DEFAULT_FACTOR_BOUND``; inputs whose
    unfactored cofactor cannot be certified squarefree are rejected rather
    than guessed at.
    """
    if n < 1:
        raise ValueError("squarefree_decompose expects a positive integer")
    bound = DEFAULT_FACTOR_BOUND
    s, d, m = 1, 1, n
    p = 2
    while p * p <= m and p <= bound:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if m > 1:
        if m <= bound * bound:
            # all prime factors of m exceed bound, so m <= bound**2 forces m prime
            d *= m
        else:
            r = isqrt(m)
            if r * r == m and r <= bound * bound:
                s *= r
            else:
                raise SquarefreeBoundError(
                    f"cannot certify squarefree part of {n} with trial division bound {bound}"
                )
    return s, d


def fraction_sqrt_bounds(f: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo <= sqrt(f) <= hi with hi - lo <= 2**-bits."""
    if f < 0:
        raise NegativeSqrtError("sqrt of negative rational")
    if f == 0:
        return _ZERO, _ZERO
    n, d = f.numerator, f.denominator
    t = (n << (2 * bits)) // d
    r = isqrt(t)
    lo = Fraction(r, 1 << bits)
    if r * r * d == n << (2 * bits):
        return lo, lo
    return lo, Fraction(r + 1, 1 << bits)


# ---------------------------------------------------------------------------
# Rational intervals and the bounded refinement loop.

# Working precision past which a refinement loop gives up.  The relation
# finder asks for at most 4096 bits; each nested operation adds two bits, or
# doubles them where it amplifies width, so 16x leaves room for four doublings.
MAX_WORK_BITS = 1 << 16


class RefinementLimitError(ArithmeticError):
    """An enclosure did not reach its target width before the working
    precision passed ``MAX_WORK_BITS`` (for instance a target narrower than
    2**-MAX_WORK_BITS, or a source whose enclosures never narrow)."""


class RatInterval:
    """A closed interval [lo, hi] with exact rational endpoints.

    Plain interval arithmetic, so every operation encloses the true result
    with no rounding.  Unpacks as ``lo, hi = interval``.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rationalish, hi: Optional[Rationalish] = None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if hi < lo:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    def __iter__(self):
        return iter((self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Rationalish) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return _interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: Union["RatInterval", Rationalish]) -> "RatInterval":
        # RatInterval first: an isinstance test against Fraction goes
        # through ABCMeta and is slow on this hot path
        if isinstance(other, RatInterval):
            p1 = self.lo * other.lo
            p2 = self.lo * other.hi
            p3 = self.hi * other.lo
            p4 = self.hi * other.hi
            return _interval(min(p1, p2, p3, p4), max(p1, p2, p3, p4))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other >= 0:
            return _interval(self.lo * other, self.hi * other)
        return _interval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def sqrt(self, bits: int = 128) -> "RatInterval":
        lo = self.lo if self.lo > 0 else _ZERO
        return _interval(
            fraction_sqrt_bounds(lo, bits)[0], fraction_sqrt_bounds(self.hi, bits)[1]
        )

    def __repr__(self) -> str:
        return f"RatInterval({float(self.lo)!r}, {float(self.hi)!r})"


_new_interval = object.__new__


def _interval(lo: Fraction, hi: Fraction) -> RatInterval:
    """Unchecked constructor for endpoints that are already ordered
    Fractions; interval operations build their results through it."""
    out = _new_interval(RatInterval)
    out.lo = lo
    out.hi = hi
    return out


def _refine_to(bits: int, attempt: Callable[[int], Optional[RatInterval]]) -> RatInterval:
    """Run ``attempt`` at doubling working precision, from ``bits + 2``, until
    it returns an enclosure of width at most 2**-bits.  ``attempt`` returns
    None when it cannot form an enclosure at that precision yet.  A target
    past ``MAX_WORK_BITS`` fails at once, before any attempt."""
    if bits > MAX_WORK_BITS:
        raise RefinementLimitError(f"a width of 2**-{bits} needs over {MAX_WORK_BITS} bits")
    target = Fraction(1, 1 << bits)
    work = bits + 2
    while True:
        out = attempt(work)
        if out is not None and out.width <= target:
            return out
        if work >= MAX_WORK_BITS:
            raise RefinementLimitError(
                f"no enclosure of width 2**-{bits} by {work} working bits"
            )
        work *= 2


# ---------------------------------------------------------------------------
# The nested-pair view, for output only.  A value at level 0 is a Fraction;
# at level k it is a pair (p, q) of level-(k-1) values meaning
# p + q*sqrt(radicands[k-1]).


def _vraw(v, den: int, k: int):
    """The level-k nested-pair form of the vector v over den; coordinates
    past the end of v are zero."""
    if k == 0:
        return Fraction(v[0], den)
    h = 1 << (k - 1)
    return (_vraw(v[:h], den, k - 1), _vraw(v[h:] or (0,), den, k - 1))


# ---------------------------------------------------------------------------
# Integer vectors.  Coordinate m of a vector over a context is the
# coefficient of the product of the square roots t_i = sqrt(radicands[i])
# picked by the bits of mask m; these products are a basis of the tower over
# Q, since no radicand is a square at its own level.  A vector has 2**k
# coordinates for some k, so its low half lies one level down and its high
# half is the coefficient of t_{k-1}.
#
# One product rule serves every context.  On the context's flat prefix,
# the leading levels whose radicands are rational integers, every t_i**2 is
# a rational integer, so the basis multiplies by masks (``_vmul``).  Above
# it t_i**2 = R_i/e_i is a vector one level down, and the product reduces by
# these relations top level first (``_hmul``), as for triangular sets (Li,
# Moreno Maza and Schost, J. Symb. Comput. 44, 2009), splitting into halves
# until they fit the prefix; each level takes three half products, not four
# (Karatsuba and Ofman, 1962).  A flat context is all prefix, so its product
# is one ``_vmul``.


def _vmul(x, y, prods) -> list:
    """The product of two vectors that fit a flat prefix's mask table
    ``prods``, x the longer, from
    sqrt(prods[a]) * sqrt(prods[b]) == prods[a & b] * sqrt(prods[a ^ b])."""
    out = [0] * len(x)
    for a, xa in enumerate(x):
        if xa:
            for b, yb in enumerate(y):
                if yb:
                    out[a ^ b] += xa * yb * prods[a & b]
    return out


def _hmul(x, y, k: int, ctx) -> list:
    """S_k * x * y over ``ctx``, for x of 2**k coordinates and y of at most
    as many; S_k = S_{k-1}**2 * e_{k-1} keeps it in integers.

    By halves, with t = t_{k-1} and t**2 = r = R/e:
    (p1 + q1*t)(p2 + q2*t) = p1*p2 + r*q1*q2 + (p1*q2 + q1*p2)*t.
    Once x fits the flat prefix's mask table every S_k is 1, so the halves
    end there in ``_vmul``."""
    if len(y) == 1:
        c = y[0] * ctx._scales[k]
        return [a * c for a in x]
    if len(x) <= len(ctx._prods):
        return _vmul(x, y, ctx._prods)
    h = 1 << (k - 1)
    R, e = ctx._rads[k - 1]
    c = ctx._scales[k - 1] * e
    p1, q1, p2, q2 = x[:h], x[h:], y[:h], y[h:]
    # S_{k-1} times each product, then c = S_{k-1}*e brings S_k
    pp = _hmul(p1, p2, k - 1, ctx)
    if not q2:
        return [a * c for a in pp] + [a * c for a in _hmul(q1, p2, k - 1, ctx)]
    qq = _hmul(q1, q2, k - 1, ctx)
    # Karatsuba: p1*q2 + q1*p2 == (p1 + q1)(p2 + q2) - p1*p2 - q1*q2
    ss = _hmul(list(map(add, p1, q1)), list(map(add, p2, q2)), k - 1, ctx)
    low = [a * c + b for a, b in zip(pp, _hmul(qq, R, k - 1, ctx))]
    return low + [(s - a - b) * c for s, a, b in zip(ss, pp, qq)]


def _product(ctx, x, y) -> tuple[list, int]:
    """(z, s) with z == s * x * y, s a positive integer, over ``ctx``."""
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1:
        c = y[0]
        return [a * c for a in x], 1
    k = (len(x) - 1).bit_length()
    return _hmul(x, y, k, ctx), ctx._scales[k]


def _vcombine(ctx, xn, xd: int, yn, yd: int, s: int) -> "TowerReal":
    """xn/xd + s*yn/yd over ``ctx`` for s = +-1 and vectors of one length."""
    if xd != yd:
        xn = [c * yd for c in xn]
        yn = [c * xd for c in yn]
        xd *= yd
    return _vector_value(ctx, list(map(add if s > 0 else sub, xn, yn)), xd)


def _vnorm(v, ctx) -> tuple[list, int]:
    """(n, lam): n == lam * (p**2 - r*q**2) for v = p + q*sqrt(r), r the top
    radicand of v's level, and lam a positive integer.  p**2 - r*q**2 is
    the product of v and its conjugate, one level down."""
    h = len(v) >> 1
    p, q = v[:h], v[h:]
    R, e = ctx._rads[h.bit_length() - 1]
    # p and q have the same length, so one scale s serves both squares
    pp, s = _product(ctx, p, p)
    qq, _ = _product(ctx, q, q)
    rqq, s2 = _product(ctx, R, qq)
    c = s2 * e
    return [c * a - b for a, b in zip(pp, rqq)], s * c


def _vinv(v, ctx) -> tuple[list, int]:
    """(w, d) with v*w == d, d a nonzero integer, for a nonzero vector v."""
    h = len(v) >> 1
    if h == 0:
        if v[0] == 0:
            raise ZeroDivisionError("division by zero in tower field")
        return [1], v[0]
    p, q = v[:h], v[h:]
    if not any(q):
        return _vinv(p, ctx)
    n, lam = _vnorm(v, ctx)
    w, d = _vinv(n, ctx)
    # lam*v*conj(v)*w == d, and z == s*conj(v)*w
    z, s = _product(ctx, list(p) + [-c for c in q], w)
    if lam != 1:
        z = [lam * c for c in z]
    return z, s * d


def _vsign(v, ctx) -> int:
    """Exact sign of a vector over ``ctx``, by halves."""
    h = len(v) >> 1
    if h == 0:
        return (v[0] > 0) - (v[0] < 0)
    sq = _vsign(v[h:], ctx)
    if sq == 0:
        return _vsign(v[:h], ctx)
    sp = _vsign(v[:h], ctx)
    if sp == 0 or sp == sq:
        return sq
    # p and q*sqrt(r) pull in opposite directions; compare p**2 with q**2*r.
    sd = _vsign(_vnorm(v, ctx)[0], ctx)
    if sd == 0:
        raise AssertionError("radicand was a perfect square at its own level")
    return sp * sd


def _vfilter(v, roots) -> int:
    """Sign of a vector certified from the fixed-point roots, else 0.

    roots[m] <= 2**64 * (the product of the t_i picked by m) < roots[m] + 1,
    so the sum c of v[m] * roots[m] lies within sum |v[m]| of the value
    times 2**64."""
    if len(v) == 1:
        return (v[0] > 0) - (v[0] < 0)
    c = e = 0
    for x, s in zip(v, roots):
        c += x * s
        e += abs(x)
    if c > e:
        return 1
    if c < -e:
        return -1
    return 0


def _vinterval(v, sqrt_ivs) -> RatInterval:
    """Enclosure of the integer vector v by halves, low + high * t_top, from
    enclosures ``sqrt_ivs`` of the t_i.  Scaling it by 1/den > 0 gives the
    endpoints that Fraction coordinates over den would."""
    h = len(v) >> 1
    if h == 0:
        return _interval(v[0], v[0])
    return _vinterval(v[:h], sqrt_ivs) + _vinterval(v[h:], sqrt_ivs) * sqrt_ivs[h.bit_length() - 1]


def _roots(ctx) -> list[int]:
    """The context's fixed-point roots (see ``_vfilter``).  A flat context
    holds them from the start; a nested one computes them on first use."""
    if ctx._roots is None:
        k = ctx.depth - 1
        ctx._roots = _roots(ctx.prefix(k)) + [_nested_root(ctx, m) for m in range(1 << k, 2 << k)]
    return ctx._roots


def _nested_root(ctx, m: int) -> int:
    """floor(2**64 * the product of the t_i picked by m), from enclosures
    through ``sqrt_enclosures`` refined until that floor is certain.  The
    product is irrational for m != 0, so the refinement ends."""

    def attempt(work: int) -> Optional[RatInterval]:
        out = _interval(_ONE, _ONE)
        for i, iv in enumerate(ctx.sqrt_enclosures(work)):
            if m >> i & 1:
                out = out * iv
        lo, hi = [(f.numerator << 64) // f.denominator for f in out]
        return out if lo == hi else None

    lo = _refine_to(64, attempt).lo
    return (lo.numerator << 64) // lo.denominator


def _float_bounds(x: "TowerReal") -> Optional[tuple[float, float]]:
    """Floats lo <= x <= hi, or None beyond the float range.  As in
    ``_vfilter``, the value times den * 2**64 lies within e of c; int / int
    division rounds correctly, so one float step outward from each quotient
    encloses the value."""
    c = e = 0
    for a, s in zip(x._num, _roots(x.ctx)):
        c += a * s
        e += abs(a)
    d = x._den << 64
    try:
        return nextafter((c - e) / d, -inf), nextafter((c + e) / d, inf)
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# Tower contexts and values.


class TowerContext:
    """An interned, immutable list of adjoined radicands.

    ``_rads[i] = (R, e)`` is radicand i as a canonical integer vector R, a
    value of the level-i prefix, over the positive denominator e; the tuple
    ``_rads`` is the interning key.  Stored radicands are certified
    nonnegative and are never perfect squares at their own level, and
    ``_levels[(R, e)] == i``: a repeated radicand would be a square.
    A context is interned only once its top radicand is certified a
    non-square, so ``_interned[ctx._rads + ((R, e),)]``, the *child* of
    ``ctx`` under (R, e), is that certificate.
    ``_embeds[src]`` is what ``FieldBuilder.embed`` derived the first time
    it merged a value over context ``src`` into this one: the final context
    and the tuple of source roots t_i, so a repeat merge of the same pair
    reuses them.  ``radicands`` is the nested-pair view of ``_rads``, built
    on each call for output.

    Every context keeps ``_prods[m]``, the product of the radicands picked
    by the bits of mask m over its flat prefix (the leading radicands that
    are rational integers), and the per-level scales ``_scales`` of
    ``_hmul``, which are 1 on that prefix.  ``_hmul`` splits products into
    halves until they fit ``_prods``, and multiplies by masks there.  A
    context is *flat* when the prefix is the whole tower.  A flat context
    holds ``_roots[m] = isqrt(_prods[m] << 128)``, the square roots of those
    products in 64-bit fixed point, from the start; a nested one fills
    ``_roots`` on first use (``_roots``).
    """

    __slots__ = (
        "depth", "_sqrt_cache", "_prefixes", "_rads", "_prods", "_scales", "_roots",
        "_levels", "_embeds",
    )

    _interned: dict[tuple, "TowerContext"] = {}

    def __init__(self, rads: tuple):
        self._rads = rads
        self.depth = len(rads)
        self._sqrt_cache: dict[int, list[RatInterval]] = {}
        self._prefixes: dict[int, TowerContext] = {}
        self._levels = {rad: i for i, rad in enumerate(rads)}
        self._embeds: dict[TowerContext, tuple] = {}
        j = 0  # the flat prefix: leading radicands that are rational integers
        while j < self.depth and len(rads[j][0]) == 1 and rads[j][1] == 1:
            j += 1
        prods, scales = [1], [1]
        for (r,), _ in rads[:j]:
            prods += [p * r for p in prods]
        for _, e in rads:
            scales.append(scales[-1] ** 2 * e)
        self._prods, self._scales = prods, scales
        self._roots = [isqrt(p << 128) for p in prods] if j == self.depth else None

    @classmethod
    def get(cls, rads: tuple) -> "TowerContext":
        """The interned context over ``rads``, canonical (R, e) pairs as in
        ``_rads``.  Each radicand must already be certified positive and
        not a square at its own level; ``get`` checks neither."""
        ctx = cls._interned.get(rads)
        if ctx is None:
            ctx = cls(rads)
            cls._interned[rads] = ctx
        return ctx

    def prefix(self, k: int) -> "TowerContext":
        if k == self.depth:
            return self
        ctx = self._prefixes.get(k)
        if ctx is None:
            ctx = TowerContext.get(self._rads[:k])
            self._prefixes[k] = ctx
        return ctx

    @property
    def radicands(self) -> tuple:
        """The nested-pair view: radicand i as a level-i value."""
        return tuple(_vraw(R, e, i) for i, (R, e) in enumerate(self._rads))

    def sqrt_enclosures(self, bits: int) -> list[RatInterval]:
        cached = self._sqrt_cache.get(bits)
        if cached is not None:
            return cached
        out: list[RatInterval] = []
        for R, e in self._rads:
            out.append((_vinterval(R, out) * Fraction(1, e)).sqrt(bits))
        self._sqrt_cache[bits] = out
        return out


_BASE_CTX = TowerContext.get(())


class TowerReal:
    """An exact real number living in a square-root tower over Q.

    The value is an integer vector ``_num`` over one positive denominator
    ``_den``, in canonical form over the least prefix of the context that
    holds it: gcd(den, *num) == 1 and zero top halves stripped, so equality
    is tuple equality.  ``raw``, the nested-pair view, is built on each
    call, for output.  Signs come from the context's 64-bit fixed-point
    roots, or from the exact halving recursion ``_vsign`` when those cannot
    certify one.

    A binary ``+ - * /`` takes one of four routes.  An int or Fraction
    operand counts as a rational, as does a value over the base context.
    Two rationals give one numerator and one denominator, reduced by one
    gcd.  With one rational, ``+ -`` move only coordinate 0 of the other
    operand, and ``*``, and ``/`` by the rational, scale every coordinate,
    so the result stays over that operand's context, its least prefix,
    unless it is zero; the rational over the operand multiplies by the
    operand's inverse there.  Over one context the vectors have one length
    and combine or multiply with no merge.  Only values over different
    contexts go through ``_merge``, which embeds one through
    ``FieldBuilder`` unless one context is a prefix of the other; a repeat
    merge of one context pair reuses the first merge's roots and context.
    Every route ends in the canonical form, so each gives the value, tuple
    for tuple, that the general route would.
    """

    __slots__ = ("ctx", "_num", "_den", "_sign", "_ivs")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rationalish) -> "TowerReal":
        f = Fraction(value)
        return _value(_BASE_CTX, (f.numerator,), f.denominator)

    @property
    def depth(self) -> int:
        return self.ctx.depth

    @property
    def raw(self):
        """The nested-pair form: a Fraction at depth 0, else a pair (p, q)
        of values one level down meaning p + q*sqrt(top radicand)."""
        return _vraw(self._num, self._den, self.ctx.depth)

    def as_fraction(self) -> Optional[Fraction]:
        return Fraction(self._num[0], self._den) if len(self._num) == 1 else None

    # -- arithmetic ---------------------------------------------------------
    # ``_sum``, ``_times`` and ``_quotient`` route each binary operation by
    # its operands, as the class docstring describes; an int or Fraction
    # operand goes straight to the rational route.

    @staticmethod
    def _merge(a: "TowerReal", b: "TowerReal"):
        """(ctx, x, y): a and b over one context, as (numerators,
        denominator) pairs, embedding b when neither context is a prefix of
        the other."""
        ca, cb = a.ctx, b.ctx
        if ca.depth <= cb.depth and cb.prefix(ca.depth) is ca:
            ctx = cb
        elif cb.depth < ca.depth and ca.prefix(cb.depth) is cb:
            ctx = ca
        else:
            builder = FieldBuilder(ca)
            b = builder.embed(b)
            ctx = builder.ctx
        return ctx, (a._num, a._den), (b._num, b._den)

    def __add__(self, other):
        if other.__class__ is TowerReal:
            return _sum(self, other, 1)
        if isinstance(other, (int, Fraction)):
            return _shift(self, 1, other.numerator, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is TowerReal:
            return _sum(self, other, -1)
        if isinstance(other, (int, Fraction)):
            return _shift(self, 1, -other.numerator, other.denominator)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _shift(self, -1, other.numerator, other.denominator)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is TowerReal:
            return _times(self, other)
        if isinstance(other, (int, Fraction)):
            return _scale(self, other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is TowerReal:
            return _quotient(self, other)
        if isinstance(other, (int, Fraction)):
            return _divided(self, other.numerator, other.denominator)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _quotient(_value(_BASE_CTX, (other.numerator,), other.denominator), self)
        return NotImplemented

    @staticmethod
    def _divide(ctx: TowerContext, x, y) -> "TowerReal":
        (xn, xd), (yn, yd) = x, y
        w, d = _vinv(yn, ctx)
        z, s = _product(ctx, xn, w)
        return _vector_value(ctx, [c * yd for c in z], xd * d * s)

    def __neg__(self):
        return _value(self.ctx, tuple([-c for c in self._num]), self._den)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = TowerReal.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- decisions ----------------------------------------------------------

    def interval(self, bits: int) -> RatInterval:
        """Enclosure from the radicands' square roots taken to ``bits``, by halves."""
        if self._ivs is None:
            self._ivs = {}
        cached = self._ivs.get(bits)
        if cached is None:
            cached = _vinterval(self._num, self.ctx.sqrt_enclosures(bits)) * Fraction(1, self._den)
            self._ivs[bits] = cached
        return cached

    def enclosure(self, bits: int) -> RatInterval:
        """Interval of width <= 2**-bits, refined by ``_refine_to``."""
        return _refine_to(bits, self.interval)

    def sign(self) -> int:
        if self._sign is None:
            v, ctx = self._num, self.ctx
            self._sign = _vfilter(v, ctx._roots or _roots(ctx)) or _vsign(v, ctx)
        return self._sign

    def is_zero(self) -> bool:
        return len(self._num) == 1 and self._num[0] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __float__(self) -> float:
        """Within one ulp: the midpoint of an enclosure, refined by
        ``_refine_to``, whose width is at most 2**-60 of its magnitude, so
        that it excludes 0."""
        if self.is_zero():
            return 0.0

        def attempt(work: int) -> Optional[RatInterval]:
            iv = self.interval(work)
            return iv if iv.width * (1 << 60) <= min(abs(iv.lo), abs(iv.hi)) else None

        # 62 + 2: the first attempt is the 64-bit enclosure
        return float(_refine_to(62, attempt).mid)

    def __eq__(self, other):
        if other.__class__ is not TowerReal:
            if isinstance(other, (int, Fraction)):
                return self._num == (other.numerator,) and self._den == other.denominator
            return NotImplemented
        ca, cb = self.ctx, other.ctx
        if ca is cb or ca is _BASE_CTX or cb is _BASE_CTX:
            # canonical forms: values over different prefixes differ
            return self._num == other._num and self._den == other._den
        _, x, y = TowerReal._merge(self, other)
        return x == y

    def _compare(self, other):
        """The sign of self - other, or NotImplemented for a foreign operand."""
        d = TowerReal.__sub__(self, other)
        return d if d is NotImplemented else d.sign()

    def __lt__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s >= 0

    def __repr__(self) -> str:
        from .literals import format_number

        return f"TowerReal({format_number(self)})"


_new_value = object.__new__


def _value(ctx: TowerContext, num: tuple, den: int) -> TowerReal:
    """Unchecked constructor: ``num`` and ``den`` already in canonical form
    over ``ctx``."""
    out = _new_value(TowerReal)
    out.ctx = ctx
    out._num = num
    out._den = den
    out._sign = None
    out._ivs = None
    return out


def _vector_value(ctx: TowerContext, num: list, den: int) -> TowerReal:
    """The value num/den over a prefix of ``ctx``, put in canonical form."""
    top = len(num) - 1
    while top and not num[top]:
        top -= 1
    k = top.bit_length()  # the least depth whose vectors reach index ``top``
    del num[1 << k :]
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _value(ctx if k == ctx.depth else ctx.prefix(k), tuple(num), den)


def _rational(n: int, d: int) -> TowerReal:
    """n/d over the base context, in lowest terms, for d != 0."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    return _value(_BASE_CTX, (n,), d)


def _shift(x: TowerReal, c: int, n: int, d: int) -> TowerReal:
    """c*x + n/d for c = +-1: only coordinate 0 of x moves, so a vector
    keeps its context, and a rational x gives four integers and one gcd."""
    xn, xd = x._num, x._den
    if x.ctx is _BASE_CTX:
        return _rational(c * d * xn[0] + n * xd, xd * d)
    m = c * d
    num = [m * v for v in xn]
    num[0] += n * xd
    return _vector_value(x.ctx, num, xd * d)


def _scale(x: TowerReal, n: int, d: int) -> TowerReal:
    """x * n/d for d != 0: every coordinate scales."""
    if x.ctx is _BASE_CTX:
        return _rational(x._num[0] * n, x._den * d)
    return _vector_value(x.ctx, [n * v for v in x._num], x._den * d)


def _divided(x: TowerReal, n: int, d: int) -> TowerReal:
    """x / (n/d) for d > 0."""
    if not n:
        raise ZeroDivisionError("division by zero in tower field")
    return _scale(x, d, n)


def _sum(a: TowerReal, b: TowerReal, s: int) -> TowerReal:
    """a + s*b for s = +-1."""
    ca, cb = a.ctx, b.ctx
    if cb is _BASE_CTX:
        return _shift(a, 1, s * b._num[0], b._den)
    if ca is _BASE_CTX:
        return _shift(b, s, a._num[0], a._den)
    if ca is cb:
        return _vcombine(ca, a._num, a._den, b._num, b._den, s)
    ctx, (xn, xd), (yn, yd) = TowerReal._merge(a, b)
    if len(xn) < len(yn):
        xn = [*xn, *[0] * (len(yn) - len(xn))]
    elif len(yn) < len(xn):
        yn = [*yn, *[0] * (len(xn) - len(yn))]
    return _vcombine(ctx, xn, xd, yn, yd, s)


def _times(a: TowerReal, b: TowerReal) -> TowerReal:
    """a * b."""
    ca, cb = a.ctx, b.ctx
    if cb is _BASE_CTX:
        return _scale(a, b._num[0], b._den)
    if ca is _BASE_CTX:
        return _scale(b, a._num[0], a._den)
    if ca is cb:
        ctx, xn, xd, yn, yd = ca, a._num, a._den, b._num, b._den
    else:
        ctx, (xn, xd), (yn, yd) = TowerReal._merge(a, b)
    z, s = _product(ctx, xn, yn)
    return _vector_value(ctx, z, s * xd * yd)


def _quotient(a: TowerReal, b: TowerReal) -> TowerReal:
    """a / b; ZeroDivisionError when b is zero."""
    ca, cb = a.ctx, b.ctx
    if cb is _BASE_CTX:
        return _divided(a, b._num[0], b._den)
    if ca is cb or ca is _BASE_CTX:
        return TowerReal._divide(cb, (a._num, a._den), (b._num, b._den))
    return TowerReal._divide(*TowerReal._merge(a, b))


def _value_key(x: TowerReal) -> tuple:
    """A hashable key: equal keys mean equal values.  Within one tower chain
    (contexts that are prefixes of one another, as one ``FieldBuilder``'s
    are) each value has one canonical form over its least prefix, so equal
    values have equal keys; across chains, such as (2, 3) and (3, 2), not."""
    return (x.ctx, x._num, x._den)


def _coordinate_rows(ctx: TowerContext, values: Sequence[TowerReal]) -> list[list[int]]:
    """The integer coordinates of ``values``, each over a prefix of ``ctx`` as
    one ``FieldBuilder``'s values are, over one common denominator and padded
    with zeros to ``ctx``'s 2**depth basis products: a rational combination
    of the values is zero exactly when that combination of the rows is."""
    size, d = 1 << ctx.depth, lcm(*(v._den for v in values))
    return [[c * (d // v._den) for c in v._num] + [0] * (size - len(v._num)) for v in values]


def exactify(value: Union[TowerReal, Rationalish]) -> TowerReal:
    if isinstance(value, TowerReal):
        return value
    return TowerReal.from_rational(value)


# ---------------------------------------------------------------------------
# Square roots inside a tower: a lookup for a radicand of the chain, else for
# a child of its context, else denesting on values over prefix contexts.  A
# merge takes one per level.


def _join(ctx: TowerContext, p: TowerReal, q: TowerReal) -> TowerReal:
    """p + q*sqrt(top radicand) over ``ctx``, for p and q one level down."""
    h = 1 << (ctx.depth - 1)
    d = lcm(p._den, q._den)
    num = [c * (d // p._den) for c in p._num]
    num += [0] * (h - len(num))
    num += [c * (d // q._den) for c in q._num]
    num += [0] * (2 * h - len(num))
    return _vector_value(ctx, num, d)


def _split(x: TowerReal, ctx: TowerContext) -> tuple[TowerReal, TowerReal, TowerReal]:
    """(p, q, r) one level below ``ctx`` with x == p + q*sqrt(r), r the top
    radicand of ``ctx``, for x over a prefix of ``ctx``."""
    lower, h = ctx.prefix(ctx.depth - 1), 1 << (ctx.depth - 1)
    R, e = ctx._rads[-1]
    p = _vector_value(lower, list(x._num[:h]), x._den)
    q = _vector_value(lower, list(x._num[h:]) or [0], x._den)
    return p, q, _vector_value(lower, list(R), e)


def _sqrt_try(x: TowerReal, ctx: TowerContext) -> Optional[TowerReal]:
    """The y >= 0 of ``ctx``'s field with y*y == x, for x over a prefix of
    ``ctx``, or None if x is not a square there."""
    k = ctx.depth
    if k == 0:
        f = x.as_fraction()
        if f < 0:
            return None
        n, d = f.numerator, f.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return TowerReal.from_rational(Fraction(rn, rd))
        return None
    lower = ctx.prefix(k - 1)
    p, q, r = _split(x, ctx)
    if q.is_zero():
        s = _sqrt_try(p, lower)
        if s is not None:
            return s
        # x = t*sqrt(r) requires t**2 = p / r
        t = _sqrt_try(p / r, lower)
        return None if t is None else _join(ctx, q, t)
    d2 = p * p - q * q * r
    if d2.sign() < 0:
        return None
    s = _sqrt_try(d2, lower)
    if s is None:
        return None
    for c2 in ((p + s) / 2, (p - s) / 2):
        if c2.sign() <= 0:
            continue
        c = _sqrt_try(c2, lower)
        if c is None:
            continue
        cand = _join(ctx, c, q / 2 / c)
        if cand * cand == x:
            return -cand if cand.sign() < 0 else cand
    return None


def _image(v, roots):
    """The vector v of a source context mapped by halves, low + high*t, with
    roots[i] the image t_i of source level i's root."""
    h = len(v) >> 1
    if h == 0:
        return v[0]
    low, high = _image(v[:h], roots), v[h:]
    return low + _image(high, roots) * roots[h.bit_length() - 1] if any(high) else low


class FieldBuilder:
    """Accumulates one growing tower context; used to keep related values
    (a whole search, a whole JSON file) inside a single shared field."""

    def __init__(self, ctx: TowerContext = _BASE_CTX):
        self.ctx = ctx

    def const(self, value: Rationalish) -> TowerReal:
        return TowerReal.from_rational(value)

    def embed(self, value: Union[TowerReal, Rationalish]) -> TowerReal:
        """``value`` in this tower: each source radicand R_i/e_i is mapped, lowest
        level first, and its root t_i taken once; vectors map as low + high*t_top.
        The first merge of a context pair stores the roots and the final
        context in ``_embeds``, and a repeat merge of that pair reuses them."""
        value = exactify(value)
        if value.depth <= self.ctx.depth and self.ctx.prefix(value.depth) is value.ctx:
            return value
        start = self.ctx
        memo = start._embeds.get(value.ctx)
        if memo is None:
            roots = []
            for R, e in value.ctx._rads:
                roots.append(self.sqrt(_image(R, roots) * Fraction(1, e)))
            memo = start._embeds[value.ctx] = (self.ctx, tuple(roots))
        self.ctx, roots = memo
        return _image(value._num, roots) * Fraction(1, value._den)

    def sqrt(self, value: Union[TowerReal, Rationalish]) -> TowerReal:
        """The root >= 0; a radicand already in the chain gives its t_j at once,
        and one adjoined to this context before gives its interned child's."""
        value = self.embed(value)
        j = self.ctx._levels.get((value._num, value._den))
        if j is not None:
            return _value(self.ctx.prefix(j + 1), (0,) * (1 << j) + (1,) + (0,) * ((1 << j) - 1), 1)
        sg = value.sign()
        if sg < 0:
            raise NegativeSqrtError("sqrt of a negative tower value")
        if sg == 0:
            return self.const(0)
        k, fr, v = self.ctx.depth, value.as_fraction(), value._num
        d = 1 if fr is None else fr.denominator
        top = [0] * (2 << k)
        top[1 << k] = 1
        # a rational n/d would be stored as n*d, its root taken as sqrt(n*d)/d
        rad = (v, value._den) if fr is None else ((fr.numerator * d,), 1)
        child = TowerContext._interned.get(self.ctx._rads + (rad,))
        if child is None:
            found = _sqrt_try(value, self.ctx)
            if found is not None:
                return found
            if fr is not None:
                top[1 << k], sf = squarefree_decompose(fr.numerator * d)
                rad = ((sf,), 1)
            child = TowerContext.get(self.ctx._rads + (rad,))
        self.ctx = child
        return _vector_value(child, top, d)


def sqrt_adjoin(value: Union[TowerReal, Rationalish]) -> TowerReal:
    """Exact square root; reuses the existing tower when the argument is a
    perfect square there, otherwise adjoins one new level."""
    value = exactify(value)
    return FieldBuilder(value.ctx).sqrt(value)


# ---------------------------------------------------------------------------
# KElement: the multiquadratic field in squarefree-basis normal form.


class KElement:
    """A finite sum of coeff * sqrt(d) terms with d squarefree, d=1 rational.

    The representation is canonical, so equality is structural; a rational
    element hashes like its Fraction.  ``+ - * /`` run on ``TowerReal``:
    both operands are lifted into one ``FieldBuilder`` chain and the result
    is read back by ``_read_k``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[dict, Iterable[tuple[int, Rationalish]], None] = None):
        folded: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for d, coeff in items:
            if d < 1:
                raise ValueError("radicands in KElement must be positive integers")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            s, sf = squarefree_decompose(d)
            if s != 1:
                coeff *= s
            folded[sf] = folded[sf] + coeff if sf in folded else coeff
        self._terms = tuple(sorted((d, c) for d, c in folded.items() if c != 0))

    @classmethod
    def from_rational(cls, value: Rationalish) -> "KElement":
        return cls([(1, Fraction(value))])

    @classmethod
    def sqrt_of(cls, d: int, coeff: Rationalish = 1) -> "KElement":
        return cls([(d, Fraction(coeff))])

    @classmethod
    def zero(cls) -> "KElement":
        return cls()

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    def coefficient(self, d: int) -> Fraction:
        for dd, c in self._terms:
            if dd == d:
                return c
        return _ZERO

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(d == 1 for d, _ in self._terms)

    def rational_part(self) -> Fraction:
        return self.coefficient(1)

    def _coerce(self, other) -> Optional["KElement"]:
        if isinstance(other, KElement):
            return other
        if isinstance(other, (int, Fraction)):
            return KElement.from_rational(other)
        return None

    def _combine(self, other, s: int):
        """self + s*other for s = +-1."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        builder = FieldBuilder()
        return _read_k(self._tower(builder) + s * o._tower(builder))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return KElement([(d, -c) for d, c in self._terms])

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        builder = FieldBuilder()
        return _read_k(self._tower(builder) * o._tower(builder))

    __rmul__ = __mul__

    def inverse(self) -> "KElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in K")
        return _read_k(1 / self.to_tower())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like one
        if self.is_rational():
            return hash(self.rational_part())
        return hash(self._terms)

    def _tower(self, builder: FieldBuilder) -> TowerReal:
        return sum((c if d == 1 else c * builder.sqrt(d) for d, c in self._terms),
                   builder.const(0))

    def to_tower(self) -> TowerReal:
        return self._tower(FieldBuilder())

    def __float__(self) -> float:
        return float(self.to_tower())

    def __repr__(self) -> str:
        from .literals import format_k_element

        return f"KElement({format_k_element(self)})"


def _read_k(value: TowerReal) -> Optional[KElement]:
    """The squarefree-basis normal form, or None if a nonzero coordinate of
    the value involves a nested (non-rational) radicand.  A value over a
    nested tower is read off too when its nonzero coordinates sit only on
    products of rational radicands.  The product is kept squarefree as it
    is read, sqrt(d) * sqrt(R) = g * sqrt((d/g) * (R/g)) for g = gcd(d, R),
    so radicands sharing a large prime still factor.  Raises
    ``SquarefreeBoundError`` when a product of radicands cannot be factored
    within the bound."""
    rads = value.ctx._rads
    terms = []
    for m, c in enumerate(value._num):
        if c:
            d = 1
            for i, (R, e) in enumerate(rads):
                if m >> i & 1:
                    if len(R) != 1 or e != 1:
                        return None
                    g = gcd(d, R[0])
                    d = (d // g) * (R[0] // g)
                    c *= g
            terms.append((d, Fraction(c, value._den)))
    return KElement(terms)


def tower_to_k(value: TowerReal) -> Optional[KElement]:
    """``_read_k``, with None also for a product of radicands that cannot
    be factored within the bound."""
    try:
        return _read_k(value)
    except SquarefreeBoundError:
        return None


def k_membership(value: TowerReal, basis: Iterable[int]) -> Optional[KElement]:
    """Express ``value`` as a rational combination of sqrt(d) for d in
    ``basis`` (1 meaning the rational part), or return None.

    The value is embedded in one tower that starts with the basis's square
    roots.  A value of that field has zero coordinates on every later level,
    so it lands in the flat tower of the basis, where ``tower_to_k`` reads
    it off; it is a member when every radicand read off is in the basis.
    """
    basis = {squarefree_decompose(d)[1] for d in basis} | {1}
    builder = FieldBuilder()
    for d in sorted(basis):
        builder.sqrt(d)
    result = tower_to_k(builder.embed(value))
    if result is None or any(d not in basis for d, _ in result.terms):
        return None
    # paranoia: confirm the reconstruction
    if not (result.to_tower() - value).is_zero():
        return None
    return result
