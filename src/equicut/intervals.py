"""Rigorous numerics: enclosure sources and transcendental enclosures.

``NumericReal`` is a real number known only through a refinement callback
that returns an enclosure of any requested width, cached per precision.  It
has no arithmetic of its own: ``TowerReal`` is the package's one number
algebra.  A ``NumericReal`` is what the relation finder reads: an exact
value (``from_exact``), an angle ``acos_numeric`` builds with its exact
cosine, pi (``trispace.pi_numeric``), or a bare float's fixed interval.

The interval type ``RatInterval`` and the bounded refinement loop
``_refine_to`` (with ``MAX_WORK_BITS`` and ``RefinementLimitError``) live in
``exact``, whose sign fast path uses them too; they are re-exported here.

Transcendental values (pi, acos) come from mpmath evaluated at elevated
working precision and are then padded outward by a full 2**-bits, several
orders of magnitude beyond mpmath's documented few-ulp error, so the returned
intervals are trustworthy enclosures.  An enclosure of acos over an interval
takes one evaluation, at an end rounded outward onto the 2**-(bits+16) grid,
and reaches the other end by the mean value theorem: the grid width times a
bound on the derivative, rounded up through ``isqrt``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Union

import mpmath

from .exact import (
    MAX_WORK_BITS,
    RatInterval,
    RefinementLimitError,
    TowerReal,
    _refine_to,
)

__all__ = [
    "MAX_WORK_BITS",
    "NumericReal",
    "RatInterval",
    "RefinementLimitError",
    "acos_interval",
    "acos_numeric",
    "mpf_to_fraction",
    "pi_interval",
]

_ZERO = Fraction(0)

_GUARD_BITS = 16
# the last enclosure ``NumericReal.__float__`` takes
_FLOAT_CAP_BITS = 2048


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact conversion of a finite mpf to a Fraction."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        if exp != 0:
            raise ValueError("cannot convert non-finite mpf")
        return _ZERO
    value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -value if sign else value


def pi_interval(bits: int) -> RatInterval:
    eps = Fraction(1, 1 << bits)
    with mpmath.workprec(bits + _GUARD_BITS):
        approx = mpf_to_fraction(+mpmath.pi)
    return RatInterval(approx - eps, approx + eps)


def _grid(x: RatInterval, p: int) -> tuple[int, int]:
    """The ends of ``x`` rounded outward onto the 2**-p grid, as the integers
    n of n / 2**p, so functions are evaluated at exact machine inputs."""
    lo, hi = x
    return (lo.numerator << p) // lo.denominator, -((-hi.numerator << p) // hi.denominator)


def _at(f: Callable, n: int, p: int) -> Fraction:
    """``f`` at the grid point n / 2**p, evaluated at p + 8 working bits."""
    with mpmath.workprec(p + 8):
        return mpf_to_fraction(f(mpmath.ldexp(n, -p)))


def acos_interval(x: RatInterval, bits: int) -> RatInterval:
    """Enclosure of acos over ``x`` (clamped into [-1, 1]).  acos is
    decreasing, so its value at the lower end is the upper end, and the
    lower end lies below it by at most the width times sup |acos'| =
    1 / sqrt(1 - xi**2), xi the end nearer +-1.  Only when xi reaches +-1,
    where acos' has no bound, is the upper end evaluated as well."""
    p = bits + _GUARD_BITS
    one = 1 << p
    lo_n, hi_n = (min(max(n, -one), one) for n in _grid(x, p))
    eps = Fraction(1, 1 << bits)
    top = _at(mpmath.acos, lo_n, p)
    root = isqrt(one * one - max(lo_n * lo_n, hi_n * hi_n))  # 2**p / root >= sup |acos'|
    if root:
        bottom = top - Fraction(-((lo_n - hi_n) << (p + 8)) // root, 1 << (p + 8))
    else:
        bottom = _at(mpmath.acos, hi_n, p)
    lo = max(_ZERO, bottom - eps)
    return RatInterval(lo, max(lo, top + eps))


ExactLike = Union[TowerReal, Fraction, int]


class NumericReal:
    """A real number accessible only through arbitrarily precise enclosures.

    The refinement callback receives a target ``bits`` and must return an
    enclosure of width at most 2**-bits.  Results are cached per precision.
    ``exact_backing`` is the value itself when it is exact; ``cosine`` is the
    exact cosine of an angle built by ``acos_numeric`` or ``pi_numeric``,
    which lets the relation finder decide angle relations exactly.
    """

    __slots__ = ("_refine", "_cache", "exact_backing", "cosine")

    def __init__(
        self,
        refine: Callable[[int], RatInterval],
        exact_backing: Union[TowerReal, None] = None,
        cosine: Union[TowerReal, None] = None,
    ):
        self._refine = refine
        self._cache: dict[int, RatInterval] = {}
        self.exact_backing = exact_backing
        self.cosine = cosine

    @classmethod
    def from_exact(cls, value: ExactLike) -> "NumericReal":
        if not isinstance(value, TowerReal):
            value = TowerReal.from_rational(value)
        return cls(value.enclosure, exact_backing=value)

    def enclosure(self, bits: int) -> RatInterval:
        iv = self._cache.get(bits)
        if iv is None:
            iv = self._refine(bits)
            self._cache[bits] = iv
        return iv

    def __float__(self) -> float:
        """Within one ulp: the exact backing's float, else the midpoint of
        the first enclosure from 64 bits up whose width is at most 2**-60
        of its magnitude, so that it excludes 0.  A numeric zero, whose
        enclosures all straddle 0, never gets one; it stops at 2**-2048,
        well below the spacing of the smallest subnormal float, and gives
        the midpoint."""
        if self.exact_backing is not None:
            return float(self.exact_backing)

        def attempt(bits):
            iv = self.enclosure(bits)
            if bits >= _FLOAT_CAP_BITS or iv.width * (1 << 60) <= min(abs(iv.lo), abs(iv.hi)):
                return iv
            return None

        # _refine_to starts at 62 + 2 = 64 bits and doubles
        return float(_refine_to(62, attempt).mid)

    def __repr__(self) -> str:
        iv = self.enclosure(64)
        return f"NumericReal(~{float(iv.mid)!r})"


def acos_numeric(x: NumericReal) -> NumericReal:
    """acos(x), enclosed by ``acos_interval``; an exact ``x`` (its
    ``exact_backing``) is kept as the angle's exact ``cosine``."""
    return NumericReal(
        lambda bits: _refine_to(bits, lambda work: acos_interval(x.enclosure(work), work)),
        cosine=x.exact_backing,
    )

