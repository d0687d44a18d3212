"""The Fraction-leaf recursion on raw nested pairs: the tower arithmetic
that ``equicut.exact`` ran on nested towers before every value became an
integer vector.  The differential tests check the vectors against it.

A raw value at level 0 is a Fraction; at level k it is a pair (p, q) of
level-(k-1) values meaning p + q*sqrt(rads[k-1]), where ``rads`` is a
context's ``radicands``.  The kernel computes only with integer vectors and
offers this form as an output view (``TowerReal.raw``,
``TowerContext.radicands``); ``value(ctx, raw)`` and ``context(radicands)``
turn raw input into the kernel's values and contexts.  ``ReferenceBuilder``
is ``FieldBuilder`` on raw values: its ``sqrt`` and ``embed`` give the
radicands and raw values the kernel must reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from equicut.exact import NegativeSqrtError, TowerContext, TowerReal, _vector_value, squarefree_decompose

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def rconst(c: Fraction, k: int):
    """The rational c as a level-k raw value."""
    if k == 0:
        return c
    return (rconst(c, k - 1), rconst(_ZERO, k - 1))


def rflatten(x, k: int, out: list) -> None:
    """Append the 2**k coordinates of the level-k raw value x to ``out``."""
    if k == 0:
        out.append(x)
        return
    rflatten(x[0], k - 1, out)
    rflatten(x[1], k - 1, out)


def vector(raw, k: int) -> tuple[list[int], int]:
    """(num, den) with the level-k raw value equal to num/den coordinatewise;
    gcd(den, *num) == 1."""
    coords: list[Fraction] = []
    rflatten(raw, k, coords)
    den = lcm(*[c.denominator for c in coords])
    return [c.numerator * (den // c.denominator) for c in coords], den


def value(ctx: TowerContext, raw) -> TowerReal:
    """The level-``ctx.depth`` raw value as a kernel value, in canonical form
    over the least prefix of ``ctx`` that holds it."""
    return _vector_value(ctx, *vector(raw, ctx.depth))


def context(radicands: tuple) -> TowerContext:
    """The interned context whose radicand i is the level-i raw value
    ``radicands[i]``; the caller vouches that none is a square."""
    ctx = TowerContext.get(())
    for rad in radicands:
        r = value(ctx, rad)
        ctx = TowerContext.get(ctx._rads + ((r._num, r._den),))
    return ctx


def riszero(x, k: int) -> bool:
    if k == 0:
        return x == 0
    return riszero(x[0], k - 1) and riszero(x[1], k - 1)


def radd(x, y, k: int):
    if k == 0:
        return x + y
    return (radd(x[0], y[0], k - 1), radd(x[1], y[1], k - 1))


def rneg(x, k: int):
    if k == 0:
        return -x
    return (rneg(x[0], k - 1), rneg(x[1], k - 1))


def rsub(x, y, k: int):
    if k == 0:
        return x - y
    return (rsub(x[0], y[0], k - 1), rsub(x[1], y[1], k - 1))


def rscale(x, c: Fraction, k: int):
    if k == 0:
        return x * c
    return (rscale(x[0], c, k - 1), rscale(x[1], c, k - 1))


def rmul(x, y, k: int, rads):
    if k == 0:
        return x * y
    p1, q1 = x
    p2, q2 = y
    r = rads[k - 1]
    pp = rmul(p1, p2, k - 1, rads)
    qq = rmul(q1, q2, k - 1, rads)
    cross = radd(rmul(p1, q2, k - 1, rads), rmul(q1, p2, k - 1, rads), k - 1)
    return (radd(pp, rmul(qq, r, k - 1, rads), k - 1), cross)


def rinv(x, k: int, rads):
    if k == 0:
        if x == 0:
            raise ZeroDivisionError("division by zero in tower field")
        return 1 / x
    p, q = x
    if riszero(q, k - 1):
        return (rinv(p, k - 1, rads), q)
    r = rads[k - 1]
    den = rsub(rmul(p, p, k - 1, rads), rmul(rmul(q, q, k - 1, rads), r, k - 1, rads), k - 1)
    iden = rinv(den, k - 1, rads)
    return (rmul(p, iden, k - 1, rads), rneg(rmul(q, iden, k - 1, rads), k - 1))


def rsign(x, k: int, rads) -> int:
    if k == 0:
        return (x > 0) - (x < 0)
    p, q = x
    sq = rsign(q, k - 1, rads)
    if sq == 0:
        return rsign(p, k - 1, rads)
    sp = rsign(p, k - 1, rads)
    if sp == 0:
        return sq
    if sp == sq:
        return sp
    # p and q*sqrt(r) pull in opposite directions; compare p**2 with q**2*r.
    d = rsub(rmul(p, p, k - 1, rads), rmul(rmul(q, q, k - 1, rads), rads[k - 1], k - 1, rads), k - 1)
    sd = rsign(d, k - 1, rads)
    if sd == 0:
        raise AssertionError("radicand was a perfect square at its own level")
    return sp * sd


def rasfrac(x, k: int) -> Optional[Fraction]:
    if k == 0:
        return x
    if not riszero(x[1], k - 1):
        return None
    return rasfrac(x[0], k - 1)


def rhalf(x, k: int):
    return rscale(x, _HALF, k)


def lift(raw, k: int, to_k: int):
    """The level-k raw value as a level-``to_k`` one."""
    for j in range(k, to_k):
        raw = (raw, rconst(_ZERO, j))
    return raw


def strip(raw, k: int) -> tuple:
    """(raw, k) with zero top halves removed, as a value stores itself."""
    while k > 0 and riszero(raw[1], k - 1):
        raw = raw[0]
        k -= 1
    return raw, k


def rsqrt_try(x, k: int, rads):
    """Return a raw y >= 0 with y*y == x, or None if x is not a square here."""
    if k == 0:
        if x < 0:
            return None
        n, d = x.numerator, x.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None
    p, q = x
    r = rads[k - 1]
    zero = rconst(_ZERO, k - 1)
    if riszero(q, k - 1):
        s = rsqrt_try(p, k - 1, rads)
        if s is not None:
            return (s, zero)
        # x = t*sqrt(r) requires t**2 = p / r
        pr = rmul(p, rinv(r, k - 1, rads), k - 1, rads)
        t = rsqrt_try(pr, k - 1, rads)
        if t is not None:
            return (zero, t)
        return None
    d2 = rsub(rmul(p, p, k - 1, rads), rmul(rmul(q, q, k - 1, rads), r, k - 1, rads), k - 1)
    if rsign(d2, k - 1, rads) < 0:
        return None
    s = rsqrt_try(d2, k - 1, rads)
    if s is None:
        return None
    for c2 in (rhalf(radd(p, s, k - 1), k - 1), rhalf(rsub(p, s, k - 1), k - 1)):
        if rsign(c2, k - 1, rads) <= 0:
            continue
        c = rsqrt_try(c2, k - 1, rads)
        if c is None:
            continue
        dd = rmul(rhalf(q, k - 1), rinv(c, k - 1, rads), k - 1, rads)
        cand = (c, dd)
        if riszero(rsub(rmul(cand, cand, k, rads), x, k), k):
            if rsign(cand, k, rads) < 0:
                cand = rneg(cand, k)
            return cand
    return None


class ReferenceBuilder:
    """``FieldBuilder`` on raw values.  Values are (raw, k) pairs at level k
    of ``self.rads``, stripped of zero top halves."""

    def __init__(self, rads: tuple = ()):
        self.rads = rads

    def _lifted(self, value) -> tuple:
        raw, k = value
        return lift(raw, k, len(self.rads))

    def embed(self, value, src_rads: tuple):
        """A value (raw, k) of the tower ``src_rads``, in this builder's."""
        raw, k = value
        if k <= len(self.rads) and self.rads[:k] == src_rads[:k]:
            return value

        def go(raw, k: int):
            if k == 0:
                return raw, 0
            p, q = raw
            pv, qv = go(p, k - 1), go(q, k - 1)
            sv = self.sqrt(go(src_rads[k - 1], k - 1))
            n = len(self.rads)
            prod = rmul(self._lifted(qv), self._lifted(sv), n, self.rads)
            return strip(radd(self._lifted(pv), prod, n), n)

        return go(raw, k)

    def sqrt(self, value, src_rads: Optional[tuple] = None):
        value = self.embed(value, self.rads if src_rads is None else src_rads)
        k = len(self.rads)
        raw = self._lifted(value)
        sg = rsign(raw, k, self.rads)
        if sg < 0:
            raise NegativeSqrtError("sqrt of a negative tower value")
        if sg == 0:
            return _ZERO, 0
        found = rsqrt_try(raw, k, self.rads)
        if found is not None:
            return strip(found, k)
        fr = rasfrac(raw, k)
        zero = rconst(_ZERO, k)
        if fr is not None:
            s, d = squarefree_decompose(fr.numerator * fr.denominator)
            self.rads += (rconst(Fraction(d), k),)
            return (zero, rconst(Fraction(s, fr.denominator), k)), k + 1
        self.rads += (raw,)
        return (zero, rconst(Fraction(1), k)), k + 1
