"""Independent answer checks for the benchmark.

Nothing here calls equicut.  Each oracle recomputes what an answer claims
from first principles, so a fault in the program's own verifier cannot hide
a wrong answer:

* rep-tile counts from the Snover-Waiveris-Williams classification
  (Discrete Math. 91, 1991) and a float geometry check of each dissection;
* brute-force integer relations over the full coefficient box, evaluated
  with mpmath at high precision;
* mpmath evaluation of a tower recipe and of an exact number literal.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np

DIGITS = 60  # mpmath working precision for every high-precision check
ZERO_TOL = mpmath.mpf(10) ** -40  # |value| below this counts as an exact zero
GEOM_TOL = 1e-9  # float geometry tolerance on a triangle of unit scale


# ---------------------------------------------------------------------------
# Rep-tile classification and float geometry.


def rep_tile_exists(kind: str, legs, m: int) -> bool:
    """True when a triangle of ``kind`` cuts into ``m`` pieces similar to
    itself: always for squares, for ``t**2 * (p**2 + q**2)`` when the
    triangle is right with legs ``p:q``, and for ``3 * t**2`` when it is the
    30-60-90 triangle."""
    if isqrt(m) ** 2 == m:
        return True
    if kind == "30-60-90":
        return m % 3 == 0 and isqrt(m // 3) ** 2 == m // 3
    if kind == "right":
        p, q = legs
        base = p * p + q * q
        return m % base == 0 and isqrt(m // base) ** 2 == m // base
    return False


def _area2(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _separated(t1, t2) -> bool:
    """Float separating-axis test: True when the interiors are disjoint up
    to the tolerance."""
    for tri in (t1, t2):
        for i in range(3):
            e = (tri[(i + 1) % 3][0] - tri[i][0], tri[(i + 1) % 3][1] - tri[i][1])
            n = (-e[1], e[0])
            scale = math.hypot(*n)
            p1 = [(n[0] * v[0] + n[1] * v[1]) / scale for v in t1]
            p2 = [(n[0] * v[0] + n[1] * v[1]) / scale for v in t2]
            if max(p1) <= min(p2) + GEOM_TOL or max(p2) <= min(p1) + GEOM_TOL:
                return True
    return False


def dissection_problems(region, pieces, m: int, tile_sides) -> list[str]:
    """Float check that ``pieces`` tile ``region`` with ``m`` copies of the
    triangle with side lengths ``tile_sides``.

    ``region`` is three (x, y) float pairs and ``pieces`` a list of such
    triples.  Checks piece count, side lengths, containment, pairwise
    interior-disjointness and total area; together they force a tiling.
    """
    out = []
    if len(pieces) != m:
        out.append(f"{len(pieces)} pieces, expected {m}")
    want = sorted(tile_sides)
    region_area = abs(_area2(*region)) / 2
    orient = 1.0 if _area2(*region) > 0 else -1.0
    total = 0.0
    for idx, tri in enumerate(pieces):
        sides = sorted(math.dist(tri[i], tri[(i + 1) % 3]) for i in range(3))
        if any(abs(s - w) > GEOM_TOL for s, w in zip(sides, want)):
            out.append(f"piece {idx} has sides {sides}, expected {want}")
        for v in tri:
            for i in range(3):
                if orient * _area2(region[i], region[(i + 1) % 3], v) < -GEOM_TOL:
                    out.append(f"piece {idx} leaves the region")
                    break
        total += abs(_area2(*tri)) / 2
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if not _separated(pieces[i], pieces[j]):
            out.append(f"pieces {i} and {j} overlap")
    if abs(total - region_area) > GEOM_TOL:
        out.append(f"piece areas sum to {total}, region area is {region_area}")
    return out


# ---------------------------------------------------------------------------
# Integer relations by brute force.


def canonical(coeffs) -> tuple[int, ...] | None:
    """The sign-normalised form of a coefficient vector: first nonzero entry
    positive; None for the negated twin and for the zero vector."""
    for c in coeffs:
        if c:
            return tuple(coeffs) if c > 0 else None
    return None


def relations_by_brute_force(values, height: int, keep=None) -> set[tuple[int, ...]]:
    """Every canonical integer vector ``c`` with ``max|c_i| <= height`` and
    ``sum c_i * v_i == 0``, for mpmath ``values``.

    Meet in the middle over the whole coefficient box: the half sums are
    formed in float64, every pair within 1e-9 of cancelling is kept (float
    rounding is below 1e-12 at these magnitudes, so no zero is lost), and
    each kept vector is re-evaluated at ``DIGITS`` digits and accepted only
    below ``ZERO_TOL``.
    """
    n = len(values)
    split = n // 2
    box = range(-height, height + 1)
    floats = np.array([float(v) for v in values])

    def half(cols):
        vecs = np.array(list(itertools.product(box, repeat=len(cols))), dtype=np.int64)
        return vecs, vecs.astype(np.float64) @ floats[cols]

    left, lsum = half(list(range(split)))
    right, rsum = half(list(range(split, n)))
    order = np.argsort(rsum)
    rsorted = rsum[order]
    lo = np.searchsorted(rsorted, -lsum - 1e-9, side="left")
    hi = np.searchsorted(rsorted, -lsum + 1e-9, side="right")
    found = set()
    with mpmath.workdps(DIGITS):
        for i in np.nonzero(hi > lo)[0]:
            for j in order[lo[i] : hi[i]]:
                vec = canonical(tuple(int(c) for c in left[i]) + tuple(int(c) for c in right[j]))
                if vec is None or (keep is not None and not keep(vec)):
                    continue
                if abs(mpmath.fsum(c * v for c, v in zip(vec, values))) < ZERO_TOL:
                    found.add(vec)
    return found


def vanishes(vec, values) -> bool:
    with mpmath.workdps(DIGITS):
        return abs(mpmath.fsum(c * v for c, v in zip(vec, values))) < ZERO_TOL


def angle_values(a2: Fraction, b2: Fraction):
    """(alpha, beta, pi) at ``DIGITS`` digits for the triangle with squared
    sides (a2, b2, 1); alpha and beta are opposite a and b."""
    with mpmath.workdps(DIGITS + 10):
        a2m, b2m = mpmath.mpf(a2.numerator) / a2.denominator, mpmath.mpf(b2.numerator) / b2.denominator
        alpha = mpmath.acos((b2m + 1 - a2m) / (2 * mpmath.sqrt(b2m)))
        beta = mpmath.acos((a2m + 1 - b2m) / (2 * mpmath.sqrt(a2m)))
        return [+alpha, +beta, +mpmath.pi]


def side_values(a2: Fraction, b2: Fraction, basis):
    """(a, b, sqrt(d) for d in basis) at ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS + 10):
        vals = [mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator) for x in (a2, b2)]
        return vals + [mpmath.sqrt(d) for d in basis]


def radical_sum(terms):
    """mpmath value of ``sum c * sqrt(d)`` over ``(d, c)`` pairs."""
    with mpmath.workdps(DIGITS + 10):
        return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d) for d, c in terms)


def squarefree_part(d: int) -> int:
    out, p = 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
        if d % p == 0:
            out *= p
            d //= p
        p += 1
    return out * d


# ---------------------------------------------------------------------------
# Tower recipes and number literals.


def recipe_value(recipe):
    """mpmath value of a tower recipe ``(c0, ((c, r), ...), nested)``:
    ``v = c0 + sum c*sqrt(r)``, plus ``sqrt(v*v + 1)`` when ``nested``."""
    c0, terms, nested = recipe
    with mpmath.workdps(DIGITS + 10):
        v = mpmath.mpf(c0.numerator) / c0.denominator
        for c, r in terms:
            v += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
        if nested:
            v += mpmath.sqrt(v * v + 1)
        return +v


_LITERAL = re.compile(r"^[0-9sqrt+\-*/() ]*$")


def literal_value(text: str):
    """mpmath value of an exact number literal (digits, + - * /, parentheses
    and sqrt), evaluated with every integer promoted to an mpf."""
    if not _LITERAL.match(text):
        raise ValueError(f"unexpected characters in literal {text!r}")
    expr = re.sub(r"(\d+)", r"mpf(\1)", text)
    with mpmath.workdps(DIGITS + 10):
        return +eval(expr, {"__builtins__": {}}, {"mpf": mpmath.mpf, "sqrt": mpmath.sqrt})


def encloses(interval, value) -> bool:
    """True when the rational enclosure (lo, hi) holds the mpmath value up
    to ``ZERO_TOL``."""
    lo, hi = interval
    with mpmath.workdps(DIGITS):
        lo_m = mpmath.mpf(lo.numerator) / lo.denominator
        hi_m = mpmath.mpf(hi.numerator) / hi.denominator
        return lo_m - ZERO_TOL <= value <= hi_m + ZERO_TOL
