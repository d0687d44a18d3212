"""The verifier as ``equicut`` ran it before its checks moved onto
orientation signs and shared edges.  The differential tests check the
current verifier against it.

``triangles_interior_disjoint`` is the separating-axis test over the six
edge normals, comparing the projections by their float intervals when those
are apart and exactly otherwise.  ``verify_dissection`` compares each
piece's sorted squared sides with piece 0's, boxes each nondegenerate piece
by the ``Fraction`` ends of its coordinates' ``interval(32)`` and sums the
exact |area| of every piece.

The interval chain below is the float filter that ``equicut.geom`` ran
before ``geom._fsign`` became its only one (Broennimann, Burnikel and Pion
2001): every ``+ - *`` on the points' boxes rounded outward by one float
step.  The filter tests check ``_fsign`` against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, nextafter
from typing import List, Sequence, Tuple

from equicut.dissect import (
    FailureKind,
    VerificationFailure,
    VerificationResult,
)
from equicut.exact import TowerReal
from equicut.geom import Location, Pt, Triangle, point_in_triangle
from equicut.literals import format_number


# An interval is a pair (lo, hi) of finite floats enclosing an exact value;
# a box is a tuple of intervals.


def _iv(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened by one float step each way, enclosing the exact result
    of a correctly rounded operation; OverflowError unless both ends are
    finite, so no infinity or NaN ever reaches a decision."""
    lo, hi = nextafter(lo, -inf), nextafter(hi, inf)
    if -inf < lo and hi < inf:
        return lo, hi
    raise OverflowError("interval left the float range")


def _isub(a, b):
    return _iv(a[0] - b[1], a[1] - b[0])


def _imul(a, b):
    # finite ends never give a NaN product, so min and max see every one
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _iv(min(p), max(p))


def _fvec(a, b):
    """Box of the vector b - a, from the boxes of the points a and b."""
    return _isub(b[0], a[0]), _isub(b[1], a[1])


def _fdot(u, w):
    p, q = _imul(u[0], w[0]), _imul(u[1], w[1])
    return _iv(p[0] + q[0], p[1] + q[1])


def _fcross(u, w):
    return _isub(_imul(u[0], w[1]), _imul(u[1], w[0]))


def _box(f, *boxes):
    """f(*boxes), or None when a box is missing or an end overflows."""
    if None in boxes:
        return None
    try:
        return f(*boxes)
    except OverflowError:
        return None


def _certified(f, *boxes) -> int:
    """+1 or -1 when the interval ``_box(f, *boxes)`` excludes 0, else 0."""
    iv = _box(f, *boxes)
    return 0 if iv is None else 1 if iv[0] > 0 else -1 if iv[1] < 0 else 0


def _fprojections(a, b, *pts):
    """Intervals of the projections of pts onto the normal of the edge a->b."""
    ex, ey = _fvec(a, b)
    normal = ((-ey[1], -ey[0]), ex)
    return [_fdot(normal, p) for p in pts]


def _axis_separates(a: Pt, b: Pt, verts1: Sequence[Pt], verts2: Sequence[Pt]) -> bool:
    """Whether the normal of the edge from a to b weakly separates the two
    vertex sets: each projection of one set is <= each of the other.  Two
    projections are compared by their intervals when those are apart, else
    they are equal when the vertices are or both lie on {a, b}, else their
    exact difference is cross(b - a, w - v)."""
    pts = (*verts1, *verts2)
    ivs = _box(_fprojections, *[v._floats() for v in (a, b, *pts)])

    def le(i: int, j: int) -> bool:
        if ivs is not None:
            if ivs[i][1] <= ivs[j][0]:
                return True
            if ivs[i][0] > ivs[j][1]:
                return False
        v, w = pts[i], pts[j]
        if v == w or ((v == a or v == b) and (w == a or w == b)):
            return True
        return (b - a).cross(w - v).sign() >= 0

    pairs = [(i, j) for i in range(len(verts1)) for j in range(len(verts1), len(pts))]
    return all(le(i, j) for i, j in pairs) or all(le(j, i) for i, j in pairs)


def triangles_interior_disjoint(t1: Triangle, t2: Triangle) -> bool:
    """Separating-axis test over the six edge normals of two nondegenerate
    triangles."""
    v1, v2 = t1.vertices, t2.vertices
    for verts in (v1, v2):
        for i in range(3):
            if _axis_separates(verts[i], verts[(i + 1) % 3], v1, v2):
                return True
    return False


def congruent(t1: Triangle, t2: Triangle) -> bool:
    s1 = sorted(t1.sides_squared())
    s2 = sorted(t2.sides_squared())
    return all(a == b for a, b in zip(s1, s2))


def _bbox(tri: Triangle, bits: int = 32) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    xs = [v.x.interval(bits) for v in tri.vertices]
    ys = [v.y.interval(bits) for v in tri.vertices]
    return (
        min(iv.lo for iv in xs),
        max(iv.hi for iv in xs),
        min(iv.lo for iv in ys),
        max(iv.hi for iv in ys),
    )


def _box_pairs(boxes: dict) -> List[Tuple[int, int]]:
    order = sorted(boxes, key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        bi = boxes[i]
        for j in order[k + 1 :]:
            bj = boxes[j]
            if bj[0] >= bi[1]:
                break
            if bi[0] < bj[1] and bi[2] < bj[3] and bj[2] < bi[3]:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def verify_dissection(dissection) -> VerificationResult:
    region = dissection.region.oriented()
    if region.is_degenerate():
        raise ValueError("region triangle is degenerate")
    if not dissection.pieces:
        raise ValueError("dissection has no pieces")
    pieces = dissection.pieces
    failures: List[VerificationFailure] = []

    ref = pieces[0]
    for i, piece in enumerate(pieces[1:], start=1):
        if not congruent(ref, piece):
            failures.append(
                VerificationFailure(
                    FailureKind.CONGRUENCE_MISMATCH,
                    (0, i),
                    f"piece {i} is not congruent to piece 0",
                )
            )

    where = {}
    for i, piece in enumerate(pieces):
        for v in piece.vertices:
            loc = where.get(id(v))
            if loc is None:
                loc = where[id(v)] = point_in_triangle(v, region)
            if loc == Location.OUTSIDE:
                failures.append(
                    VerificationFailure(
                        FailureKind.PIECE_OUTSIDE_REGION,
                        (i,),
                        f"a vertex of piece {i} lies outside the region",
                    )
                )
                break

    boxes = {i: _bbox(p) for i, p in enumerate(pieces) if not p.is_degenerate()}
    pairs = _box_pairs(boxes)
    for i, j in pairs:
        if not triangles_interior_disjoint(pieces[i], pieces[j]):
            failures.append(
                VerificationFailure(
                    FailureKind.PIECE_PAIR_OVERLAP,
                    (i, j),
                    f"pieces {i} and {j} have overlapping interiors",
                )
            )

    total = TowerReal.from_rational(0)
    for piece in pieces:
        area = piece.signed_area()
        if area.sign() < 0:
            area = -area
        total = total + area
    region_area = region.signed_area()
    if total != region_area:
        failures.append(
            VerificationFailure(
                FailureKind.AREA_MISMATCH,
                tuple(range(len(pieces))),
                f"piece areas sum to {format_number(total)} but the region "
                f"area is {format_number(region_area)}",
            )
        )

    return VerificationResult(ok=not failures, failures=failures, pairs_tested=len(pairs))
