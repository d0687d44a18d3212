"""Exact planar geometry over tower-field coordinates.

Every predicate returns a certified answer with no epsilons anywhere:
orientation, points on segments, point location, interior-disjointness of
triangles, congruence, and sqrt-free comparison of angles.

``orientation`` (which also decides ``triangles_interior_disjoint`` and,
cached as ``Triangle._turn``, a triangle's orientation and degeneracy),
``point_on_segment``'s dot test and ``AngleVec``'s dot and cross signs
evaluate their 2x2 determinant once in floats from cached midpoints and radii
(``Pt._centre``), and ``_fsign`` certifies its sign with one error bound
(Shewchuk 1997; Meyer and Pion 2008).  When it cannot decide, or a value
leaves the float range, the exact expression decides; ``AngleVec`` compares
two cosines of one sign exactly.  These are the only callers of ``_fsign``:
other modules take a vector sign from ``orientation`` or ``AngleVec``.  ``_area_sign`` certifies a polygon's
shoelace sign from the same midpoints with a bound of its own.  Each
point's cached float box (``exact._float_bounds``) is only compared, never
computed with: it orders two coordinates (``point_in_polygon``'s half-open
test) when their intervals are apart and rules a point off a segment whose
ends' boxes it lies past.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from math import inf, nextafter
from typing import Optional, Sequence, Union

from .exact import TowerReal, _float_bounds, exactify, sqrt_adjoin

__all__ = [
    "AngleVec",
    "Isometry",
    "Location",
    "Pt",
    "Triangle",
    "congruent",
    "orientation",
    "point_in_polygon",
    "point_in_triangle",
    "point_on_segment",
    "polygon_area",
    "triangles_interior_disjoint",
]

Coord = Union[TowerReal, Fraction, int]


# ---------------------------------------------------------------------------
# The float filter.


_EPS = 2.0**-53  # the unit roundoff of round-to-nearest
_ORIGIN = (0.0, 0.0, 0.0)  # the exact origin as a ``Pt._centre``


def _fsign(o, a, b, dot=False) -> int:
    """Sign of (a - o) x (b - o), or of (a - o) . (b - o) with ``dot``, for
    points given by their ``Pt._centre``; 0 when one is None or the bound
    cannot tell.  The rounded u = a - o and v = b - o are off from the exact
    U and V by at most eps times themselves (nothing when subnormal) plus
    ru = ra + ro, rv = rb + ro.  Expanding, |Ux*Vy - ux*vy| <= (2*eps +
    eps**2)*|ux*vy| + (1 + eps)*(|ux|*rv + |vy|*ru) + ru*rv, and likewise for
    Uy*Vx; p = fl(ux*vy), q = fl(uy*vx) and d = fl(p - q) are off by eps
    times themselves, plus 2**-1075 for a subnormal product.  So d is within
    eps*|d| + 4*eps*(|p| + |q|) + (1 + eps)*(rv*(|ux| + |uy|) + ru*(|vx| +
    |vy|)) + 2*ru*rv + 4 * 2**-1075 of the exact value.  E is that sum in
    round-to-nearest without the factor 1 + eps, times 1 + 2**-40 plus
    2**-1000: that covers the factor and at most 8 roundings per term, each a
    relative eps or a product's 2**-1075 never multiplied again.  So |d| > E
    certifies sign(d).  Radii are positive, so an overflow makes E infinite
    or NaN (inf * 0), and |d| > E fails."""
    if not (o and a and b):
        return 0
    x, y, r = o
    ux, uy, ru, vx, vy, rv = a[0] - x, a[1] - y, a[2] + r, b[0] - x, b[1] - y, b[2] + r
    if dot:
        vx, vy = -vy, vx  # u . v is u x (v turned a quarter), exactly
    p, q = ux * vy, uy * vx
    d = p - q
    m = abs(d)
    e = (
        _EPS * (m + 4 * (abs(p) + abs(q)))
        + rv * (abs(ux) + abs(uy)) + ru * (abs(vx) + abs(vy)) + 2 * ru * rv
    ) * (1 + 2.0**-40) + 2.0**-1000
    return (1 if d > 0 else -1) if m > e else 0


class Pt:
    """A point (or vector) with exact coordinates."""

    __slots__ = ("x", "y", "_box", "_mid")

    def __init__(self, x: Coord, y: Coord):
        self.x = exactify(x)
        self.y = exactify(y)
        self._box = self._mid = False

    def _floats(self):
        """The box (x interval, y interval), built with ``_mid`` on first use, or None."""
        if self._box is False:
            bx, by = _float_bounds(self.x), _float_bounds(self.y)
            self._box = self._mid = bx and by and (bx, by)
            if self._box:
                x, y = bx[0] / 2 + bx[1] / 2, by[0] / 2 + by[1] / 2
                self._mid = x, y, nextafter(max(bx[1] - x, x - bx[0], by[1] - y, y - by[0]), inf)
        return self._box

    def _centre(self):
        """Floats (x, y, r) with |self.x - x| <= r and |self.y - y| <= r, the
        box's midpoints and a radius rounded up, or None without a box."""
        if self._box is False:
            self._floats()
        return self._mid

    def __add__(self, other: "Pt") -> "Pt":
        return _pt(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Pt") -> "Pt":
        return _pt(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: Coord) -> "Pt":
        return _pt(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coord) -> "Pt":
        return _pt(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Pt":
        return _pt(-self.x, -self.y)

    def dot(self, other: "Pt") -> TowerReal:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Pt") -> TowerReal:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> TowerReal:
        return self.dot(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pt):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __repr__(self) -> str:
        from .literals import format_number

        return f"Pt({format_number(self.x)}, {format_number(self.y)})"


_new_pt = object.__new__


def _pt(x: TowerReal, y: TowerReal) -> Pt:
    """Unchecked constructor for coordinates that are already ``TowerReal``;
    ``Pt``'s arithmetic builds its results through it."""
    out = _new_pt(Pt)
    out.x = x
    out.y = y
    out._box = out._mid = False
    return out


def orientation(a: Pt, b: Pt, c: Pt) -> int:
    """+1 if a->b->c turns left, -1 if right, 0 if collinear."""
    if a is b or b is c or a is c:
        return 0  # a repeated point object: collinear without arithmetic
    s = _fsign(a._centre(), b._centre(), c._centre())
    return s or (b - a).cross(c - a).sign()


class Location(enum.Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


def _box_outside(p, a, b) -> bool:
    """Whether the box p lies past the hull of the boxes a and b along x or
    y, so no point of p is between points of a and b there."""
    return any(p[k][1] < min(a[k][0], b[k][0]) or p[k][0] > max(a[k][1], b[k][1]) for k in (0, 1))


def point_on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if p is a or p is b:
        return True
    fp, fa, fb = p._floats(), a._floats(), b._floats()
    if fp and fa and fb and _box_outside(fp, fa, fb):
        return False
    if orientation(a, b, p) != 0:
        return False
    s = _fsign(p._centre(), a._centre(), b._centre(), dot=True)
    return (s or (p - a).dot(p - b).sign()) <= 0


@dataclass(frozen=True)
class Triangle:
    """Three exact vertices; ``a`` is the side opposite vertex ``va``."""

    va: Pt
    vb: Pt
    vc: Pt

    @property
    def vertices(self) -> tuple[Pt, Pt, Pt]:
        return (self.va, self.vb, self.vc)

    # cached: is_degenerate, oriented and the verifier's pair tests share one
    # filtered orientation; the exact area is built only by signed_area
    @cached_property
    def _turn(self) -> int:
        return orientation(self.va, self.vb, self.vc)

    def signed_area(self) -> TowerReal:
        return (self.vb - self.va).cross(self.vc - self.va) / 2

    def is_degenerate(self) -> bool:
        return self._turn == 0

    def oriented(self) -> "Triangle":
        if self._turn >= 0:
            return self
        return Triangle(self.va, self.vc, self.vb)

    def sides_squared(self) -> tuple[TowerReal, TowerReal, TowerReal]:
        return (
            (self.vc - self.vb).norm_sq(),
            (self.va - self.vc).norm_sq(),
            (self.vb - self.va).norm_sq(),
        )

    def side_lengths(self) -> tuple[TowerReal, TowerReal, TowerReal]:
        return tuple(sqrt_adjoin(s) for s in self.sides_squared())


def point_in_triangle(p: Pt, tri: Triangle) -> Location:
    t = tri.oriented()
    if t.is_degenerate():
        raise ValueError("degenerate triangle")
    signs = [
        orientation(t.va, t.vb, p),
        orientation(t.vb, t.vc, p),
        orientation(t.vc, t.va, p),
    ]
    if any(s < 0 for s in signs):
        return Location.OUTSIDE
    if any(s == 0 for s in signs):
        return Location.ON_BOUNDARY
    return Location.INSIDE


def polygon_area(vertices: Sequence[Pt]) -> TowerReal:
    """Signed shoelace area (positive for counterclockwise order)."""
    total = TowerReal.from_rational(0)
    n = len(vertices)
    for i in range(n):
        total = total + vertices[i].cross(vertices[(i + 1) % n])
    return total / 2


def _area_sign(vertices: Sequence[Pt]) -> int:
    """Sign of ``polygon_area(vertices)``, from the vertices' ``Pt._centre``
    when a bound certifies it, else exactly.

    Seen from the first centre (x0, y0), an exact float point, twice the
    area is the sum over i of U_i x U_{i+1}, indices mod n, with U_i vertex
    i minus (x0, y0).  The rounded u_i = x_i - x0 and v_i = y_i - y0 are off
    from U_i's coordinates by at most t_i = r_i + eps*max(|u_i|, |v_i|): a
    subtraction's error is a multiple of 2**-1074 and at most eps times its
    result, so the rounded product still covers it.  Expanding,
    |U_i x U_j - (u_i*v_j - v_i*u_j)| <= (|u_i| + |v_i|)*t_j + (|u_j| +
    |v_j|)*t_i + 2*t_i*t_j.  The products p_i = fl(u_i*v_{i+1}) and q_i =
    fl(v_i*u_{i+1}) are off by eps times themselves plus 2**-1075, d_i =
    fl(p_i - q_i) by eps*|d_i|, and the running sum s of the d_i by at most
    (n - 1)*eps*sum|d_i| in all, to first order.  So s is within (n +
    2)*eps*sum(|p_i| + |q_i|) plus the sum of the bounds above plus 2*n *
    2**-1075 of twice the area.  E is that sum in round-to-nearest, times 1
    + 2**-40 plus 2**-1000: for at most 2**9 vertices that covers the
    higher-order terms and the at most 3000 roundings of each term, each a
    relative eps or a product's 2**-1075.  So |s| > E certifies the sign.
    As in ``_fsign``, an overflow makes E infinite or NaN and fails the
    test; a missing box or a longer polygon goes to the exact sum."""
    n = len(vertices)
    centres = [v._centre() for v in vertices]
    if n <= 512 and all(centres):
        x0, y0, _ = centres[0]
        rel = [(x - x0, y - y0, r) for x, y, r in centres]
        rel = [(u, v, r + _EPS * max(abs(u), abs(v)), abs(u) + abs(v)) for u, v, r in rel]
        s = e = size = 0.0
        u0, v0, t0, w0 = rel[-1]
        for u1, v1, t1, w1 in rel:
            p, q = u0 * v1, v0 * u1
            s += p - q
            size += abs(p) + abs(q)
            e += w0 * t1 + w1 * t0 + 2 * t0 * t1
            u0, v0, t0, w0 = u1, v1, t1, w1
        e = ((n + 2) * _EPS * size + e) * (1 + 2.0**-40) + 2.0**-1000
        if abs(s) > e:
            return 1 if s > 0 else -1
    return polygon_area(vertices).sign()


def _coord_sign(a: Pt, b: Pt, k: int) -> int:
    """Sign of coordinate k (0 for x, 1 for y) of a - b: from the two
    points' boxes when their k-intervals are apart, else exactly."""
    fa, fb = a._floats(), b._floats()
    if fa and fb:
        if fa[k][0] > fb[k][1]:
            return 1
        if fa[k][1] < fb[k][0]:
            return -1
    return (a.x - b.x).sign() if k == 0 else (a.y - b.y).sign()


def point_in_polygon(p: Pt, vertices: Sequence[Pt]) -> Location:
    """Exact location of a point relative to a simple polygon.

    Uses a half-open crossing parity rule after an explicit boundary check,
    so vertices and horizontal edges need no special cases.
    """
    n = len(vertices)
    for i in range(n):
        if point_on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return Location.ON_BOUNDARY
    above = [_coord_sign(v, p, 1) for v in vertices]  # sign of v.y - p.y
    crossings = 0
    for i in range(n):
        u, w = vertices[i], vertices[(i + 1) % n]
        su, sw = above[i], above[(i + 1) % n]
        if su <= 0 < sw and orientation(u, w, p) > 0:  # u.y <= p.y < w.y
            crossings += 1
        elif sw <= 0 < su and orientation(u, w, p) < 0:  # w.y <= p.y < u.y
            crossings += 1
    return Location.INSIDE if crossings % 2 == 1 else Location.OUTSIDE


def triangles_interior_disjoint(t1: Triangle, t2: Triangle) -> bool:
    """True when the open interiors do not meet (touching is allowed).  A
    degenerate triangle has an empty open interior, so it is disjoint from
    everything.

    Two convex polygons with disjoint interiors are weakly separated by the
    line through an edge of one of them: the origin then lies outside or on
    the boundary of their Minkowski difference, whose edges are edges of the
    two.  So the pair is disjoint exactly when, for some edge a->b of either
    triangle, every vertex of the other is a or b or lies on the closed side
    of the line ab away from that triangle's interior.
    """
    v1, v2 = t1.vertices, t2.vertices
    s1, s2 = t1._turn, t2._turn
    if s1 == 0 or s2 == 0:
        return True
    return _separated(v1, s1, v2) or _separated(v2, s2, v1)


def _separated(verts: Sequence[Pt], s: int, other: Sequence[Pt]) -> bool:
    """True when some edge line of the cycle ``verts``, whose turn sign is
    ``s``, has every point of ``other`` on its closed far side: each point
    is an end of that edge or turns from it against ``s``.  A segment is the
    2-cycle (p, q) with s = 1, whose two edges test both sides of its line."""
    for i in range(len(verts)):
        a, b = verts[i - 1], verts[i]
        if all(p is a or p is b or orientation(a, b, p) * s <= 0 for p in other):
            return True
    return False


# ---------------------------------------------------------------------------
# Isometries and congruence.


@dataclass(frozen=True)
class Isometry:
    """Plane isometry: optional reflection across the x-axis, then rotation
    by (cos_t, sin_t), then translation."""

    cos_t: TowerReal
    sin_t: TowerReal
    reflect: bool
    tx: TowerReal
    ty: TowerReal

    def __post_init__(self):
        if not (self.cos_t * self.cos_t + self.sin_t * self.sin_t == 1):
            raise ValueError("rotation part is not orthogonal")

    def apply(self, p: Pt) -> Pt:
        x, y = p.x, p.y
        if self.reflect:
            y = -y
        return Pt(
            self.cos_t * x - self.sin_t * y + self.tx,
            self.sin_t * x + self.cos_t * y + self.ty,
        )


def _same_multiset(xs: Sequence, ys: Sequence) -> bool:
    """Whether xs and ys hold equal values equally often, by ``==`` alone."""
    rest = list(ys)
    for x in xs:
        for k, y in enumerate(rest):
            if x == y:
                del rest[k]
                break
        else:
            return False
    return not rest


def congruent(t1: Triangle, t2: Triangle) -> bool:
    """Exact congruence: equal squared side lengths, as multisets (SSS)."""
    return _same_multiset(t1.sides_squared(), t2.sides_squared())


def _ordered_isometry(
    src: Sequence[Pt], dst: Sequence[Pt], reflect: bool
) -> Optional[Isometry]:
    """The isometry with the given handedness that carries the three points
    ``src`` onto ``dst`` in order, if any."""
    base = [Pt(p.x, -p.y) for p in src] if reflect else src
    u = base[1] - base[0]
    w = dst[1] - dst[0]
    usq = u.norm_sq()
    if not (usq == w.norm_sq()):
        return None
    # (u.w)**2 + (u x w)**2 == |u|**2 |w|**2 (Lagrange), so c*c + s*s == 1
    c = u.dot(w) / usq
    s = u.cross(w) / usq
    zero = TowerReal.from_rational(0)
    shift = dst[0] - Isometry(c, s, reflect, zero, zero).apply(src[0])
    iso = Isometry(c, s, reflect, shift.x, shift.y)
    if iso.apply(src[1]) == dst[1] and iso.apply(src[2]) == dst[2]:
        return iso
    return None


# ---------------------------------------------------------------------------
# Exact angle comparison without square roots.


@total_ordering
class AngleVec:
    """The angle in (0, 2*pi) from vector u to vector w, counterclockwise.

    Total order agrees with the numeric angle but needs no square roots or
    transcendentals: first by region (0,pi) / pi / (pi,2*pi), then by the
    signs of the cosines, then by a cross-multiplied comparison of squared
    cosines.  ``between`` is the one constructor.  ``_fsign`` certifies the
    signs of the dot and the cross u x w from the vectors' ``Pt._centre``,
    seen from the exact origin.  The exact cross is built only when it
    cannot; the exact dot d = u . w and m = |u|^2 |w|^2 only when it cannot
    certify the dot's sign, or when two cosines of one sign are compared,
    and then once each.
    """

    __slots__ = ("_uw", "_dm")

    @classmethod
    def between(cls, u: Pt, w: Pt) -> "AngleVec":
        out = cls.__new__(cls)
        out._uw, out._dm = (u, w), [None, None]
        return out

    def _exact(self, k: int) -> TowerReal:
        """d (k = 0) or m (k = 1), built on first use."""
        out = self._dm[k]
        if out is None:
            u, w = self._uw
            out = self._dm[k] = u.dot(w) if k == 0 else u.norm_sq() * w.norm_sq()
        return out

    def _sign(self, k: int) -> int:
        """Sign of d (k = 0) or of u x w (k = 1), from ``_fsign`` when it
        certifies one, else exactly."""
        u, w = self._uw
        s = _fsign(_ORIGIN, u._centre(), w._centre(), dot=not k)
        return s or (u.cross(w) if k else self._exact(0)).sign()

    def _region(self) -> int:
        cs = self._sign(1)
        if cs > 0:
            return 0  # (0, pi)
        if cs == 0:
            if self._sign(0) < 0:
                return 1  # exactly pi
            raise ValueError("zero or full angle has no direction")
        return 2  # (pi, 2*pi)

    def _cos_cmp(self, other: "AngleVec") -> int:
        """Sign of (my cos) - (other cos), exactly."""
        s1, s2 = self._sign(0), other._sign(0)
        if s1 != s2:
            return 1 if s1 > s2 else -1
        if s1 == 0:
            return 0
        d1, d2 = self._exact(0), other._exact(0)
        diff = (d1 * d1 * other._exact(1) - d2 * d2 * self._exact(1)).sign()
        # for positive cosines, larger square means larger cosine;
        # for negative cosines the order flips
        return diff * s1

    def compare(self, other: "AngleVec") -> int:
        r1, r2 = self._region(), other._region()
        if r1 != r2:
            return 1 if r1 > r2 else -1
        if r1 == 1:
            return 0
        cc = self._cos_cmp(other)
        # angle grows as cosine falls in (0,pi); reversed in (pi,2*pi)
        return -cc if r1 == 0 else cc

    def __lt__(self, other: "AngleVec") -> bool:
        return self.compare(other) < 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, AngleVec):
            return NotImplemented
        return self.compare(other) == 0

    def __repr__(self) -> str:
        import math

        u, w = self._uw
        approx = math.atan2(float(u.cross(w)), float(u.dot(w)))
        if approx < 0:
            approx += 2 * math.pi
        return f"AngleVec(~{approx:.6f} rad)"
