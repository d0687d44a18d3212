"""Exact planar geometry over tower-field coordinates.

Every predicate decides with exact sign computations, so there are no
epsilons anywhere: orientation, segment classification, point location,
interior-disjointness of triangles, congruence, and sqrt-free comparison of
angles all return certified answers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .exact import TowerReal, exactify, sqrt_adjoin

__all__ = [
    "AngleVec",
    "Isometry",
    "Location",
    "Pt",
    "SegmentRelation",
    "Triangle",
    "classify_segments",
    "congruent",
    "find_isometry",
    "orientation",
    "point_in_polygon",
    "point_in_triangle",
    "point_on_segment",
    "polygon_area",
    "triangles_interior_disjoint",
]

Coord = Union[TowerReal, Fraction, int]


class Pt:
    """A point (or vector) with exact coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: Coord, y: Coord):
        self.x = exactify(x)
        self.y = exactify(y)

    def __add__(self, other: "Pt") -> "Pt":
        return Pt(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Pt") -> "Pt":
        return Pt(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: Coord) -> "Pt":
        return Pt(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coord) -> "Pt":
        return Pt(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Pt":
        return Pt(-self.x, -self.y)

    def dot(self, other: "Pt") -> TowerReal:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Pt") -> TowerReal:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> TowerReal:
        return self.dot(self)

    def norm(self) -> TowerReal:
        return sqrt_adjoin(self.norm_sq())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pt):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __repr__(self) -> str:
        from .literals import format_number

        return f"Pt({format_number(self.x)}, {format_number(self.y)})"


def orientation(a: Pt, b: Pt, c: Pt) -> int:
    """+1 if a->b->c turns left, -1 if right, 0 if collinear."""
    return (b - a).cross(c - a).sign()


class SegmentRelation(enum.Enum):
    DISJOINT = "disjoint"
    TOUCH_AT_ENDPOINT = "touch_at_endpoint"
    OVERLAP_COLLINEAR = "overlap_collinear"
    CROSS = "cross"


class Location(enum.Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


def point_on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if orientation(a, b, p) != 0:
        return False
    return (p - a).dot(p - b).sign() <= 0


def classify_segments(p1: Pt, p2: Pt, q1: Pt, q2: Pt) -> SegmentRelation:
    """Exact relation of two nondegenerate closed segments."""
    if p1 == p2 or q1 == q2:
        raise ValueError("degenerate segment")
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return SegmentRelation.CROSS
    if o1 == 0 and o2 == 0:
        # collinear: compare 1-D extents along the shared line
        d = p2 - p1
        lo_q = d.dot(q1 - p1)
        hi_q = d.dot(q2 - p1)
        if hi_q < lo_q:
            lo_q, hi_q = hi_q, lo_q
        lo_p = TowerReal.from_rational(0)
        hi_p = d.norm_sq()
        lo = lo_q if lo_q > lo_p else lo_p
        hi = hi_q if hi_q < hi_p else hi_p
        if lo > hi:
            return SegmentRelation.DISJOINT
        if lo == hi:
            return SegmentRelation.TOUCH_AT_ENDPOINT
        return SegmentRelation.OVERLAP_COLLINEAR
    touches = (
        (o1 == 0 and point_on_segment(q1, p1, p2))
        or (o2 == 0 and point_on_segment(q2, p1, p2))
        or (o3 == 0 and point_on_segment(p1, q1, q2))
        or (o4 == 0 and point_on_segment(p2, q1, q2))
    )
    if touches:
        return SegmentRelation.TOUCH_AT_ENDPOINT
    return SegmentRelation.DISJOINT


@dataclass(frozen=True)
class Triangle:
    """Three exact vertices; ``a`` is the side opposite vertex ``va``."""

    va: Pt
    vb: Pt
    vc: Pt

    @property
    def vertices(self) -> tuple[Pt, Pt, Pt]:
        return (self.va, self.vb, self.vc)

    def signed_area(self) -> TowerReal:
        return (self.vb - self.va).cross(self.vc - self.va) / 2

    def is_degenerate(self) -> bool:
        return self.signed_area().is_zero()

    def is_ccw(self) -> bool:
        return self.signed_area().sign() > 0

    def oriented(self) -> "Triangle":
        if self.signed_area().sign() >= 0:
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

    def sorted_sides_squared(self) -> tuple[TowerReal, TowerReal, TowerReal]:
        # three exact comparisons give a full sort
        return tuple(sorted(self.sides_squared()))


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


def point_in_polygon(p: Pt, vertices: Sequence[Pt]) -> Location:
    """Exact location of a point relative to a simple polygon.

    Uses a half-open crossing parity rule after an explicit boundary check,
    so vertices and horizontal edges need no special cases.
    """
    n = len(vertices)
    for i in range(n):
        if point_on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return Location.ON_BOUNDARY
    crossings = 0
    for i in range(n):
        u, w = vertices[i], vertices[(i + 1) % n]
        if u.y <= p.y < w.y and orientation(u, w, p) > 0:
            crossings += 1
        elif w.y <= p.y < u.y and orientation(u, w, p) < 0:
            crossings += 1
    return Location.INSIDE if crossings % 2 == 1 else Location.OUTSIDE


def _axis_separates(axis: Pt, verts1: Sequence[Pt], verts2: Sequence[Pt]) -> bool:
    proj1 = [axis.dot(v) for v in verts1]
    proj2 = [axis.dot(v) for v in verts2]
    return max(proj1) <= min(proj2) or max(proj2) <= min(proj1)


def triangles_interior_disjoint(t1: Triangle, t2: Triangle) -> bool:
    """True when the open interiors do not meet (touching is allowed).

    Separating-axis test over the six edge normals; for convex shapes a
    weakly separating axis always exists among them when interiors are
    disjoint, and never exists when interiors overlap.
    """
    v1, v2 = t1.vertices, t2.vertices
    for verts in (v1, v2):
        for i in range(3):
            e = verts[(i + 1) % 3] - verts[i]
            normal = Pt(-e.y, e.x)
            if _axis_separates(normal, v1, v2):
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

    @classmethod
    def identity(cls) -> "Isometry":
        one = TowerReal.from_rational(1)
        zero = TowerReal.from_rational(0)
        return cls(one, zero, False, zero, zero)

    def apply(self, p: Pt) -> Pt:
        x, y = p.x, p.y
        if self.reflect:
            y = -y
        return Pt(
            self.cos_t * x - self.sin_t * y + self.tx,
            self.sin_t * x + self.cos_t * y + self.ty,
        )

    def apply_triangle(self, tri: Triangle) -> Triangle:
        return Triangle(self.apply(tri.va), self.apply(tri.vb), self.apply(tri.vc))

    @property
    def is_direct(self) -> bool:
        return not self.reflect


def congruent(t1: Triangle, t2: Triangle) -> bool:
    """Exact congruence by comparing sorted squared side lengths."""
    s1 = t1.sorted_sides_squared()
    s2 = t2.sorted_sides_squared()
    return all(a == b for a, b in zip(s1, s2))


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


def find_isometry(src: Triangle, dst: Triangle) -> Optional[Isometry]:
    """An exact isometry carrying src onto dst (vertex order free), if any."""
    sv = src.vertices
    dv = dst.vertices
    for reflect in (False, True):
        for start in range(3):
            for step in (1, 2):
                perm = [dv[(start + step * i) % 3] for i in range(3)]
                iso = _ordered_isometry(sv, perm, reflect)
                if iso is not None:
                    return iso
    return None


# ---------------------------------------------------------------------------
# Exact angle comparison without square roots.


class AngleVec:
    """The angle in (0, 2*pi) from vector u to vector w, counterclockwise,
    represented by the exact pair (dot, cross) plus |u|^2 |w|^2.

    Total order agrees with the numeric angle but needs no square roots or
    transcendentals: first by region (0,pi) / pi / (pi,2*pi), then by a
    cross-multiplied comparison of squared cosines.
    """

    __slots__ = ("d", "c", "m")

    def __init__(self, d: TowerReal, c: TowerReal, m: TowerReal):
        self.d = d
        self.c = c
        self.m = m

    @classmethod
    def between(cls, u: Pt, w: Pt) -> "AngleVec":
        return cls(u.dot(w), u.cross(w), u.norm_sq() * w.norm_sq())

    @classmethod
    def interior(cls, prev_pt: Pt, at: Pt, next_pt: Pt) -> "AngleVec":
        """Interior angle of a counterclockwise polygon at ``at``."""
        return cls.between(next_pt - at, prev_pt - at)

    def _region(self) -> int:
        cs = self.c.sign()
        if cs > 0:
            return 0  # (0, pi)
        if cs == 0:
            if self.d.sign() < 0:
                return 1  # exactly pi
            raise ValueError("zero or full angle has no direction")
        return 2  # (pi, 2*pi)

    def is_reflex(self) -> bool:
        return self._region() == 2

    def is_straight(self) -> bool:
        return self._region() == 1

    def _cos_cmp(self, other: "AngleVec") -> int:
        """Sign of (my cos) - (other cos), exactly."""
        s1, s2 = self.d.sign(), other.d.sign()
        if s1 != s2:
            return 1 if s1 > s2 else -1
        if s1 == 0:
            return 0
        lhs = self.d * self.d * other.m
        rhs = other.d * other.d * self.m
        diff = (lhs - rhs).sign()
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

    def __le__(self, other: "AngleVec") -> bool:
        return self.compare(other) <= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, AngleVec):
            return NotImplemented
        return self.compare(other) == 0

    def __gt__(self, other: "AngleVec") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "AngleVec") -> bool:
        return self.compare(other) >= 0

    def __repr__(self) -> str:
        import math

        approx = math.atan2(float(self.c), float(self.d))
        if approx < 0:
            approx += 2 * math.pi
        return f"AngleVec(~{approx:.6f} rad)"
