import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verifier_reference as reference
from equicut import geom
from equicut.dissect import Dissection, verify_dissection
from equicut.exact import FieldBuilder, TowerReal, sqrt_adjoin
from equicut.literals import parse_number
from equicut.geom import (
    AngleVec,
    Isometry,
    Location,
    Pt,
    Triangle,
    congruent,
    orientation,
    point_in_polygon,
    point_in_triangle,
    point_on_segment,
    polygon_area,
    triangles_interior_disjoint,
)


def P(x, y) -> Pt:
    return Pt(Fraction(x), Fraction(y))


UNIT_RIGHT = Triangle(P(0, 0), P(1, 0), P(0, 1))


class TestPtArithmetic:
    """``Pt``'s + - * / and negation build their results from the
    coordinates' values directly; each equals the point built from the same
    coordinates, float box and centre included."""

    @staticmethod
    def _same(got, want):
        assert type(got.x) is TowerReal and type(got.y) is TowerReal
        assert got._box is False and got._mid is False
        assert (got.x, got.y) == (want.x, want.y) and got == want
        assert got._floats() == want._floats()
        assert got._centre() == want._centre()

    def test_results_equal_the_points_of_their_coordinates(self):
        builder = FieldBuilder()
        r2, r3 = builder.sqrt(2), builder.sqrt(3)
        nested = parse_number("sqrt(1 + sqrt(2))")
        points = [
            P(1, 2),
            P(Fraction(-3, 7), Fraction(5, 4)),
            Pt(r2, 1 - r3),
            Pt(r2 * r3 / 5, Fraction(1, 3)),
            Pt(nested, 2 - nested),
        ]
        scalars = [3, Fraction(-2, 5), TowerReal.from_rational(Fraction(7, 3)), r2, 1 + r3, nested]
        for p in points:
            self._same(-p, Pt(-p.x, -p.y))
            for q in points:
                self._same(p + q, Pt(p.x + q.x, p.y + q.y))
                self._same(p - q, Pt(p.x - q.x, p.y - q.y))
            for s in scalars:
                self._same(p * s, Pt(p.x * s, p.y * s))
                self._same(s * p, Pt(s * p.x, s * p.y))
                self._same(p / s, Pt(p.x / s, p.y / s))


class TestOrientation:
    def test_repeated_point_object_needs_no_arithmetic(self, exact_calls):
        a, b = P(0, 0), P(1, 1)
        for args in ((a, a, b), (a, b, a), (b, a, a)):
            assert _fell_back(exact_calls, orientation, *args) == (0, False)

    def test_basic(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0

    def test_irrational(self):
        r2 = sqrt_adjoin(2)
        assert orientation(P(0, 0), Pt(r2, r2), Pt(2 * r2, 2 * r2)) == 0
        assert orientation(P(0, 0), Pt(1, r2), Pt(1, r2 + 1)) == 1

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        a, b, c = Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
        assert orientation(a, b, c) == -orientation(a, c, b)
        assert orientation(a, b, c) == orientation(b, c, a)


class TestPointOnSegment:
    def test_apart_boxes_and_ends_need_no_arithmetic(self, exact_calls):
        # collinear but past an end, where the boxes are apart; and an end
        a, b = P(0, 0), P(1, 1)
        assert _fell_back(exact_calls, point_on_segment, P(3, 3), a, b) == (False, False)
        assert _fell_back(exact_calls, point_on_segment, P(-1, -1), a, b) == (False, False)
        assert _fell_back(exact_calls, point_on_segment, a, a, b) == (True, False)

    def test_cases(self):
        assert point_on_segment(P(1, 1), P(0, 0), P(2, 2))
        assert point_on_segment(P(0, 0), P(0, 0), P(2, 2))
        assert not point_on_segment(P(3, 3), P(0, 0), P(2, 2))
        assert not point_on_segment(P(1, 0), P(0, 0), P(2, 2))


class TestPointInTriangle:
    def test_inside(self):
        assert point_in_triangle(P(Fraction(1, 4), Fraction(1, 4)), UNIT_RIGHT) == Location.INSIDE

    def test_boundary(self):
        assert point_in_triangle(P(Fraction(1, 2), 0), UNIT_RIGHT) == Location.ON_BOUNDARY
        assert point_in_triangle(P(Fraction(1, 2), Fraction(1, 2)), UNIT_RIGHT) == Location.ON_BOUNDARY
        assert point_in_triangle(P(0, 0), UNIT_RIGHT) == Location.ON_BOUNDARY

    def test_outside(self):
        assert point_in_triangle(P(1, 1), UNIT_RIGHT) == Location.OUTSIDE
        assert point_in_triangle(P(Fraction(-1, 1000), Fraction(1, 2)), UNIT_RIGHT) == Location.OUTSIDE

    def test_winding_of_input_ignored(self):
        cw = Triangle(P(0, 0), P(0, 1), P(1, 0))
        assert point_in_triangle(P(Fraction(1, 4), Fraction(1, 4)), cw) == Location.INSIDE


L_SHAPE = [P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2)]
# horizontal edges at three levels, and vertices level with other vertices
COMB = [P(0, 0), P(4, 0), P(4, 3), P(3, 3), P(3, 1), P(2, 2), P(1, 1), P(1, 3), P(0, 3)]


def _point_in_polygon_reference(p, vertices):
    """``point_in_polygon`` with its half-open y tests as exact
    comparisons, as it was before they read the points' boxes."""
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


class TestPointInPolygon:
    def test_inside(self):
        assert point_in_polygon(P(Fraction(1, 2), Fraction(3, 2)), L_SHAPE) == Location.INSIDE
        assert point_in_polygon(P(Fraction(3, 2), Fraction(1, 2)), L_SHAPE) == Location.INSIDE
        # interior point level with the reflex vertex
        assert point_in_polygon(P(Fraction(1, 2), 1), L_SHAPE) == Location.INSIDE

    def test_outside(self):
        assert point_in_polygon(P(Fraction(3, 2), Fraction(3, 2)), L_SHAPE) == Location.OUTSIDE
        assert point_in_polygon(P(Fraction(3, 2), 2), L_SHAPE) == Location.OUTSIDE
        assert point_in_polygon(P(-1, 1), L_SHAPE) == Location.OUTSIDE

    def test_boundary(self):
        assert point_in_polygon(P(1, Fraction(3, 2)), L_SHAPE) == Location.ON_BOUNDARY
        assert point_in_polygon(P(Fraction(1, 2), 2), L_SHAPE) == Location.ON_BOUNDARY
        assert point_in_polygon(P(1, 1), L_SHAPE) == Location.ON_BOUNDARY  # reflex vertex

    @pytest.mark.parametrize("scale", ["one", "nested", "1e300", "1e400"])
    def test_matches_the_exact_reference(self, scale):
        """Box-first y tests against all-exact ones: points level with
        vertices, on horizontal edges, at vertices and on edges, over a
        nested tower, and far out, where 10**400 leaves no float box."""
        builder = FieldBuilder()
        if scale == "nested":
            r = builder.sqrt(1 + builder.sqrt(2))
            move = lambda x, y: Pt(r * x + 1, r * y - r)
        else:
            f = {"one": 1, "1e300": Fraction(10) ** 300, "1e400": Fraction(10) ** 400}[scale]
            move = lambda x, y: Pt(x * f, y * f)
        step = Fraction(1, 2)
        for shape in (L_SHAPE, COMB):
            poly = [move(v.x, v.y) for v in shape]
            for i in range(-1, 10):
                for j in range(-1, 8):
                    p = move(TowerReal.from_rational(i * step), TowerReal.from_rational(j * step))
                    if scale == "1e400" and (i or j):
                        assert p._floats() is None
                    assert point_in_polygon(p, poly) == _point_in_polygon_reference(p, poly), (i, j)

    def test_area(self):
        assert polygon_area(L_SHAPE).as_fraction() == 3
        square = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
        assert polygon_area(square).as_fraction() == 1
        assert polygon_area(list(reversed(square))).as_fraction() == -1


class TestInteriorDisjoint:
    def test_identical(self):
        assert not triangles_interior_disjoint(UNIT_RIGHT, UNIT_RIGHT)

    def test_shared_edge(self):
        other = Triangle(P(1, 0), P(1, 1), P(0, 1))
        assert triangles_interior_disjoint(UNIT_RIGHT, other)

    def test_shared_vertex(self):
        other = Triangle(P(1, 0), P(2, 0), P(1, -1))
        assert triangles_interior_disjoint(UNIT_RIGHT, other)

    def test_far_apart(self):
        other = Triangle(P(10, 10), P(11, 10), P(10, 11))
        assert triangles_interior_disjoint(UNIT_RIGHT, other)

    def test_medial_triangle_overlaps(self):
        big = Triangle(P(0, 0), P(2, 0), P(1, 2))
        medial = Triangle(P(1, 0), P(Fraction(3, 2), 1), P(Fraction(1, 2), 1))
        assert not triangles_interior_disjoint(big, medial)
        assert not triangles_interior_disjoint(medial, big)

    def test_hexagram_overlap(self):
        # every vertex of each triangle is outside the other, yet they overlap
        t1 = Triangle(P(0, 0), P(4, 0), P(2, 3))
        t2 = Triangle(P(0, 2), P(4, 2), P(2, -1))
        for v in t2.vertices:
            assert point_in_triangle(v, t1) == Location.OUTSIDE
        for v in t1.vertices:
            assert point_in_triangle(v, t2) == Location.OUTSIDE
        assert not triangles_interior_disjoint(t1, t2)

    def test_containment(self):
        small = Triangle(
            P(Fraction(1, 4), Fraction(1, 4)),
            P(Fraction(1, 2), Fraction(1, 4)),
            P(Fraction(1, 4), Fraction(1, 2)),
        )
        assert not triangles_interior_disjoint(UNIT_RIGHT, small)

    def test_vertex_on_edge(self):
        # apex of the second triangle touches the first's hypotenuse midpoint
        other = Triangle(P(Fraction(1, 2), Fraction(1, 2)), P(2, 1), P(1, 2))
        assert triangles_interior_disjoint(UNIT_RIGHT, other)

    def test_slight_overlap(self):
        eps = Fraction(1, 1000)
        other = Triangle(Pt(Fraction(1, 2) - eps, Fraction(1, 2) - eps), P(2, 1), P(1, 2))
        assert not triangles_interior_disjoint(UNIT_RIGHT, other)

    @pytest.mark.parametrize(
        "flat",
        [
            # a segment crossing the interior, once with a repeated end
            Triangle(P(0, Fraction(1, 4)), P(1, Fraction(1, 4)), P(Fraction(1, 2), Fraction(1, 4))),
            Triangle(P(0, Fraction(1, 4)), P(1, Fraction(1, 4)), P(1, Fraction(1, 4))),
            # a point inside, and a segment inside
            Triangle(*[P(Fraction(1, 4), Fraction(1, 4))] * 3),
            Triangle(P(Fraction(1, 8), Fraction(1, 8)), P(Fraction(1, 4), Fraction(1, 4)),
                     P(Fraction(1, 8), Fraction(1, 8))),
        ],
    )
    def test_degenerate_triangle_has_no_interior_to_meet(self, flat):
        assert flat.is_degenerate()
        assert triangles_interior_disjoint(UNIT_RIGHT, flat)
        assert triangles_interior_disjoint(flat, UNIT_RIGHT)
        assert triangles_interior_disjoint(flat, flat)


class TestTriangleBasics:
    def test_area_and_orientation(self):
        assert UNIT_RIGHT.signed_area().as_fraction() == Fraction(1, 2)
        cw = Triangle(P(0, 0), P(0, 1), P(1, 0))
        assert cw.signed_area().as_fraction() == Fraction(-1, 2)
        assert cw.oriented().signed_area().sign() > 0
        assert not cw.is_degenerate()
        assert Triangle(P(0, 0), P(1, 1), P(2, 2)).is_degenerate()

    def test_sides(self):
        t = Triangle(P(0, 0), P(3, 0), P(0, 4))
        sq = sorted(t.sides_squared())
        assert [s.as_fraction() for s in sq] == [9, 16, 25]
        lengths = t.side_lengths()
        assert sorted(float(x) for x in lengths) == [3.0, 4.0, 5.0]


class TestCongruence:
    def test_translation(self):
        t2 = Triangle(P(5, 7), P(6, 7), P(5, 8))
        assert congruent(UNIT_RIGHT, t2)

    def test_rational_rotation(self):
        # rotation by the 3-4-5 angle keeps coordinates rational
        c, s = Fraction(3, 5), Fraction(4, 5)
        rot = Isometry(
            TowerReal.from_rational(c),
            TowerReal.from_rational(s),
            False,
            TowerReal.from_rational(2),
            TowerReal.from_rational(-1),
        )
        assert congruent(UNIT_RIGHT, Triangle(*map(rot.apply, UNIT_RIGHT.vertices)))

    def test_reflection_counts(self):
        scalene = Triangle(P(0, 0), P(3, 0), P(1, 2))
        mirrored = Triangle(P(0, 0), P(-3, 0), P(-1, 2))
        assert congruent(scalene, mirrored)

    def test_not_congruent(self):
        assert not congruent(UNIT_RIGHT, Triangle(P(0, 0), P(2, 0), P(0, 1)))

    def test_same_side_values_with_other_multiplicities(self):
        # squared sides (1, 1, 2) against (1, 2, 2), in every vertex order
        wide = Triangle(P(0, 0), P(1, 0), Pt(Fraction(1, 2), sqrt_adjoin(7) / 2))
        for k in range(3):
            turned = Triangle(*wide.vertices[k:], *wide.vertices[:k])
            assert not congruent(UNIT_RIGHT, turned)
            assert not congruent(turned, UNIT_RIGHT)
            assert congruent(wide, turned)

    def test_irrational_rotation(self):
        r2 = sqrt_adjoin(2)
        rot = Isometry(r2 / 2, r2 / 2, False, TowerReal.from_rational(0), TowerReal.from_rational(0))
        assert congruent(UNIT_RIGHT, Triangle(*map(rot.apply, UNIT_RIGHT.vertices)))


class TestIsometry:
    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            Isometry(
                TowerReal.from_rational(1),
                TowerReal.from_rational(1),
                False,
                TowerReal.from_rational(0),
                TowerReal.from_rational(0),
            )


class TestAngleVec:
    def setup_method(self):
        r3 = sqrt_adjoin(3)
        e = Pt(1, 0)
        self.deg30 = AngleVec.between(e, Pt(r3, 1))
        self.deg45 = AngleVec.between(e, Pt(1, 1))
        self.deg90 = AngleVec.between(e, Pt(0, 1))
        self.deg120 = AngleVec.between(e, Pt(-1, r3))
        self.deg180 = AngleVec.between(e, Pt(-1, 0))
        self.deg270 = AngleVec.between(e, Pt(0, -1))

    def test_total_order(self):
        seq = [self.deg30, self.deg45, self.deg90, self.deg120, self.deg180, self.deg270]
        for i in range(len(seq)):
            for j in range(len(seq)):
                assert (seq[i] < seq[j]) == (i < j)
                assert (seq[i] == seq[j]) == (i == j)

    def test_scale_invariance(self):
        a = AngleVec.between(Pt(2, 0), Pt(3, 3))
        assert a == self.deg45
        r2 = sqrt_adjoin(2)
        rotated = AngleVec.between(Pt(1, 1), Pt(0, r2))
        assert rotated == self.deg45

    def test_reflex_and_straight(self):
        # _region: 0 in (0, pi), 1 exactly pi, 2 in (pi, 2*pi)
        assert self.deg270._region() == 2
        assert self.deg90._region() == 0
        assert self.deg180._region() == 1

    def test_interior_angles(self):
        # equilateral triangle: all interior angles equal
        r3 = sqrt_adjoin(3)
        a, b, c = P(0, 0), P(2, 0), Pt(1, r3)
        angles = [
            AngleVec.between(b - a, c - a),
            AngleVec.between(c - b, a - b),
            AngleVec.between(a - c, b - c),
        ]
        assert angles[0] == angles[1] == angles[2]
        assert angles[0] < self.deg90
        assert self.deg45 < angles[0]

    def test_zero_angle_rejected(self):
        with pytest.raises(ValueError):
            AngleVec.between(Pt(1, 0), Pt(2, 0))._region()


# ---------------------------------------------------------------------------
# The interval filter against the exact expressions it stands in for.

# A literal stands for a nested radicand: (2, "1 + sqrt(2)") is the tower
# Q(sqrt(2))(sqrt(1 + sqrt(2))) of the paper's generic sides.
FILTER_RADICANDS = [(), (2,), (3, 2), (2, 3, 5), (2, "1 + sqrt(2)")]
# Powers of ten that scale every coordinate.  Products of 10**-160 are
# subnormal, where rounding is coarse; products of 10**160 and 10**+-300
# overflow or vanish, and 10**+-400 coordinates do themselves.
FILTER_SCALES = [0, 100, -100, 160, -160, 300, -300, 400, -400]
OUT_OF_RANGE = {160, 300, -300, 400, -400}


def _exact_orientation(a, b, c):
    return (b - a).cross(c - a).sign()


def _exact_on_segment(p, a, b):
    return _exact_orientation(a, b, p) == 0 and (p - a).dot(p - b).sign() <= 0


def _exact_in_triangle(p, tri):
    t = tri if _exact_orientation(*tri.vertices) > 0 else Triangle(tri.va, tri.vc, tri.vb)
    signs = [_exact_orientation(t.va, t.vb, p), _exact_orientation(t.vb, t.vc, p),
             _exact_orientation(t.vc, t.va, p)]
    if min(signs) < 0:
        return Location.OUTSIDE
    return Location.ON_BOUNDARY if 0 in signs else Location.INSIDE


def _exact_disjoint(t1, t2):
    """The separating-axis test on exact projections onto each edge normal."""
    v1, v2 = t1.vertices, t2.vertices
    for verts in (v1, v2):
        for i in range(3):
            e = verts[(i + 1) % 3] - verts[i]
            axis = Pt(-e.y, e.x)
            p1 = [axis.dot(v) for v in v1]
            p2 = [axis.dot(v) for v in v2]
            if max(p1) <= min(p2) or max(p2) <= min(p1):
                return True
    return False


def _exact_angle_compare(u1, w1, u2, w2):
    """AngleVec.compare on eagerly built (dot, cross, |u|^2 |w|^2) triples."""
    def parts(u, w):
        d, c = u.dot(w), u.cross(w)
        region = 0 if c.sign() > 0 else 2 if c.sign() < 0 else 1 if d.sign() < 0 else None
        return d, region, u.norm_sq() * w.norm_sq()

    (d1, r1, m1), (d2, r2, m2) = parts(u1, w1), parts(u2, w2)
    if None in (r1, r2):
        return None  # a zero angle, which AngleVec rejects
    if r1 != r2:
        return 1 if r1 > r2 else -1
    if r1 == 1:
        return 0
    s1, s2 = d1.sign(), d2.sign()
    if s1 != s2:
        cc = 1 if s1 > s2 else -1
    else:
        cc = s1 * (d1 * d1 * m2 - d2 * d2 * m1).sign()
    return -cc if r1 == 0 else cc


def _chain_sign(f, *pts):
    """The interval chain that certified orientation, on-segment and angle
    signs before ``geom._fsign``: f on the points' boxes, rounded outward."""
    return reference._certified(f, *(p._floats() for p in pts))


def _chain_orientation(a, b, c):
    return reference._fcross(reference._fvec(a, b), reference._fvec(a, c))


def _chain_dot(o, a, b):
    return reference._fdot(reference._fvec(o, a), reference._fvec(o, b))


def _region_and_cos(u, w):
    """The angle from u to w as (region, sign of its cosine), exactly."""
    c = u.cross(w).sign()
    return 0 if c > 0 else 2 if c < 0 else 1, u.dot(w).sign()


def _pell(d, count):
    """Solutions of x**2 - d*y**2 = 1 past 2**40: x - y*sqrt(d) is below any
    float box around x and y*sqrt(d)."""
    y1 = next(y for y in range(1, 100) if isqrt(d * y * y + 1) ** 2 == d * y * y + 1)
    x1 = isqrt(d * y1 * y1 + 1)
    out, x, y = [], x1, y1
    while len(out) < count:
        if x > 1 << 40:
            out.append((x, y))
        x, y = x1 * x + d * y1 * y, x1 * y + y1 * x
    return out


class _FilterCases:
    """Seeded points over one tower, grouped by what the filter should do."""

    def __init__(self, radicands, seed):
        self.rng = random.Random(seed)
        builder = FieldBuilder()
        roots = [builder.sqrt(parse_number(r) if isinstance(r, str) else r) for r in radicands]
        self.basis = [TowerReal.from_rational(1)] + roots + [
            r * s for i, r in enumerate(roots) for s in roots[i + 1:]
        ]
        ints = [r for r in radicands if isinstance(r, int)]
        squarefree = set(ints) | {r * s for i, r in enumerate(ints) for s in ints[i + 1:]}
        self.pell = [(builder.sqrt(d), _pell(d, 2)) for d in sorted(squarefree)]

    def value(self):
        rng = self.rng
        return sum((Fraction(rng.randint(-50, 50), rng.randint(1, 9)) * b
                    for b in self.basis[1:] if rng.random() < 0.7),
                   TowerReal.from_rational(Fraction(rng.randint(-50, 50), rng.randint(1, 9))))

    def point(self):
        return Pt(self.value(), self.value())

    def generic(self):
        return self.point(), self.point(), self.point()

    def collinear(self):
        a, b = self.point(), self.point()
        return a, b, a + (b - a) * self.value()

    def tiny(self):
        """A positive value far below the width of any coordinate box."""
        if not self.pell:
            return TowerReal.from_rational(Fraction(1, 10**30))
        root, sols = self.rng.choice(self.pell)
        x, y = self.rng.choice(sols)
        return x - y * root

    def near_collinear(self):
        """a, b, c with cross(b - a, c - a) = +-(x - y*sqrt(d)) * s**2, tiny."""
        rng = self.rng
        root, sols = rng.choice(self.pell)
        x, y = rng.choice(sols)
        a, s = self.point(), self.value() or TowerReal.from_rational(1)
        b, c = a + Pt(1, root) * s, a + Pt(y, x) * s
        return (a, b, c) if rng.random() < 0.5 else (a, c, b)


def _scaled(pts, k):
    f = Fraction(10) ** k
    return tuple(Pt(p.x * f, p.y * f) for p in pts)


@pytest.fixture
def exact_calls(monkeypatch):
    """Lists, by name, the exact products (Pt.cross and Pt.dot, which
    Pt.norm_sq calls) and difference vectors (Pt.__sub__) the predicates
    build."""
    calls = []
    for name in ("cross", "dot", "__sub__"):
        def counted(self, other, _original=getattr(Pt, name), _name=name):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(Pt, name, counted)
    return calls


def _fell_back(calls, call, *args):
    before = len(calls)
    result = call(*args)
    return result, len(calls) > before


def _outcome(call, *args):
    """call(*args), or ValueError when it raises that."""
    try:
        return call(*args)
    except ValueError:
        return ValueError


def _disjoint_cases(radicands):
    """(k, (t1, t2, t3, t4, into, away)): seeded triangles at the scale 10**k."""
    cases = _FilterCases(radicands, seed=10 + len(radicands))
    for _ in range(8):
        for k in (0, -160, 300):
            t1 = Triangle(*_scaled(cases.generic(), k))
            t2 = Triangle(*_scaled(cases.generic(), k))
            a, b, c = t1.vertices
            # a neighbour over the edge ab, and a copy touching it at a
            t3 = Triangle(a, b, Pt(a.x + b.x - c.x, a.y + b.y - c.y))
            t4 = Triangle(*(Pt(v.x + a.x - b.x, v.y + a.y - b.y) for v in t1.vertices))
            # the neighbour pushed into t1, or away from it, by a tiny step
            eps = cases.tiny()
            step = Pt((c.x - a.x) * eps, (c.y - a.y) * eps)
            into = Triangle(*(v + step for v in t3.vertices))
            away = Triangle(*(v - step for v in t3.vertices))
            yield k, (t1, t2, t3, t4, into, away)


def _disjoint_pairs(t1, t2, t3, t4, into, away):
    return ((t1, t2), (t1, t3), (t3, t1), (t1, t4), (t1, t1), (t1, into), (away, t1))


class TestFilterDifferential:
    """Every filtered predicate against its exact expression, on cases the
    filter decides, cases whose boxes straddle 0, and cases it has no
    floats for."""

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_orientation_and_point_on_segment(self, radicands, exact_calls):
        cases = _FilterCases(radicands, seed=len(radicands))
        for kind in ("generic", "collinear", "near_collinear"):
            if kind == "near_collinear" and not cases.pell:
                continue
            for _ in range(6):
                base = getattr(cases, kind)()
                for k in FILTER_SCALES:
                    a, b, c = pts = _scaled(base, k)
                    want = _exact_orientation(a, b, c)
                    got, fell_back = _fell_back(exact_calls, orientation, a, b, c)
                    assert got == want, (kind, k)
                    assert _fell_back(exact_calls, orientation, b, a, c)[0] == -want
                    if kind != "generic" or k in OUT_OF_RANGE:
                        assert fell_back, (kind, k)
                    elif want != 0 and k != -160:
                        assert not fell_back, (kind, k)
                    for p, q, r in (pts, (b, c, a), (c, a, b)):
                        assert point_on_segment(p, q, r) == _exact_on_segment(p, q, r)
                    assert point_on_segment(a, a, b) and point_on_segment(b, a, b)

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_point_in_triangle_and_disjointness(self, radicands, exact_calls):
        decided = 0
        for k, (t1, t2, t3, t4, into, away) in _disjoint_cases(radicands):
            a, b, c = t1.vertices
            for p in (*t2.vertices, *into.vertices, Pt((a.x + b.x) / 2, (a.y + b.y) / 2)):
                assert point_in_triangle(p, t1) == _exact_in_triangle(p, t1)
            for u, w in _disjoint_pairs(t1, t2, t3, t4, into, away):
                got, fell_back = _fell_back(exact_calls, triangles_interior_disjoint, u, w)
                assert got == _exact_disjoint(u, w), k
                decided += k == 0 and not fell_back
                if w is into or u is away:
                    assert fell_back
            assert not triangles_interior_disjoint(t1, into)
            assert triangles_interior_disjoint(away, t1)
        assert decided > 0

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_disjointness_matches_the_separating_axis_reference(self, radicands):
        for k, cases in _disjoint_cases(radicands):
            for u, w in _disjoint_pairs(*cases):
                assert triangles_interior_disjoint(u, w) == reference.triangles_interior_disjoint(u, w), k

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_angle_comparisons(self, radicands, exact_calls):
        cases = _FilterCases(radicands, seed=20 + len(radicands))
        fallbacks = decided = 0
        for _ in range(12):
            for kind in ("generic", "collinear", "near_collinear", "copy"):
                if kind == "near_collinear" and not cases.pell:
                    continue
                a, b, c = cases.generic()
                if kind == "copy":
                    # the same angle turned a quarter and scaled: cosines tie
                    s = cases.value() or TowerReal.from_rational(2)
                    d, e, f = (Pt(-p.y * s, p.x * s) for p in (a, b, c))
                else:
                    d, e, f = getattr(cases, kind)()
                u1, w1, u2, w2 = b - a, c - a, e - d, f - d
                want = _exact_angle_compare(u1, w1, u2, w2)
                if want is None:
                    continue
                first, second = AngleVec.between(u1, w1), AngleVec.between(u2, w2)
                got, fell_back = _fell_back(exact_calls, first.compare, second)
                assert got == want, kind
                assert AngleVec.between(u2, w2).compare(AngleVec.between(u1, w1)) == -want
                fallbacks += fell_back
                decided += not fell_back
        assert fallbacks > 0 and decided > 0

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_interior_angles_match_between(self, radicands, exact_calls):
        """The interior angle at ``at`` of a corner (prev, at, next) is
        ``between(next - at, prev - at)``; on generic, straight, zero and
        equal angles it must order as the eager exact reference, at every
        scale.  A generic pair builds no exact product exactly when the
        regions or the cosine signs differ: equal ones are compared by the
        exact squared cosines."""
        cases = _FilterCases(radicands, seed=30 + len(radicands))
        rng = cases.rng
        decided = 0
        for _ in range(6):
            for kind in ("generic", "straight", "zero", "copy", "near_collinear"):
                if kind == "near_collinear" and not cases.pell:
                    continue
                first = cases.generic()
                if kind == "copy":
                    # the same corner turned a quarter and scaled: cosines tie
                    s = cases.value() or TowerReal.from_rational(2)
                    second = tuple(Pt(-p.y * s, p.x * s) for p in first)
                elif kind in ("straight", "zero"):
                    a, b = cases.point(), cases.point()
                    t = Fraction(rng.randint(1, 8), 9)
                    mid = a + (b - a) * t
                    second = (a, mid, b) if kind == "straight" else (mid, a, b)
                else:
                    second = getattr(cases, kind)()
                for k in [0] + sorted(OUT_OF_RANGE):
                    vecs = [(n - at, p - at) for p, at, n in (_scaled(first, k), _scaled(second, k))]
                    want = _exact_angle_compare(*vecs[0], *vecs[1])
                    # built inside the count, so an eager product would show
                    got, fell_back = _fell_back(exact_calls, lambda: _outcome(
                        AngleVec.between(*vecs[0]).compare, AngleVec.between(*vecs[1])))
                    assert got == (ValueError if want is None else want), (kind, k)
                    if kind == "generic" and k == 0:
                        (r1, s1), (r2, s2) = (_region_and_cos(u, w) for u, w in vecs)
                        assert fell_back == (r1 == r2 and s1 == s2), (r1, s1, r2, s2)
                    if k in OUT_OF_RANGE:
                        assert fell_back, (kind, k)
                    decided += not fell_back
        assert decided > 0

    def test_angles_build_only_what_they_decide_by(self, exact_calls):
        """A pair whose cosine signs differ is ordered from floats alone; a
        pair whose cosines share a sign builds the dots and the norms |u|^2
        |w|^2, each once, but no cross, since the filter certifies both
        regions."""
        r3 = sqrt_adjoin(3)
        e = Pt(1, 0)
        deg30, deg45, deg135 = Pt(r3, 1), Pt(1, 1), Pt(-1, 1)
        got, fell_back = _fell_back(exact_calls, AngleVec.between(e, deg45).compare,
                                    AngleVec.between(e, deg135))
        assert (got, fell_back) == (-1, False)
        del exact_calls[:]
        first, second = AngleVec.between(e, deg30), AngleVec.between(e, deg45)
        assert first.compare(second) == -1 and second.compare(first) == 1
        assert "cross" not in exact_calls and "__sub__" not in exact_calls
        # one dot and two for the norms per angle, reused by the second compare
        assert exact_calls == ["dot", "dot", "dot", "dot", "dot", "dot"]

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_area_sign(self, radicands, exact_calls):
        """``_area_sign`` agrees with the exact shoelace sum on seeded
        polygons of 3 to 7 corners, either way round, at every scale; it
        decides generic ones in range without exact products, and falls back
        on collinear and near-collinear triangles and out of range."""
        cases = _FilterCases(radicands, seed=60 + len(radicands))
        decided = 0
        for kind in ("generic", "collinear", "near_collinear"):
            if kind == "near_collinear" and not cases.pell:
                continue
            for size in range(3, 8):
                base = getattr(cases, kind)() if size == 3 else [cases.point() for _ in range(size)]
                for k in FILTER_SCALES:
                    pts = _scaled(base, k)
                    for verts in (pts, pts[::-1], pts[1:] + pts[:1]):
                        want = polygon_area(verts).sign()
                        got, fell_back = _fell_back(exact_calls, geom._area_sign, verts)
                        assert got == want, (kind, size, k)
                        if k in OUT_OF_RANGE or (size == 3 and kind != "generic"):
                            assert fell_back, (kind, size, k)
                        decided += not fell_back
        assert decided > 0

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_triangle_orientation(self, radicands):
        """``Triangle.oriented``, ``is_degenerate`` and the verifier's area
        sign read the cached filtered orientation ``_turn``; each agrees with
        the sign of the exact ``signed_area`` on generic, collinear and
        near-collinear triangles, either way round, in range and at every
        out-of-range scale, and on degenerate ones made of a repeated point
        object or of three collinear lattice points.  The verifier's sign
        shows in a one-piece dissection of a triangle by itself: its piece
        area must equal the region's."""
        cases = _FilterCases(radicands, seed=70 + len(radicands))
        lattice = (P(1, 1), P(2, 3), P(4, 7))
        bases = [lattice] + [getattr(cases, kind)() for kind in ("generic", "collinear") for _ in range(3)]
        if cases.pell:
            bases += [cases.near_collinear() for _ in range(3)]
        for base in bases:
            for k in [0] + sorted(OUT_OF_RANGE):
                a, b, c = _scaled(base, k)
                for t in (Triangle(a, b, c), Triangle(a, c, b), Triangle(a, b, a), Triangle(b, c, c)):
                    want = t.signed_area().sign()
                    assert t.is_degenerate() == (want == 0), k
                    oriented = t.oriented()
                    assert oriented.signed_area().sign() == abs(want), k
                    assert oriented.vertices == (t.vertices if want >= 0 else (t.va, t.vc, t.vb)), k
                    if want != 0:
                        assert verify_dissection(Dissection(t, (t,))).ok, k

    def test_nested_coordinates_filter(self, exact_calls):
        """Nested coordinates have float boxes too: generic cases are decided
        by the float bound and agree with the exact path; a collinear one
        falls back.  Angles whose cosine signs differ are ordered without
        exact vectors; equal signs compare the exact squared cosines."""
        r = parse_number("sqrt(5 + 2*sqrt(6))")
        assert len(r.ctx._prods) < 1 << r.ctx.depth  # nested
        a, b = Pt(0, 0), Pt(r, 1)
        for c, collinear in ((Pt(1, 2), False), (Pt(r * 2, 2), True), (Pt(r, -r), False)):
            got, fell_back = _fell_back(exact_calls, orientation, a, b, c)
            assert got == _exact_orientation(a, b, c)
            assert fell_back == collinear
        u = b - a
        for w2, same_sign in ((Pt(1, 1), True), (Pt(-1, 1), False)):
            angle = AngleVec.between(u, Pt(1, 2))
            got, fell_back = _fell_back(exact_calls, angle.compare, AngleVec.between(Pt(1, 0), w2))
            assert got == _exact_angle_compare(u, Pt(1, 2), Pt(1, 0), w2)
            assert fell_back == same_sign

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_straight_line_bound_against_interval_chain(self, radicands):
        """``_fsign`` never certifies a wrong orientation or dot sign, and it
        decides every one that the interval chain decides, except at 10**-160:
        there the products are subnormal, below the bound's 2**-1000 floor."""
        cases = _FilterCases(radicands, seed=40 + len(radicands))
        decided = 0
        for kind in ("generic", "collinear", "near_collinear"):
            if kind == "near_collinear" and not cases.pell:
                continue
            for _ in range(4):
                base = getattr(cases, kind)()
                for k in FILTER_SCALES:
                    pts = _scaled(base, k)
                    for o, a, b in (pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
                        mids = o._centre(), a._centre(), b._centre()
                        for dot, chain, exact in (
                            (False, _chain_orientation, (a - o).cross(b - o)),
                            (True, _chain_dot, (a - o).dot(b - o)),
                        ):
                            got = geom._fsign(*mids, dot=dot)
                            assert got in (0, exact.sign()), (kind, k, dot)
                            if k != -160:
                                assert got or not _chain_sign(chain, o, a, b), (kind, k, dot)
                            decided += got != 0
        assert decided > 0

    @pytest.mark.parametrize("radicands", FILTER_RADICANDS)
    def test_angle_signs_against_interval_chain(self, radicands, exact_calls):
        """``AngleVec._sign`` never certifies a wrong dot or cross sign of
        the corner (o, a, b), as ``between(a - o, b - o)``, and it certifies
        every sign that the interval chain certifies on the vectors' boxes
        or on the points' boxes, except at 10**-160."""
        cases = _FilterCases(radicands, seed=50 + len(radicands))
        decided = 0
        for kind in ("generic", "collinear", "near_collinear"):
            if kind == "near_collinear" and not cases.pell:
                continue
            for _ in range(4):
                base = getattr(cases, kind)()
                for k in FILTER_SCALES:
                    pts = _scaled(base, k)
                    for o, a, b in (pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
                        u, w = a - o, b - o
                        for j, exact, f, chain in (
                            (0, u.dot(w), reference._fdot, _chain_dot),
                            (1, u.cross(w), reference._fcross, _chain_orientation),
                        ):
                            certified = _chain_sign(f, u, w) or _chain_sign(chain, o, a, b)
                            angle = AngleVec.between(u, w)
                            got, fell_back = _fell_back(exact_calls, angle._sign, j)
                            assert got == exact.sign(), (kind, k, j)
                            if k != -160:
                                assert not (certified and fell_back), (kind, k, j)
                            decided += not fell_back
        assert decided > 0

    def test_no_infinity_or_nan_decides(self):
        inf, nan = float("inf"), float("nan")
        for lo, hi in ((nan, 1.0), (1.0, nan), (nan, nan), (1.0, inf), (-inf, -1.0)):
            with pytest.raises(OverflowError):
                reference._iv(lo, hi)
        big = (1e300, 1e300)
        with pytest.raises(OverflowError):
            reference._imul(big, big)
        assert reference._certified(reference._imul, big, big) == 0
        assert reference._certified(reference._imul, big, None) == 0
        assert reference._certified(reference._imul, (2.0, 3.0), (1.0, 2.0)) == 1
        # the straight-line bound: overflowing products, subnormal coordinates,
        # no box, and a NaN or infinite midpoint or radius never certify a sign
        r = parse_number("sqrt(1 + sqrt(2))")
        for scale in (Fraction(10) ** 300, Fraction(1, 10**310), r * 10**400):
            a, b, c = (Pt(x * scale, y * scale) for x, y in ((0, 1), (r, 3), (2, r)))
            mids = a._centre(), b._centre(), c._centre()
            assert geom._fsign(*mids) == 0 and geom._fsign(*mids, dot=True) == 0
            assert orientation(a, b, c) == _exact_orientation(a, b, c) != 0
        assert Pt(r * 10**400, 1)._centre() is None
        good = ((1.0, 0.0, 1e-16), (3.0, 1.0, 1e-16), (2.0, 5.0, 1e-16))
        assert geom._fsign(*good) == 1 and geom._fsign(*good, dot=True) == 1
        for k in range(3):
            for j, bad in ((0, nan), (1, nan), (0, inf), (1, -inf), (2, nan), (2, inf)):
                mids = [list(m) for m in good]
                mids[k][j] = bad
                assert geom._fsign(*mids) == 0 and geom._fsign(*mids, dot=True) == 0, (k, j)


class TestAreaSign:
    """``_area_sign`` on hand-built polygons: the float bound decides a
    plain one, and the exact sum decides one too thin for the bound and one
    beyond the float range."""

    SQUARE = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]

    def test_decided_by_the_bound(self, exact_calls):
        for verts, want in ((self.SQUARE, 1), (self.SQUARE[::-1], -1)):
            assert _fell_back(exact_calls, geom._area_sign, verts) == (want, False)

    def test_too_thin_for_the_bound(self, exact_calls):
        sliver = [P(0, 0), P(1, 0), Pt(Fraction(1, 2), Fraction(1, 10**40))]
        line = [P(0, 0), P(1, 0), P(2, 0)]
        for verts, want in ((sliver, 1), (sliver[::-1], -1), (line, 0)):
            assert polygon_area(verts).sign() == want
            assert _fell_back(exact_calls, geom._area_sign, verts) == (want, True)

    def test_beyond_the_float_range(self, exact_calls):
        big = [Pt(p.x * 10**400, p.y * 10**400) for p in self.SQUARE]
        assert big[1]._centre() is None
        for verts, want in ((big, 1), (big[::-1], -1)):
            assert _fell_back(exact_calls, geom._area_sign, verts) == (want, True)
