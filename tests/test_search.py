"""Tests for the exhaustive dissection search.

Every expected dissection below was constructed by hand from elementary
geometry before the search ran, so the searches are checked against
independent oracles:

* right isoceles, m=2: the altitude from the right angle is the only cut
  that makes two congruent halves, so the search must return exactly the
  pieces (A, M, C), (M, B, C) with M = (1/2, 0).
* equilateral, m=3 with the 30-30-120 tile (1/sqrt3, 1/sqrt3, 1): joining
  the circumcenter O = (1/2, sqrt3/6) to the three corners gives three such
  tiles (|OA| = |OB| = |OC| = 1/sqrt3).
* 30-60-90, m=3 with the similar tile: placing a tile with its long leg
  along the short region side splits off (A, D, C) with D = (1/2, sqrt3/6),
  and the leftover isoceles triangle (A, B, D) falls apart along its apex
  altitude through M = (1/2, 0); the three pieces use both mirror
  handednesses, so the search must find nothing without reflections.
* legs 1:2 right triangle, m=5: the altitude from the right angle C to the
  hypotenuse lands at H = (1/5, 0) and cuts off one similar piece of ratio
  1/sqrt5; the remaining triangle (H, B, C) is the region scaled by 2/sqrt5
  and its four-piece midpoint dissection finishes the five.
"""

import json
import random
import sys
import time
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest

from equicut.dissect import (
    _hashed_pieces,
    _piece_multiset_key,
    canonical_triangle,
    is_standard,
    standard_from_region,
    verify_dissection,
)
from equicut import search as search_module
from equicut.cli import _parse_region as cli_parse_region
from equicut.cli import main as cli_main
from equicut.dissect import _point_key
from equicut.exact import TowerReal, _value_key, exactify, sqrt_adjoin
from equicut.geom import (
    AngleVec,
    Isometry,
    Location,
    Pt,
    Triangle,
    orientation,
    point_in_polygon,
    point_on_segment,
    polygon_area,
)
from equicut.search import (
    _edge_sort_key,
    _Poly,
    _Searcher,
    _split_edge,
    SearchSpec,
    region_symmetries,
    search_dissections,
    search_for_count,
    similar_tile,
)

HALF_SQRT2 = sqrt_adjoin(Fraction(1, 2))
SQRT3 = sqrt_adjoin(3)
INV_SQRT3 = sqrt_adjoin(Fraction(1, 3))

RIGHT_ISOCELES = canonical_triangle(HALF_SQRT2, HALF_SQRT2)
EQUILATERAL = canonical_triangle(1, 1)
THIRTY_SIXTY = canonical_triangle(sqrt_adjoin(Fraction(3, 4)), Fraction(1, 2))
LEGS_ONE_TWO = canonical_triangle(
    sqrt_adjoin(Fraction(4, 5)), sqrt_adjoin(Fraction(1, 5))
)
SCALENE = canonical_triangle(Fraction(7, 8), Fraction(3, 4))


def tri(*coords) -> Triangle:
    pts = [Pt(x, y) for (x, y) in coords]
    return Triangle(*pts)


def keys(dissections):
    return [_piece_multiset_key(d.pieces) for d in dissections]


def assert_contains(dissections, pieces):
    want = _piece_multiset_key(pieces)
    assert any(want == k for k in keys(dissections))


def nodes_without_lengths(region, m, **kw) -> int:
    """Nodes of a complete similar-tile search with the length prune off.
    The node pins taken before that prune existed are kept this way."""
    out = search_dissections(
        SearchSpec(
            region=region, tile=similar_tile(region, m), m=m, prune_lengths=False, **kw
        )
    )
    assert out.complete
    return out.nodes


class TestSmallOracles:
    def test_right_isoceles_m2_is_exactly_the_altitude_cut(self):
        out = search_dissections(
            SearchSpec(
                region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 2), m=2
            )
        )
        assert out.complete
        assert out.note is None
        assert len(out.dissections) == 1
        expected = [
            tri((0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2))),
            tri((Fraction(1, 2), 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))),
        ]
        assert_contains(out.dissections, expected)
        assert out.nodes == 3
        assert nodes_without_lengths(RIGHT_ISOCELES, 2) == 4

    def test_scalene_m2_has_no_dissection(self):
        out = search_dissections(
            SearchSpec(region=SCALENE, tile=similar_tile(SCALENE, 2), m=2)
        )
        assert out.complete
        assert out.dissections == []

    def test_equilateral_m3_with_center_tile(self):
        center_y = SQRT3 / 6
        out = search_dissections(
            SearchSpec(region=EQUILATERAL, tile=(INV_SQRT3, INV_SQRT3, 1), m=3)
        )
        assert out.complete
        assert len(out.dissections) >= 1
        apex = (Fraction(1, 2), SQRT3 / 2)
        center = (Fraction(1, 2), center_y)
        expected = [
            tri((0, 0), (1, 0), center),
            tri((1, 0), apex, center),
            tri((0, 0), center, apex),
        ]
        assert_contains(out.dissections, expected)

    def test_equilateral_m3_with_similar_tile_finds_nothing(self):
        out = search_dissections(
            SearchSpec(region=EQUILATERAL, tile=similar_tile(EQUILATERAL, 3), m=3)
        )
        assert out.complete
        assert out.dissections == []
        assert out.nodes == 0  # sqrt(3) times a side is no sum of sides
        assert out.stats["cuts"]["lengths"] == 1
        assert nodes_without_lengths(EQUILATERAL, 3) == 2

    def test_thirty_sixty_m3_finds_the_rep3(self):
        out = search_dissections(
            SearchSpec(region=THIRTY_SIXTY, tile=similar_tile(THIRTY_SIXTY, 3), m=3)
        )
        assert out.complete
        assert len(out.dissections) >= 1
        d_pt = (Fraction(1, 2), SQRT3 / 6)
        expected = [
            tri((0, 0), (Fraction(1, 2), 0), d_pt),
            tri((Fraction(1, 2), 0), (1, 0), d_pt),
            tri((0, 0), d_pt, (Fraction(1, 4), SQRT3 / 4)),
        ]
        assert_contains(out.dissections, expected)
        # regression pin: the rep-3 is the only dissection
        assert len(out.dissections) == 1

    def test_thirty_sixty_m3_needs_both_handednesses(self):
        out = search_dissections(
            SearchSpec(
                region=THIRTY_SIXTY,
                tile=similar_tile(THIRTY_SIXTY, 3),
                m=3,
                allow_reflections=False,
            )
        )
        assert out.complete
        assert out.dissections == []

    def test_m1_returns_the_region_itself(self):
        out = search_dissections(
            SearchSpec(region=SCALENE, tile=similar_tile(SCALENE, 1), m=1)
        )
        assert out.complete
        assert len(out.dissections) == 1
        assert_contains(out.dissections, [SCALENE])
        assert out.nodes == 2
        assert nodes_without_lengths(SCALENE, 1) == 2

    def test_m1_without_reflections_respects_handedness(self):
        # the canonical scalene region has the mirror handedness relative to
        # the ascending reference side cycle, so restricting to one
        # handedness leaves nothing
        out = search_dissections(
            SearchSpec(
                region=SCALENE,
                tile=similar_tile(SCALENE, 1),
                m=1,
                allow_reflections=False,
            )
        )
        assert out.complete
        assert out.dissections == []


class TestRightIsocelesM4:
    def run(self, **kw):
        return search_dissections(
            SearchSpec(
                region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 4), m=4, **kw
            )
        )

    def test_finds_standard_and_windmill(self):
        out = self.run()
        assert out.complete
        assert len(out.dissections) == 2
        standards = [d for d in out.dissections if is_standard(d)]
        others = [d for d in out.dissections if not is_standard(d)]
        assert len(standards) == 1 and len(others) == 1
        m = (Fraction(1, 2), 0)
        f1 = (Fraction(1, 4), Fraction(1, 4))
        f2 = (Fraction(3, 4), Fraction(1, 4))
        apex = (Fraction(1, 2), Fraction(1, 2))
        windmill = [
            tri((0, 0), m, f1),
            tri(f1, m, apex),
            tri(m, (1, 0), f2),
            tri(m, f2, apex),
        ]
        assert _piece_multiset_key(others[0].pieces) == _piece_multiset_key(windmill)
        lattice = standard_from_region(RIGHT_ISOCELES, 2)
        assert _piece_multiset_key(standards[0].pieces) == _piece_multiset_key(
            lattice.pieces
        )

    def test_every_result_passes_verification(self):
        out = self.run()
        for d in out.dissections:
            assert d.piece_count == 4
            assert verify_dissection(d).ok

    def test_node_count_regression(self):
        assert self.run().nodes == 7
        assert self.run(prune_lengths=False).nodes == 12


class TestLegsOneTwoM5:
    def test_rediscovers_the_altitude_plus_midpoint_dissection(self):
        out = search_dissections(
            SearchSpec(region=LEGS_ONE_TWO, tile=similar_tile(LEGS_ONE_TWO, 5), m=5)
        )
        assert out.complete
        assert len(out.dissections) >= 1
        h = (Fraction(1, 5), 0)
        c = (Fraction(1, 5), Fraction(2, 5))
        mid_hb = (Fraction(3, 5), 0)
        mid_hc = (Fraction(1, 5), Fraction(1, 5))
        mid_bc = (Fraction(3, 5), Fraction(1, 5))
        oracle = [
            tri((0, 0), h, c),
            tri(h, mid_hb, mid_hc),
            tri(mid_hb, (1, 0), mid_bc),
            tri(mid_hc, mid_bc, c),
            tri(mid_hb, mid_bc, mid_hc),
        ]
        assert_contains(out.dissections, oracle)
        # regression pins: the middle rectangle splits along either diagonal
        assert len(out.dissections) == 2
        assert out.nodes == 10
        assert nodes_without_lengths(LEGS_ONE_TWO, 5) == 25


class TestScaleneSweep:
    def test_m2_to_m6_only_the_standard_four_piece(self):
        expected_counts = {2: 0, 3: 0, 4: 1, 5: 0, 6: 0}
        # (nodes with the length prune, nodes without it)
        expected_nodes = {2: (0, 3), 3: (0, 4), 4: (5, 9), 5: (0, 17), 6: (0, 23)}
        for m, want in expected_counts.items():
            for prune, nodes in zip((True, False), expected_nodes[m]):
                out = search_dissections(
                    SearchSpec(
                        region=SCALENE,
                        tile=similar_tile(SCALENE, m),
                        m=m,
                        prune_lengths=prune,
                    )
                )
                assert out.complete, m
                assert len(out.dissections) == want, m
                assert out.nodes == nodes, (m, prune)
                if m == 4:
                    assert is_standard(out.dissections[0])


class TestNamedTrianglePins:
    """(nodes, results) of complete similar-tile searches on the named
    triangles, beside the instances pinned above, with the length prune off
    and with the default settings."""

    REGIONS = {
        "30-60-90": THIRTY_SIXTY,
        "equilateral": EQUILATERAL,
        "legs-1:2": LEGS_ONE_TWO,
        "right-isoceles": RIGHT_ISOCELES,
    }

    @pytest.mark.parametrize(
        "name,m,nodes,results",
        [
            ("30-60-90", 2, 3, 0),
            ("30-60-90", 3, 5, 1),
            ("30-60-90", 4, 28, 4),
            ("equilateral", 2, 2, 0),
            ("equilateral", 3, 2, 0),
            ("equilateral", 4, 5, 1),
            ("equilateral", 5, 5, 0),
            ("equilateral", 9, 10, 1),
            ("legs-1:2", 2, 3, 0),
            ("legs-1:2", 3, 3, 0),
            ("legs-1:2", 4, 14, 2),
            ("right-isoceles", 3, 6, 0),
            ("right-isoceles", 8, 96, 4),
        ],
    )
    def test_node_and_result_counts(self, name, m, nodes, results):
        region = self.REGIONS[name]
        out = search_dissections(
            SearchSpec(region=region, tile=similar_tile(region, m), m=m, prune_lengths=False)
        )
        assert out.complete
        assert (out.nodes, len(out.dissections)) == (nodes, results)

    @pytest.mark.parametrize(
        "name,m,nodes,results",
        [
            ("30-60-90", 2, 0, 0),
            ("30-60-90", 3, 4, 1),
            ("30-60-90", 4, 13, 4),
            ("equilateral", 2, 0, 0),
            ("equilateral", 3, 0, 0),
            ("equilateral", 4, 5, 1),
            ("equilateral", 5, 0, 0),
            ("equilateral", 9, 10, 1),
            ("legs-1:2", 2, 0, 0),
            ("legs-1:2", 3, 0, 0),
            ("legs-1:2", 4, 8, 2),
            ("right-isoceles", 3, 0, 0),
            ("right-isoceles", 8, 19, 4),
        ],
    )
    def test_default_node_and_result_counts(self, name, m, nodes, results):
        region = self.REGIONS[name]
        out = search_dissections(SearchSpec(region=region, tile=similar_tile(region, m), m=m))
        assert out.complete
        assert (out.nodes, len(out.dissections)) == (nodes, results)


class TestPruningSoundness:
    CASES = [
        (RIGHT_ISOCELES, 4),
        (EQUILATERAL, 3),
        (THIRTY_SIXTY, 3),
        (SCALENE, 4),
    ]

    @pytest.mark.parametrize(
        "toggle",
        [
            {"prune_remainder": False},
            {"prune_remainder": False, "symmetry_quotient": True},
            {"prune_lengths": False, "allow_reflections": False},
            {"prune_lengths": False},
            {"prune_remainder": False, "prune_lengths": False},
        ],
    )
    def test_disabling_prunes_never_changes_results(self, toggle):
        """The baseline search shares every non-prune field of ``toggle``, so
        a case may hold, say, the symmetry quotient or the handedness fixed
        while a rule is off."""
        fixed = {k: v for k, v in toggle.items() if not k.startswith("prune_")}
        for region, m in self.CASES:
            tile = similar_tile(region, m)
            base = search_dissections(SearchSpec(region=region, tile=tile, m=m, **fixed))
            alt = search_dissections(
                SearchSpec(region=region, tile=tile, m=m, **toggle)
            )
            assert alt.complete and base.complete
            assert keys(alt.dissections) == keys(base.dissections)
            assert alt.nodes >= base.nodes

    @pytest.mark.parametrize("prunes", [True, False], ids=["prunes_on", "prunes_off"])
    def test_a_side_past_a_convex_vertex_does_not_fit(self, monkeypatch, prunes):
        """A flush side longer than the outgoing edge, whose far end v_next
        is convex, is refused by ``_fits`` alone: the frontier edge leaving
        v_next turns into the placed triangle."""
        overshoots = []
        fits = _Searcher._fits

        def recording_fits(self, poly, tri):
            out = fits(self, poly, tri)
            verts, n = poly.verts, len(poly.verts)
            for i in range(n):
                nxt = verts[(i + 1) % n]
                if (
                    verts[i] is tri[0]
                    and nxt is not tri[1]
                    and point_on_segment(nxt, tri[0], tri[1])
                    and orientation(verts[i], nxt, verts[(i + 2) % n]) > 0
                ):
                    overshoots.append(out)
            return out

        monkeypatch.setattr(_Searcher, "_fits", recording_fits)
        toggles = dict.fromkeys(("prune_remainder", "prune_lengths"), prunes)
        for region, m in self.CASES:
            search_dissections(
                SearchSpec(region=region, tile=similar_tile(region, m), m=m, **toggles)
            )
        assert overshoots and not any(overshoots)


def _seeded_rational_triangles(count: int, seed: int):
    """Triangles with sides (a, b, 1) for small-denominator rationals a, b."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(1, 23), rng.randint(2, 24))
        b = Fraction(rng.randint(1, 23), rng.randint(2, 24))
        if abs(a - b) < 1 < a + b:
            out.append(canonical_triangle(a, b))
    return out


class TestLengthPruneDifferential:
    """The length prune only cuts subtrees that hold no dissection: with it
    on and off, every search returns the same results (exact keys, in
    order), and it never visits more nodes with the prune on."""

    PINNED = (
        [(RIGHT_ISOCELES, m) for m in (2, 3, 4, 8)]
        + [(EQUILATERAL, m) for m in (2, 3, 4, 5, 9)]
        + [(THIRTY_SIXTY, m) for m in (2, 3, 4)]
        + [(LEGS_ONE_TWO, m) for m in (2, 3, 4, 5)]
        + [(SCALENE, m) for m in (1, 2, 3, 4, 5, 6)]
    )

    @staticmethod
    def assert_same(region, m, tile=None, **kw):
        tile = tile or similar_tile(region, m)
        on, off = (
            search_dissections(
                SearchSpec(region=region, tile=tile, m=m, prune_lengths=prune, **kw)
            )
            for prune in (True, False)
        )
        assert on.complete and off.complete
        assert keys(on.dissections) == keys(off.dissections)
        assert on.nodes <= off.nodes
        assert off.stats["cuts"]["lengths"] == 0

    def test_pinned_instances(self):
        for region, m in self.PINNED:
            self.assert_same(region, m)
        self.assert_same(EQUILATERAL, 3, tile=(INV_SQRT3, INV_SQRT3, 1))
        self.assert_same(THIRTY_SIXTY, 3, allow_reflections=False)
        self.assert_same(SCALENE, 1, allow_reflections=False)
        self.assert_same(RIGHT_ISOCELES, 4, symmetry_quotient=True)

    def test_seeded_rational_triangles(self):
        for region in _seeded_rational_triangles(11, seed=2024):
            for m in range(2, 7):
                self.assert_same(region, m)


class TestRepTileOracle:
    """Snover, Waiveris and Williams (Discrete Math. 91, 1991): a triangle
    cuts into m pieces similar to itself exactly when m = n^2, or m = n^2 +
    k^2 and it is right with legs n:k, or m = 3n^2 and it is the 30-60-90.
    The similar-tile search must find results exactly there, for m <= 12."""

    @staticmethod
    def allowed(name: str, m: int) -> bool:
        def square(x: int) -> bool:
            return isqrt(x) ** 2 == x

        legs = {"right-isoceles": (1, 1), "legs-1:2": (1, 2)}.get(name)
        if square(m):
            return True
        if legs is not None:
            base = legs[0] ** 2 + legs[1] ** 2
            return m % base == 0 and square(m // base)
        return name == "30-60-90" and m % 3 == 0 and square(m // 3)

    def test_results_exactly_where_the_classification_allows(self):
        regions = dict(TestNamedTrianglePins.REGIONS, scalene=SCALENE)
        t0 = time.monotonic()
        found = set()
        for name, region in regions.items():
            for m in range(2, 13):
                out = search_dissections(
                    SearchSpec(region=region, tile=similar_tile(region, m), m=m)
                )
                assert out.complete, (name, m)
                assert bool(out.dissections) == self.allowed(name, m), (name, m)
                if out.dissections:
                    found.add((name, m))
        elapsed = time.monotonic() - t0
        assert ("30-60-90", 12) in found and ("legs-1:2", 5) in found
        assert ("right-isoceles", 8) in found and ("scalene", 9) in found
        assert elapsed < 15.0


class TestGenericTriangleOracle:
    """The paper's theorem: a triangle with no linear relation over Q among
    its angles and pi, and none among its sides and the square roots of
    small integers, cuts into m congruent triangles only for m = n^2, and
    then only into the standard n x n dissection.

    What this shows, and no more: for each of three triangles with nested
    sides, ``equicut analyze`` certifies that no such relation exists *up to
    a height* (12 for the angles, 8 for the sides); relations of larger
    height are not ruled out.  Then only the *similar* tile is searched,
    at m = 2..16: every run is complete, and it finds exactly one
    dissection, the standard one, at m = 4, 9 and 16, and none at any other
    m.  Tiles of other shapes are not searched.  The triangles avoid the
    exceptional angle conditions of Laczkovich (Discrete Math. 140, 1995):
    their angles are independent of pi up to the certified height."""

    REGIONS = (
        "1/2*sqrt(1 + sqrt(2)),1/2*sqrt(1 + sqrt(3))",
        "1/2*sqrt(1 + sqrt(5)),1/2*sqrt(2 + sqrt(2))",
        "1/3*sqrt(2 + sqrt(7)),1/2*sqrt(1 + sqrt(6))",
    )

    @pytest.mark.parametrize("text", REGIONS)
    def test_no_relation_up_to_the_default_heights(self, capsys, text):
        assert cli_main(["analyze", "--region", text, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sigma1"]["status"] == report["sigma2"]["status"] == "none_up_to_height"
        assert (report["sigma1"]["height"], report["sigma2"]["height"]) == (12, 8)

    @pytest.mark.parametrize("text", REGIONS)
    def test_only_square_counts_and_only_the_standard_dissection(self, text):
        region = cli_parse_region(text)[0]
        t0 = time.monotonic()
        found = {}
        for m in range(2, 17):
            out = search_dissections(SearchSpec(region=region, tile=similar_tile(region, m), m=m))
            assert out.complete, m
            if out.dissections:
                found[m] = out.dissections
        elapsed = time.monotonic() - t0
        assert sorted(found) == [4, 9, 16]
        for m, dissections in found.items():
            assert len(dissections) == 1 and is_standard(dissections[0]), m
        # measured 0.4-0.7 s on a shared 2-CPU machine (2.6-3.2 s before the
        # nested product stopped halving at the flat prefix)
        assert elapsed < 4.0


class TestLimits:
    def test_max_nodes_truncates_and_reports_incomplete(self):
        out = search_dissections(
            SearchSpec(
                region=RIGHT_ISOCELES,
                tile=similar_tile(RIGHT_ISOCELES, 4),
                m=4,
                max_nodes=5,
                prune_lengths=False,
            )
        )
        assert not out.complete
        assert out.nodes == 6  # the call that tripped the limit is counted
        assert out.stats["truncated_by"] == "nodes"

    def test_max_nodes_with_the_length_prune(self):
        out = search_dissections(
            SearchSpec(
                region=RIGHT_ISOCELES,
                tile=similar_tile(RIGHT_ISOCELES, 4),
                m=4,
                max_nodes=5,
            )
        )
        assert not out.complete
        assert (out.nodes, len(out.dissections)) == (6, 1)
        assert out.stats["truncated_by"] == "nodes"

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # 144 pieces deep, with room for only 120 more frames on the stack
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 120)
        try:
            out = search_dissections(
                SearchSpec(region=EQUILATERAL, tile=similar_tile(EQUILATERAL, 144), m=144)
            )
        finally:
            sys.setrecursionlimit(limit)
        assert out.complete and out.nodes == 145
        assert len(out.dissections) == 1 and is_standard(out.dissections[0])

    def test_max_results_stops_after_first_find(self):
        out = search_dissections(
            SearchSpec(
                region=RIGHT_ISOCELES,
                tile=similar_tile(RIGHT_ISOCELES, 4),
                m=4,
                max_results=1,
            )
        )
        assert not out.complete
        assert len(out.dissections) == 1
        assert verify_dissection(out.dissections[0]).ok
        assert out.stats["truncated_by"] == "results"

    @pytest.mark.parametrize("budget", ["max_nodes", "max_results"])
    @pytest.mark.parametrize("value", [0, -1, float("nan")])
    def test_budgets_below_one_are_rejected(self, budget, value):
        spec = SearchSpec(
            region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 4), m=4, **{budget: value}
        )
        with pytest.raises(ValueError, match=f"{budget} must be at least 1"):
            search_dissections(spec)

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_time_budget_nan_or_negative_is_rejected(self, value):
        # NaN compares false with every deadline, so it would mean no budget
        spec = SearchSpec(
            region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 4), m=4, time_budget=value
        )
        with pytest.raises(ValueError, match="time_budget must be at least 0"):
            search_dissections(spec)

    def test_zero_time_budget_stops_immediately(self):
        out = search_dissections(
            SearchSpec(
                region=RIGHT_ISOCELES,
                tile=similar_tile(RIGHT_ISOCELES, 4),
                m=4,
                time_budget=0.0,
            )
        )
        assert not out.complete
        assert out.dissections == []
        assert out.stats["truncated_by"] == "time"

    def test_time_budget_is_checked_inside_the_length_check(self, monkeypatch):
        # The clock passes the deadline after the first call, which sets it,
        # so the root's length check must notice and stop the search.
        ticks = iter(range(1000))
        monkeypatch.setattr(search_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        out = search_dissections(
            SearchSpec(
                region=SCALENE, tile=similar_tile(SCALENE, 5), m=5, time_budget=0.5
            )
        )
        assert not out.complete
        assert out.nodes == 0 and out.stats["cuts"]["lengths"] == 0
        assert out.stats["truncated_by"] == "time"


class TestStats:
    def test_counts_expansions_and_cuts_per_rule(self):
        out = search_dissections(
            SearchSpec(region=SCALENE, tile=similar_tile(SCALENE, 4), m=4)
        )
        assert out.stats == {
            "expanded": out.nodes,
            "cuts": {"remainder": 3, "lengths": 2},
            "truncated_by": None,
        }

    def test_disabled_rule_never_cuts(self):
        out = search_dissections(
            SearchSpec(
                region=SCALENE,
                tile=similar_tile(SCALENE, 4),
                m=4,
                prune_remainder=False,
                prune_lengths=False,
            )
        )
        assert out.stats["cuts"]["remainder"] == 0
        assert out.stats["cuts"]["lengths"] == 0
        assert out.stats["expanded"] == out.nodes

    def test_vacuous_search_reports_zero(self):
        out = search_dissections(
            SearchSpec(
                region=SCALENE,
                tile=(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
                m=4,
            )
        )
        assert out.stats == {
            "expanded": 0,
            "cuts": {"remainder": 0, "lengths": 0},
            "truncated_by": None,
        }


class TestVacuousCases:
    def test_area_mismatch_is_reported_not_searched(self):
        out = search_dissections(
            SearchSpec(
                region=SCALENE,
                tile=(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
                m=4,
            )
        )
        assert out.complete
        assert out.dissections == []
        assert out.nodes == 0
        assert "does not equal the region area" in out.note

    def test_degenerate_tile_is_reported(self):
        out = search_dissections(
            SearchSpec(
                region=SCALENE,
                tile=(Fraction(1, 10), Fraction(1, 10), Fraction(1, 2)),
                m=4,
            )
        )
        assert out.complete
        assert out.dissections == []
        assert "triangle inequality" in out.note

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ValueError):
            search_dissections(
                SearchSpec(region=SCALENE, tile=similar_tile(SCALENE, 1), m=0)
            )

    def test_nonpositive_tile_side_rejected(self):
        with pytest.raises(ValueError):
            search_dissections(
                SearchSpec(region=SCALENE, tile=(-1, Fraction(1, 2), 1), m=4)
            )


class TestSearchForCount:
    def test_labels_similar_and_supplied_tiles(self):
        report = search_for_count(
            EQUILATERAL, 3, extra_tiles=[(INV_SQRT3, INV_SQRT3, 1)]
        )
        kinds = [r.kind for r in report.reports]
        assert kinds == ["similar", "supplied"]
        assert len(report.reports[0].outcome.dissections) == 0
        assert len(report.reports[1].outcome.dissections) == 1
        assert report.total_dissections == 1
        assert report.complete

    def test_mismatched_extra_tile_is_skipped_with_notice(self):
        report = search_for_count(
            SCALENE, 4, extra_tiles=[(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
        )
        supplied = report.reports[1]
        assert supplied.outcome.dissections == []
        assert "does not equal the region area" in supplied.outcome.note
        assert report.total_dissections == 1  # the similar tile still finds standard

    def test_duplicate_tile_reuses_the_outcome(self):
        report = search_for_count(
            RIGHT_ISOCELES, 4, extra_tiles=[similar_tile(RIGHT_ISOCELES, 4)]
        )
        assert report.reports[0].outcome is report.reports[1].outcome

    def test_duplicate_tile_is_counted_once(self):
        half = Fraction(1, 2)
        report = search_for_count(EQUILATERAL, 4, extra_tiles=[(half, half, half)] * 2)
        assert len(report.reports) == 3
        assert len(report.reports[0].outcome.dissections) == 1
        assert report.total_dissections == 1


class TestSymmetry:
    def test_symmetry_group_sizes(self):
        assert len(region_symmetries(SCALENE)) == 1
        assert len(region_symmetries(RIGHT_ISOCELES)) == 2
        assert len(region_symmetries(EQUILATERAL)) == 6

    def test_quotient_keeps_symmetric_dissection(self):
        out = search_dissections(
            SearchSpec(
                region=EQUILATERAL,
                tile=(INV_SQRT3, INV_SQRT3, 1),
                m=3,
                symmetry_quotient=True,
            )
        )
        assert len(out.dissections) == 1

    def test_quotient_never_grows_the_result_list(self):
        plain = search_dissections(
            SearchSpec(region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 4), m=4)
        )
        quot = search_dissections(
            SearchSpec(
                region=RIGHT_ISOCELES,
                tile=similar_tile(RIGHT_ISOCELES, 4),
                m=4,
                symmetry_quotient=True,
            )
        )
        assert len(quot.dissections) <= len(plain.dissections)
        for k in keys(quot.dissections):
            assert any(k == k2 for k2 in keys(plain.dissections))


def _min_key_quotient(region, results):
    """The symmetry quotient as it first was: each orbit keyed by its least
    ``_piece_multiset_key`` over the group, the seen keys scanned one by one."""
    group = region_symmetries(region)
    if len(group) <= 1:
        return results
    kept, seen_keys = [], []
    for d in results:
        orbit_key = min(
            (_piece_multiset_key([iso.apply_triangle(p) for p in d.pieces]) for iso in group)
        )
        if not any(orbit_key == k for k in seen_keys):
            seen_keys.append(orbit_key)
            kept.append(d)
    return kept


class TestQuotientAgainstMinKey:
    """The hashed orbit keys keep the same representatives, in the same
    order, as the sorted minimum keys did."""

    HALF_HEIGHT = sqrt_adjoin(Fraction(3, 16))

    def test_same_kept_dissections(self):
        # equilateral into 30-60-90 pieces: 3 results in 1 orbit at m = 2,
        # and 162 in 29 orbits at m = 8
        instances = [
            (EQUILATERAL, 2, (Fraction(1, 2), 2 * self.HALF_HEIGHT, 1)),
            (EQUILATERAL, 8, (Fraction(1, 4), self.HALF_HEIGHT, Fraction(1, 2))),
            (EQUILATERAL, 3, (INV_SQRT3, INV_SQRT3, 1)),
        ]
        instances += [(EQUILATERAL, m, None) for m in (3, 4, 9)]
        instances += [(RIGHT_ISOCELES, m, None) for m in (2, 4, 8, 16)]
        instances += [(THIRTY_SIXTY, m, None) for m in (3, 4)]
        sizes = []
        for region, m, tile in instances:
            tile = tile or similar_tile(region, m)
            results = search_dissections(SearchSpec(region=region, tile=tile, m=m)).dissections
            got = search_module._quotient_by_symmetry(region, results)
            want = _min_key_quotient(region, results)
            assert [id(d) for d in got] == [id(d) for d in want], m
            sizes.append((len(results), len(got)))
        # orbits of 6 and of 2 members were merged
        assert {(3, 1), (162, 29), (64, 40)} <= set(sizes)


def _per_piece_quotient(region, results):
    """The hashed-orbit quotient with every piece mapped on its own, so a
    vertex shared by k pieces is mapped k times per isometry."""
    group = region_symmetries(region)
    if len(group) <= 1:
        return results
    kept, seen = [], set()
    for d in results:
        orbit = frozenset(
            frozenset(_hashed_pieces([iso.apply_triangle(p) for p in d.pieces]).items())
            for iso in group
        )
        if orbit not in seen:
            seen.add(orbit)
            kept.append(d)
    return kept


class TestQuotientMapsEachVertexOnce:
    """Mapping each distinct vertex once per isometry keeps the results that
    mapping every piece on its own keeps, in the same order."""

    @pytest.mark.parametrize("region, m, tile", [
        (EQUILATERAL, 2, (Fraction(1, 2), sqrt_adjoin(Fraction(3, 4)), 1)),
        (RIGHT_ISOCELES, 16, None),
    ], ids=["equilateral-2", "right-isoceles-16"])
    def test_same_kept_dissections(self, region, m, tile, monkeypatch):
        tile = tile or similar_tile(region, m)
        results = search_dissections(SearchSpec(region=region, tile=tile, m=m)).dissections
        want = _per_piece_quotient(region, results)
        calls = []
        apply = Isometry.apply
        monkeypatch.setattr(Isometry, "apply", lambda iso, p: calls.append(p) or apply(iso, p))
        group = region_symmetries(region)
        finding_the_group = len(calls)
        calls.clear()
        got = search_module._quotient_by_symmetry(region, results)
        assert [id(d) for d in got] == [id(d) for d in want]
        assert len(got) < len(results)
        distinct = sum(len({id(v) for t in d.pieces for v in t.vertices}) for d in results)
        assert len(calls) == finding_the_group + distinct * len(group)


class TestDeterminism:
    def test_repeat_runs_agree_exactly(self):
        spec = lambda: SearchSpec(
            region=LEGS_ONE_TWO, tile=similar_tile(LEGS_ONE_TWO, 5), m=5
        )
        a = search_dissections(spec())
        b = search_dissections(spec())
        assert a.nodes == b.nodes
        assert keys(a.dissections) == keys(b.dissections)


class TestSharedPoints:
    @pytest.mark.parametrize("m", [9, 12])
    def test_each_point_is_one_object(self, m):
        """A search keeps one ``Pt`` per distinct point, so the pieces of a
        result share their vertices, and the verifier measures each shared
        edge once: fewer than 3m edges, where unshared pieces need all 3m."""
        out = search_dissections(
            SearchSpec(region=THIRTY_SIXTY, tile=similar_tile(THIRTY_SIXTY, m), m=m)
        )
        assert out.complete and out.dissections
        for d in out.dissections:
            points = [v for t in (d.region, *d.pieces) for v in t.vertices]
            assert len({id(v) for v in points}) == len({_point_key(v) for v in points})
            assert verify_dissection(d).stats["edges_measured"] < 3 * m


class TestRootCut:
    """A search that the length rule cuts at the root builds no corner data
    for its tile: no square root of Heron's value, no cosines, sines or
    angles.  A search that passes the root builds it once."""

    @pytest.fixture
    def corner_builds(self, monkeypatch):
        calls = []
        add_corners = search_module._TileData.add_corners

        def counting(tile, builder):
            calls.append(tile)
            return add_corners(tile, builder)

        monkeypatch.setattr(search_module._TileData, "add_corners", counting)
        return calls

    @pytest.mark.parametrize(
        "region, m",
        [
            (EQUILATERAL, 3),
            (SCALENE, 2),
            (SCALENE, 7),
            (cli_parse_region(TestGenericTriangleOracle.REGIONS[0])[0], 5),
        ],
    )
    def test_cut_at_the_root(self, corner_builds, region, m):
        out = search_dissections(SearchSpec(region=region, tile=similar_tile(region, m), m=m))
        assert out.complete and out.nodes == 0 and out.stats["cuts"]["lengths"] == 1
        assert corner_builds == []

    @pytest.mark.parametrize("prune_lengths", [True, False])
    def test_a_root_that_passes_builds_once(self, corner_builds, prune_lengths):
        out = search_dissections(
            SearchSpec(
                region=THIRTY_SIXTY,
                tile=similar_tile(THIRTY_SIXTY, 3),
                m=3,
                prune_lengths=prune_lengths,
            )
        )
        assert len(out.dissections) == 1 and len(corner_builds) == 1

    def test_without_the_length_rule_every_root_builds_them(self, corner_builds):
        out = search_dissections(
            SearchSpec(region=EQUILATERAL, tile=similar_tile(EQUILATERAL, 3), m=3, prune_lengths=False)
        )
        assert out.nodes == 2 and len(corner_builds) == 1


class TestEmitChecks:
    """``_Searcher._emit`` re-verifies every result; pieces that share their
    points must not let a bad covering through."""

    def _searcher(self):
        searcher = _Searcher(
            SearchSpec(region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 4), m=4)
        )
        searcher.results = []
        return searcher

    def test_a_true_dissection_is_kept(self):
        searcher = self._searcher()
        pieces = standard_from_region(searcher.region, 2).pieces
        searcher._emit(list(pieces))
        assert len(searcher.results) == 1

    def test_one_piece_short_is_refused(self):
        searcher = self._searcher()
        pieces = standard_from_region(searcher.region, 2).pieces
        with pytest.raises(RuntimeError, match="wrong piece count"):
            searcher._emit(list(pieces[:-1]))
        assert searcher.results == []

    def test_overlapping_pieces_are_refused(self):
        # four congruent pieces of the right total area, one of them twice
        searcher = self._searcher()
        pieces = standard_from_region(searcher.region, 2).pieces
        with pytest.raises(RuntimeError, match="piece_pair_overlap"):
            searcher._emit([pieces[0], pieces[1], pieces[2], pieces[2]])
        assert searcher.results == []


def _same_direction(d1, d2):
    return d1.cross(d2).is_zero() and d1.dot(d2).sign() > 0


def _segment_meets_triangle_interior(p, q, tri):
    """The search's placement test before it used geom's edge-line
    separation: True when the open segment (p, q) meets the open interior of
    the counterclockwise triangle ``tri``.  It clips the segment's parameter
    interval against the three inward half-planes, with each interval end
    kept as a (numerator, positive denominator) pair."""
    zero = TowerReal.from_rational(0)
    one = TowerReal.from_rational(1)
    lo_n, lo_d = zero, one
    hi_n, hi_d = one, one
    for i in range(3):
        e0, e1 = tri[i], tri[(i + 1) % 3]
        s0, s1 = orientation(e0, e1, p), orientation(e0, e1, q)
        if s0 <= 0 and s1 <= 0:
            return False
        if s0 > 0 and s1 > 0:
            continue
        ev = e1 - e0
        f0 = ev.cross(p - e0)
        f1 = ev.cross(q - e0)
        if s0 > 0:
            n, d = f0, f0 - f1
            if n * hi_d < hi_n * d:
                hi_n, hi_d = n, d
        else:
            n, d = -f0, f1 - f0
            if n * lo_d > lo_n * d:
                lo_n, lo_d = n, d
    return lo_n * hi_d < hi_n * lo_d


def _fits_reference(poly, tri):
    """``_Searcher._fits`` on the clipper above."""
    n = len(poly.verts)
    for idx in range(n):
        if _segment_meets_triangle_interior(poly.verts[idx], poly.verts[(idx + 1) % n], tri):
            return False
    centroid = (tri[0] + tri[1] + tri[2]) / 3
    return point_in_polygon(centroid, poly.verts) is Location.INSIDE


def _merge_cycle_reference(segs):
    """``search._merge_cycle`` before it asked ``point_on_segment``: edges
    run straight on when their direction vectors agree exactly."""
    n = len(segs)
    dirs = [w - u for (u, w, _) in segs]
    start = None
    for i in range(n):
        if not _same_direction(dirs[i - 1], dirs[i]):
            start = i
            break
    if start is None:
        raise RuntimeError("boundary cycle degenerated to a line")
    order = list(range(start, n)) + list(range(start))
    runs = []
    for idx in order:
        if runs and _same_direction(dirs[runs[-1][-1]], dirs[idx]):
            runs[-1].append(idx)
        else:
            runs.append([idx])
    verts = tuple(segs[r[0]][0] for r in runs)
    lens = []
    for r in runs:
        total = segs[r[0]][2]
        for idx in r[1:]:
            total = total + segs[idx][2]
        lens.append(total)
    if len(verts) < 3:
        raise RuntimeError("boundary cycle with fewer than three corners")
    if polygon_area(verts).sign() <= 0:
        raise RuntimeError("boundary cycle is not counterclockwise")
    return _Poly(verts, tuple(lens))


def _subtract_reference(poly, tri, tri_lens):
    """``search._subtract`` as it was before it matched pieces by point keys:
    a piece is covered when its midpoint lies on an edge of the other set,
    and a boundary walk scans every edge for a continuation."""
    n = len(poly.verts)
    poly_edges = [
        (poly.verts[i], poly.verts[(i + 1) % n], poly.lens[i]) for i in range(n)
    ]
    tri_edges = [
        (tri[0], tri[1], tri_lens[0]),
        (tri[1], tri[2], tri_lens[1]),
        (tri[2], tri[0], tri_lens[2]),
    ]
    kept = []
    for p, q, length in poly_edges:
        for u, w, piece_len in _split_edge(p, q, length, list(tri)):
            mid = (u + w) / 2
            if not any(point_on_segment(mid, t0, t1) for (t0, t1, _) in tri_edges):
                kept.append((u, w, piece_len))
    for p, q, length in tri_edges:
        for u, w, piece_len in _split_edge(p, q, length, list(poly.verts)):
            mid = (u + w) / 2
            if not any(point_on_segment(mid, e0, e1) for (e0, e1, _) in poly_edges):
                kept.append((w, u, piece_len))
    if not kept:
        return []
    edges = sorted(kept, key=_edge_sort_key)

    def successor(idx):
        p, q, _ = edges[idx]
        rev = p - q
        best = best_angle = None
        for jdx, (u, w, _) in enumerate(edges):
            if not (u == q):
                continue
            g = w - u
            if _same_direction(g, rev):
                raise RuntimeError("dangling boundary edge after subtraction")
            angle = AngleVec.between(g, rev)
            if best_angle is None or angle < best_angle:
                best, best_angle = jdx, angle
            elif angle == best_angle:
                raise RuntimeError("ambiguous boundary continuation")
        if best is None:
            raise RuntimeError("open boundary chain after subtraction")
        return best

    used = [False] * len(edges)
    cycles = []
    for start in range(len(edges)):
        if used[start]:
            continue
        orbit = [start]
        used[start] = True
        cur = successor(start)
        while cur != start:
            if used[cur]:
                raise RuntimeError("boundary walk revisited an edge")
            used[cur] = True
            orbit.append(cur)
            cur = successor(cur)
        cycles.append(orbit)
    return [_merge_cycle_reference([edges[i] for i in orbit]) for orbit in cycles]


def _polygons(polys):
    """Vertices and lengths in order, by their exact representations."""
    return [
        ([_point_key(v) for v in p.verts], [_value_key(x) for x in p.lens])
        for p in polys
    ]


# the benchmark's 20 search instances, then five deeper ones
SUBTRACT_CASES = (
    [(EQUILATERAL, m) for m in (2, 3, 4, 5, 9)]
    + [(RIGHT_ISOCELES, m) for m in (2, 3, 4, 8)]
    + [(THIRTY_SIXTY, m) for m in (2, 3, 4)]
    + [(SCALENE, m) for m in (2, 3, 4, 5)]
    + [(LEGS_ONE_TWO, m) for m in (2, 3, 4, 5)]
    + [(SCALENE, 9), (SCALENE, 10), (THIRTY_SIXTY, 6), (THIRTY_SIXTY, 7), (RIGHT_ISOCELES, 9)]
)



@pytest.fixture(scope="module")
def checked_calls():
    """Run the ``SUBTRACT_CASES`` searches once with ``_subtract``,
    ``_Searcher._fits`` and ``_merge_cycle`` each checked against its
    reference on every call; the number of calls of each."""
    calls = {"subtract": 0, "fits": 0, "merge": 0}
    subtract, fits, merge = search_module._subtract, _Searcher._fits, search_module._merge_cycle

    def checked_subtract(poly, tri, tri_lens):
        out = subtract(poly, tri, tri_lens)
        assert _polygons(out) == _polygons(_subtract_reference(poly, tri, tri_lens))
        calls["subtract"] += 1
        return out

    def checked_fits(self, poly, tri):
        out = fits(self, poly, tri)
        assert out == _fits_reference(poly, tri)
        calls["fits"] += 1
        return out

    def checked_merge(segs):
        out = merge(segs)
        assert _polygons([out]) == _polygons([_merge_cycle_reference(segs)])
        calls["merge"] += 1
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "_subtract", checked_subtract)
        patch.setattr(_Searcher, "_fits", checked_fits)
        patch.setattr(search_module, "_merge_cycle", checked_merge)
        for region, m in SUBTRACT_CASES:
            search_dissections(
                SearchSpec(
                    region=region, tile=similar_tile(region, m), m=m, prune_lengths=False
                )
            )
    return calls


class TestSubtractAgainstReference:
    def test_every_subtraction_of_the_searches(self, checked_calls):
        assert checked_calls["subtract"] == 656

    def test_every_placement_of_the_searches(self, checked_calls):
        assert checked_calls["fits"] == 1811

    def test_every_merge_of_the_searches(self, checked_calls):
        assert checked_calls["merge"] == 628

    def test_pinch_vertex_inside_a_straight_edge(self):
        # The frontier touches itself at (2, 0): a wedge below meets the
        # straight edge from (0, 0) to (4, 0) there, a vertex of one pass and
        # the interior of the other.  The triangle's base covers that point.
        r2 = sqrt_adjoin(2)
        coords = [(0, -2), (5, -2), (5, 2), (0, 2), (0, 0), (4, 0), (4, -1), (3, -1),
                  (2, 0), (1, -1), (0, -1)]
        lens = [5, 4, 5, 2, 4, 1, 1, r2, r2, 1, 1]
        poly = _Poly(tuple(Pt(x, y) for x, y in coords), tuple(exactify(ln) for ln in lens))
        tri = (Pt(1, 0), Pt(3, 0), Pt(2, 1))
        tri_lens = (exactify(2), r2, r2)
        want = _subtract_reference(poly, tri, tri_lens)
        assert len(want) == 1 and len(want[0].verts) == 14
        assert _polygons(search_module._subtract(poly, tri, tri_lens)) == _polygons(want)


# (name, segment, whether the open segment meets the open interior of
# PLACEMENT_TRIANGLE); "outside a corner" is separated only by its own line
PLACEMENT_TRIANGLE = ((0, 0), (4, 0), (0, 4))
PLACEMENT_CASES = (
    ("along an edge", ((1, 0), (3, 0)), False),
    ("the whole edge", ((0, 0), (4, 0)), False),
    ("past an edge's end", ((2, 0), (6, 0)), False),
    ("through a vertex only", ((3, -1), (5, 1)), False),
    ("crossing a corner", ((3, -1), (3, 2)), True),
    ("endpoint on an edge, going out", ((2, 0), (2, -2)), False),
    ("endpoint on an edge, going in", ((2, 0), (1, 1)), True),
    ("fully inside", ((1, 1), (2, 1)), True),
    ("outside a corner", ((3, -1), (6, 1)), False),
    ("fully outside", ((5, 5), (6, 7)), False),
)


class TestPlacementAgainstReference:
    @pytest.mark.parametrize("name, seg, meets", PLACEMENT_CASES, ids=[c[0] for c in PLACEMENT_CASES])
    def test_segment_against_triangle(self, name, seg, meets):
        """``_fits`` on a frontier of the one segment, each way round: it
        fits exactly when the segment misses the open interior, for every
        rotation of the counterclockwise triangle."""
        corners = [Pt(x, y) for x, y in PLACEMENT_TRIANGLE]
        p, q = (Pt(x, y) for x, y in seg)
        for r in range(3):
            tri = tuple(corners[r:] + corners[:r])
            for a, b in ((p, q), (q, p)):
                assert _segment_meets_triangle_interior(a, b, tri) == meets
                assert _Searcher._fits(None, _Poly((a, b), ()), tri) == (not meets)
