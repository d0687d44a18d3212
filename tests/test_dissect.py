import json
from fractions import Fraction

import pytest

from equicut.dissect import (
    Dissection,
    FailureKind,
    canonical_triangle,
    dissection_from_json,
    dissection_to_json,
    dissection_to_json_str,
    is_standard,
    standard_dissection,
    standard_from_region,
    verify_dissection,
)
from equicut.exact import TowerReal, sqrt_adjoin
from equicut.geom import Pt, Triangle, congruent

F = Fraction


def pt(x, y):
    return Pt(TowerReal.from_rational(F(x)), TowerReal.from_rational(F(y)))


RIGHT_ISOCELES = (sqrt_adjoin(2) / 2, sqrt_adjoin(2) / 2)
EQUILATERAL = (1, 1)
THIRTY_SIXTY = (sqrt_adjoin(3) / 2, F(1, 2))
SCALENE = (F(7, 8), F(3, 4))
LEGS_ONE_TWO = (2 * sqrt_adjoin(5) / 5, sqrt_adjoin(5) / 5)


class TestCanonicalPlacement:
    def test_right_isoceles_apex(self):
        tri = canonical_triangle(*RIGHT_ISOCELES)
        assert tri.vc == pt(F(1, 2), F(1, 2))

    def test_equilateral_apex(self):
        tri = canonical_triangle(*EQUILATERAL)
        assert tri.vc.x == TowerReal.from_rational(F(1, 2))
        assert tri.vc.y == sqrt_adjoin(3) / 2

    def test_thirty_sixty_apex(self):
        tri = canonical_triangle(*THIRTY_SIXTY)
        assert tri.vc.x == TowerReal.from_rational(F(1, 4))
        assert tri.vc.y == sqrt_adjoin(3) / 4

    def test_scalene_apex(self):
        tri = canonical_triangle(*SCALENE)
        assert tri.vc.x == TowerReal.from_rational(F(51, 128))
        assert tri.vc.y == sqrt_adjoin(15) * F(21, 128)

    def test_legs_one_two_apex_is_rational(self):
        tri = canonical_triangle(*LEGS_ONE_TWO)
        assert tri.vc == pt(F(1, 5), F(2, 5))
        # right angle at the apex
        assert (tri.va - tri.vc).dot(tri.vb - tri.vc).is_zero()

    def test_side_lengths_recovered(self):
        a, b = SCALENE
        tri = canonical_triangle(a, b)
        s_a, s_b, s_c = tri.sides_squared()
        assert s_a == TowerReal.from_rational(F(49, 64))
        assert s_b == TowerReal.from_rational(F(9, 16))
        assert s_c == TowerReal.from_rational(1)

    def test_invalid_sides_rejected(self):
        with pytest.raises(ValueError):
            canonical_triangle(F(1, 2), F(1, 2))  # degenerate
        with pytest.raises(ValueError):
            canonical_triangle(3, 1)  # violates the triangle inequality


class TestStandardDissection:
    def test_n1_is_region_itself(self):
        d = standard_dissection(*RIGHT_ISOCELES, 1)
        assert d.piece_count == 1
        assert d.pieces[0] == d.region

    def test_n2_right_isoceles_pieces(self):
        d = standard_dissection(*RIGHT_ISOCELES, 2)
        expected = [
            Triangle(pt(0, 0), pt(F(1, 2), 0), pt(F(1, 4), F(1, 4))),
            Triangle(pt(F(1, 2), 0), pt(F(3, 4), F(1, 4)), pt(F(1, 4), F(1, 4))),
            Triangle(pt(F(1, 2), 0), pt(1, 0), pt(F(3, 4), F(1, 4))),
            Triangle(pt(F(1, 4), F(1, 4)), pt(F(3, 4), F(1, 4)), pt(F(1, 2), F(1, 2))),
        ]
        assert list(d.pieces) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_piece_count(self, n):
        d = standard_dissection(*SCALENE, n)
        assert d.piece_count == n * n

    def test_all_pieces_congruent_and_ccw(self, subtests=None):
        d = standard_dissection(*THIRTY_SIXTY, 4)
        for piece in d.pieces[1:]:
            assert congruent(d.pieces[0], piece)
        for piece in d.pieces:
            assert piece.signed_area().sign() > 0

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            standard_dissection(*SCALENE, 0)


def windmill_dissection():
    """Right isoceles region cut by its altitude, then each half cut by its
    own altitude: four congruent pieces, not the standard lattice."""
    region = canonical_triangle(*RIGHT_ISOCELES)
    a, m, c = pt(0, 0), pt(F(1, 2), 0), pt(F(1, 2), F(1, 2))
    b = pt(1, 0)
    f1, f2 = pt(F(1, 4), F(1, 4)), pt(F(3, 4), F(1, 4))
    pieces = (
        Triangle(a, m, f1),
        Triangle(f1, m, c),
        Triangle(m, b, f2),
        Triangle(m, f2, c),
    )
    return Dissection(region=region, pieces=pieces)


class TestVerifier:
    @pytest.mark.parametrize(
        "sides", [RIGHT_ISOCELES, EQUILATERAL, THIRTY_SIXTY, SCALENE, LEGS_ONE_TWO]
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_verifies(self, sides, n):
        result = verify_dissection(standard_dissection(*sides, n))
        assert result.ok
        assert result.failures == []

    def test_windmill_verifies_but_not_standard(self):
        d = windmill_dissection()
        assert verify_dissection(d).ok
        assert not is_standard(d)

    def test_overlap_detected(self):
        d = standard_dissection(*RIGHT_ISOCELES, 2)
        corrupt = Dissection(d.region, (d.pieces[0],) + d.pieces[:1] + d.pieces[2:])
        result = verify_dissection(corrupt)
        assert not result.ok
        assert result.kinds() == {FailureKind.PIECE_PAIR_OVERLAP}
        assert any(f.pieces == (0, 1) for f in result.failures)

    def test_outside_detected(self):
        d = standard_dissection(*RIGHT_ISOCELES, 2)
        shift = Pt(TowerReal.from_rational(1), TowerReal.from_rational(0))
        moved = Triangle(*(v + shift for v in d.pieces[2].vertices))
        corrupt = Dissection(d.region, d.pieces[:2] + (moved,) + d.pieces[3:])
        result = verify_dissection(corrupt)
        assert not result.ok
        assert result.kinds() == {FailureKind.PIECE_OUTSIDE_REGION}

    def test_missing_piece_is_area_mismatch(self):
        d = standard_dissection(*RIGHT_ISOCELES, 2)
        corrupt = Dissection(d.region, d.pieces[:3])
        result = verify_dissection(corrupt)
        assert not result.ok
        assert result.kinds() == {FailureKind.AREA_MISMATCH}

    def test_wrong_shape_detected(self):
        d = standard_dissection(*RIGHT_ISOCELES, 2)
        corrupt = Dissection(d.region, d.pieces[:3] + (d.region,))
        result = verify_dissection(corrupt)
        assert not result.ok
        assert FailureKind.CONGRUENCE_MISMATCH in result.kinds()

    def test_perturbed_vertex_detected(self):
        d = standard_dissection(*SCALENE, 2)
        v = d.pieces[1].vertices
        nudged = Triangle(
            v[0] + Pt(TowerReal.from_rational(F(1, 1000)), TowerReal.from_rational(0)),
            v[1],
            v[2],
        )
        corrupt = Dissection(d.region, (d.pieces[0], nudged) + d.pieces[2:])
        result = verify_dissection(corrupt)
        assert not result.ok
        assert FailureKind.CONGRUENCE_MISMATCH in result.kinds()

    def test_degenerate_piece_no_crash(self):
        d = standard_dissection(*RIGHT_ISOCELES, 2)
        flat = Triangle(pt(0, 0), pt(F(1, 2), 0), pt(1, 0))
        corrupt = Dissection(d.region, d.pieces[:3] + (flat,))
        result = verify_dissection(corrupt)
        assert not result.ok
        assert FailureKind.CONGRUENCE_MISMATCH in result.kinds()

    def test_bbox_prefilter_skips_most_pairs(self):
        d = standard_dissection(*SCALENE, 4)
        result = verify_dissection(d)
        assert result.ok
        total_pairs = 16 * 15 // 2
        assert result.pairs_tested < total_pairs // 2

    def test_empty_rejected(self):
        d = standard_dissection(*SCALENE, 1)
        with pytest.raises(ValueError):
            verify_dissection(Dissection(d.region, ()))


class TestIsStandard:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_standard_is_standard(self, n):
        assert is_standard(standard_dissection(*EQUILATERAL, n))

    def test_piece_order_and_orientation_ignored(self):
        d = standard_dissection(*SCALENE, 2)
        shuffled = tuple(
            Triangle(p.vc, p.vb, p.va) for p in reversed(d.pieces)
        )
        assert is_standard(Dissection(d.region, shuffled))

    def test_region_relabelling_ignored(self):
        d = standard_dissection(*THIRTY_SIXTY, 3)
        relabeled = Triangle(d.region.vb, d.region.vc, d.region.va)
        assert is_standard(Dissection(relabeled, d.pieces))

    def test_non_square_count(self):
        d = standard_dissection(*SCALENE, 2)
        assert not is_standard(Dissection(d.region, d.pieces[:3]))

    def test_windmill_not_standard(self):
        assert not is_standard(windmill_dissection())


class TestJson:
    def test_golden_literals(self):
        d = standard_dissection(*SCALENE, 1)
        obj = dissection_to_json(d)
        assert obj["format"] == "equicut-dissection"
        assert obj["version"] == 1
        assert obj["region"] == [
            ["0", "0"],
            ["1", "0"],
            ["51/128", "21/128*sqrt(15)"],
        ]
        assert obj["pieces"] == [obj["region"]]

    @pytest.mark.parametrize(
        "sides", [RIGHT_ISOCELES, EQUILATERAL, THIRTY_SIXTY, SCALENE]
    )
    def test_round_trip(self, sides):
        d = standard_dissection(*sides, 3)
        text = dissection_to_json_str(d)
        loaded = dissection_from_json(text)
        assert loaded.region == d.region
        assert list(loaded.pieces) == list(d.pieces)
        assert is_standard(loaded)
        assert verify_dissection(loaded).ok

    def test_round_trip_is_byte_stable(self):
        d = windmill_dissection()
        text = dissection_to_json_str(d)
        assert dissection_to_json_str(dissection_from_json(text)) == text

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(format="other"),
            lambda o: o.update(version=99),
            lambda o: o.pop("region"),
            lambda o: o.update(region=[["0", "0"], ["1", "0"]]),
            lambda o: o.update(pieces="nope"),
            lambda o: o["pieces"][0][0].pop(),
        ],
    )
    def test_malformed_rejected(self, mutate):
        obj = dissection_to_json(standard_dissection(*SCALENE, 1))
        mutate(obj)
        with pytest.raises((ValueError, KeyError)):
            dissection_from_json(json.dumps(obj))


# Verifier outputs pinned at the all-pairs bounding-box loop, which the
# sort-and-sweep replaced: the same pairs reach the exact test, and failures
# come in the same order.

NAMED = {
    "equilateral": EQUILATERAL,
    "right-isoceles": RIGHT_ISOCELES,
    "30-60-90": THIRTY_SIXTY,
    "scalene": SCALENE,
    "legs-1:2": LEGS_ONE_TWO,
}

PAIRS_TESTED = {  # standard files at n = 8, 12, 20
    "equilateral": (203, 495, 1463),
    "right-isoceles": (56, 132, 380),
    "30-60-90": (224, 550, 1634),
    "scalene": (224, 550, 1634),
    "legs-1:2": (56, 132, 380),
}

OVERLAP, MISMATCH, AREA = (
    FailureKind.PIECE_PAIR_OVERLAP,
    FailureKind.CONGRUENCE_MISMATCH,
    FailureKind.AREA_MISMATCH,
)
# piece 20 doubled about its centroid overlaps its neighbours on every side,
# pairs that the sweep meets out of index order
GROWN = [(MISMATCH, (0, 20))] + [(OVERLAP, (i, 20)) for i in (5, 6, 7, 18, 19)] + [
    (OVERLAP, (20, j)) for j in (21, 22, 30, 31, 32, 33, 34)
] + [(AREA, None)]
# (pairs_tested, failures) of corrupted n = 8 files; None stands for all pieces
CORRUPTED = {
    "equilateral": {
        "grown": (209, GROWN),
        "moved": (203, [(MISMATCH, (0, 20)), (OVERLAP, (5, 20)), (OVERLAP, (19, 20)), (AREA, None)]),
        "deleted": (198, [(AREA, None)]),
        "shrunk": (200, [(MISMATCH, (0, 10)), (AREA, None)]),
    },
    "right-isoceles": {
        "grown": (68, GROWN),
        "moved": (59, [(MISMATCH, (0, 20)), (OVERLAP, (5, 20)), (OVERLAP, (19, 20)), (AREA, None)]),
        "deleted": (54, [(AREA, None)]),
        "shrunk": (56, [(MISMATCH, (0, 10)), (AREA, None)]),
    },
    "30-60-90": {
        "grown": (232, GROWN),
        "moved": (224, [(MISMATCH, (0, 20)), (OVERLAP, (5, 20)), (OVERLAP, (19, 20)), (AREA, None)]),
        "deleted": (219, [(AREA, None)]),
        "shrunk": (220, [(MISMATCH, (0, 10)), (AREA, None)]),
    },
    "scalene": {
        "grown": (232, GROWN),
        "moved": (224, [(MISMATCH, (0, 20)), (OVERLAP, (5, 20)), (OVERLAP, (19, 20)), (AREA, None)]),
        "deleted": (219, [(AREA, None)]),
        "shrunk": (220, [(MISMATCH, (0, 10)), (AREA, None)]),
    },
    "legs-1:2": {
        "grown": (71, GROWN),
        "moved": (60, [(MISMATCH, (0, 20)), (OVERLAP, (5, 20)), (OVERLAP, (19, 20)), (AREA, None)]),
        "deleted": (54, [(AREA, None)]),
        "shrunk": (55, [(MISMATCH, (0, 10)), (AREA, None)]),
    },
}


def standard_file(sides, n):
    """The standard dissection as ``equicut verify`` reads it from a file."""
    return dissection_from_json(dissection_to_json_str(standard_dissection(*sides, n)))


def corrupted(d, kind):
    pieces = list(d.pieces)
    if kind == "moved":  # a vertex of piece 20 pushed into its neighbours
        a, b, c = pieces[20].vertices
        pieces[20] = Triangle(Pt(a.x - F(1, 30), a.y - F(1, 30)), b, c)
    elif kind == "deleted":
        del pieces[7]
    else:  # piece 10 halved or piece 20 doubled about its centroid
        idx, f = (10, F(1, 2)) if kind == "shrunk" else (20, 2)
        verts = pieces[idx].vertices
        cx = (verts[0].x + verts[1].x + verts[2].x) / 3
        cy = (verts[0].y + verts[1].y + verts[2].y) / 3
        pieces[idx] = Triangle(*(Pt(cx + (v.x - cx) * f, cy + (v.y - cy) * f) for v in verts))
    return Dissection(d.region, pieces)


class TestVerifierPins:
    @pytest.mark.parametrize("name", NAMED)
    def test_pairs_tested_on_standard_files(self, name):
        for n, want in zip((8, 12, 20), PAIRS_TESTED[name]):
            result = verify_dissection(standard_file(NAMED[name], n))
            assert result.ok
            assert result.pairs_tested == want, n

    @pytest.mark.parametrize("name", NAMED)
    @pytest.mark.parametrize("kind", ["moved", "deleted", "shrunk", "grown"])
    def test_failures_of_corrupted_files(self, name, kind):
        d = corrupted(standard_file(NAMED[name], 8), kind)
        result = verify_dissection(d)
        pairs, failures = CORRUPTED[name][kind]
        everything = tuple(range(d.piece_count))
        assert result.pairs_tested == pairs
        assert [(f.kind, f.pieces) for f in result.failures] == [
            (k, everything if p is None else p) for k, p in failures
        ]
