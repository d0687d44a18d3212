import json
import random
from fractions import Fraction

import pytest

import verifier_reference as reference
from equicut import dissect
from equicut.dissect import (
    Dissection,
    _piece_multiset_key,
    _point_key,
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
from equicut.exact import FieldBuilder, TowerReal, sqrt_adjoin
from equicut.geom import Pt, Triangle, congruent
from equicut.literals import parse_number
from equicut.search import SearchSpec, search_dissections, similar_tile

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

    def test_no_pieces_is_not_standard(self):
        d = standard_dissection(*SCALENE, 1)
        assert not is_standard(Dissection(d.region, ()))


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


# The JSON reader shares one Pt among every occurrence of a point, and the
# verifier locates each distinct vertex once.  The reference reader below
# builds a fresh Pt for every occurrence, as the reader did before.


def reference_from_json(text):
    data = json.loads(text)
    builder = FieldBuilder()

    def vertex(pair):
        return Pt(builder.embed(parse_number(pair[0])), builder.embed(parse_number(pair[1])))

    def triangle(verts):
        return Triangle(*(vertex(v) for v in verts))

    return Dissection(triangle(data["region"]), tuple(triangle(p) for p in data["pieces"]))


def outcome(result):
    return (
        result.ok,
        [(f.kind, f.pieces, f.detail) for f in result.failures],
        result.pairs_tested,
    )


def shrunk_region(text):
    """The file with piece 0 as its region, so most pieces stick out of it."""
    data = json.loads(text)
    data["region"] = data["pieces"][0]
    return json.dumps(data)


class TestSharedVertices:
    @pytest.mark.parametrize("name", NAMED)
    def test_standard_files_verify_as_with_fresh_points(self, name):
        for n in (8, 12, 20):
            text = dissection_to_json_str(standard_dissection(*NAMED[name], n))
            shared = dissection_from_json(text)
            points = {id(v) for p in shared.pieces for v in p.vertices}
            assert len(points) == (n + 1) * (n + 2) // 2
            assert {id(v) for v in shared.region.vertices} <= points
            assert outcome(verify_dissection(shared)) == outcome(
                verify_dissection(reference_from_json(text))
            )

    @pytest.mark.parametrize("name", NAMED)
    @pytest.mark.parametrize("kind", ["moved", "deleted", "shrunk", "grown", "region"])
    def test_corrupted_files_verify_as_with_fresh_points(self, name, kind):
        text = dissection_to_json_str(standard_dissection(*NAMED[name], 8))
        if kind == "region":
            text = shrunk_region(text)
            pair = [dissection_from_json(text), reference_from_json(text)]
        else:
            pair = [corrupted(parse(text), kind) for parse in (dissection_from_json, reference_from_json)]
        shared, fresh = (outcome(verify_dissection(d)) for d in pair)
        assert shared == fresh
        if kind == "region":
            outside = [f for f in shared[1] if f[0] is FailureKind.PIECE_OUTSIDE_REGION]
            assert len(outside) == 63  # all but piece 0

    @pytest.mark.parametrize("name", NAMED)
    def test_standard_lattice_builds_each_point_once(self, name):
        n = 6
        d = standard_dissection(*NAMED[name], n)
        va, vb, vc = d.region.vertices
        u, v = (vb - va) / n, (vc - va) / n
        want = []  # the cells as the lattice formula gives them
        for j in range(n):
            for i in range(n - j):
                p = va + u * i + v * j
                want.append((p, p + u, p + v))
                if i + j <= n - 2:
                    want.append((p + u, p + u + v, p + v))
        assert [[_point_key(x) for x in p.vertices] for p in d.pieces] == [
            [_point_key(x) for x in cell] for cell in want
        ]
        assert len({id(x) for p in d.pieces for x in p.vertices}) == (n + 1) * (n + 2) // 2

    def test_vertex_locations_do_not_outlive_a_verification(self):
        d = standard_file(SCALENE, 4)
        assert verify_dissection(d).ok
        result = verify_dissection(Dissection(d.pieces[0], d.pieces))
        assert len(result.failures) == 15 + 1  # all pieces but 0, then the area

    def test_no_point_outlives_a_parse(self):
        text = dissection_to_json_str(standard_dissection(*THIRTY_SIXTY, 3))
        a, b = dissection_from_json(text), dissection_from_json(text)
        ids = lambda d: {id(c) for p in (d.region, *d.pieces) for v in p.vertices for c in (v, v.x, v.y)}
        assert not ids(a) & ids(b)

    def test_every_coordinate_lies_in_one_tower(self):
        # the second file's sqrt(3) must not come from the first file's tower
        def read(apex):
            region = [["0", "0"], ["1", "0"], apex]
            return dissection_from_json(
                {"format": "equicut-dissection", "version": 1, "region": region, "pieces": [region]}
            )

        read(["sqrt(2)", "sqrt(3)"])
        d = read(["sqrt(5)", "sqrt(3)"])
        ctxs = {c.ctx for p in (d.region, *d.pieces) for v in p.vertices for c in (v.x, v.y)}
        top = max(ctxs, key=lambda ctx: ctx.depth)
        assert top.depth == 2
        assert all(top.prefix(ctx.depth) is ctx for ctx in ctxs)


def is_standard_reference(d):
    """``is_standard`` by the exact sorted comparison alone."""
    n = round(len(d.pieces) ** 0.5)
    if n * n != len(d.pieces):
        return False
    return _piece_multiset_key(d.pieces) == _piece_multiset_key(standard_from_region(d.region, n).pieces)


def reembedded(d, builder):
    """``d`` with every coordinate embedded into ``builder``'s tower."""
    move = lambda v: Pt(builder.embed(v.x), builder.embed(v.y))
    return Dissection(d.region, tuple(Triangle(*map(move, p.vertices)) for p in d.pieces))


class TestHashedIsStandard:
    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def counted(pieces):
            calls.append(len(pieces))
            return _piece_multiset_key(pieces)

        monkeypatch.setattr(dissect, "_piece_multiset_key", counted)
        return calls

    @pytest.mark.parametrize("name", NAMED)
    def test_standard_files_shuffled_and_rotated(self, name, fallbacks):
        rng = random.Random(name)
        d = standard_file(NAMED[name], 5)
        pieces = list(d.pieces)
        rng.shuffle(pieces)
        turned = [Triangle(*p.vertices[k:], *p.vertices[:k]) for p, k in zip(pieces, [0, 1, 2] * 9)]
        for candidate in (d, Dissection(d.region, pieces), Dissection(d.region, turned)):
            assert is_standard(candidate) and is_standard_reference(candidate)
        assert fallbacks == []

    @pytest.mark.parametrize("region", [RIGHT_ISOCELES, THIRTY_SIXTY], ids=["right-isoceles", "30-60-90"])
    def test_search_results_at_m4(self, region):
        triangle = canonical_triangle(*region)
        out = search_dissections(SearchSpec(region=triangle, tile=similar_tile(triangle, 4), m=4))
        answers = [(is_standard(d), is_standard_reference(d)) for d in out.dissections]
        assert all(a == b for a, b in answers)
        assert sorted(a for a, _ in answers) == [False] * (len(answers) - 1) + [True]

    def test_unrelated_towers_take_the_fallback(self, fallbacks):
        # region over the tower (2, 3), pieces re-embedded over (3, 2)
        builder = FieldBuilder()
        r2, r3 = builder.sqrt(2), builder.sqrt(3)
        d = standard_from_region(Triangle(pt(0, 0), pt(1, 0), Pt(r2 + r3, r3)), 3)
        builder = FieldBuilder()
        builder.sqrt(3)
        builder.sqrt(2)
        swapped = reembedded(d, builder)
        apex, moved = d.pieces[-1].vc.x, swapped.pieces[-1].vc.x
        assert apex.depth == moved.depth == 2 and apex.ctx is not moved.ctx
        assert is_standard(swapped) and is_standard_reference(swapped)
        assert fallbacks, "the Counters of unrelated towers matched"

    def test_equal_vectors_over_different_towers_differ(self):
        # sqrt(3) replaced by sqrt(5) keeps every coefficient vector
        d = standard_dissection(*EQUILATERAL, 2)
        root5 = sqrt_adjoin(5)
        move = lambda x: x if x.depth == 0 else x.raw[0] + x.raw[1] * root5
        fake = Dissection(d.region, tuple(
            Triangle(*(Pt(move(v.x), move(v.y)) for v in p.vertices)) for p in d.pieces
        ))
        assert not is_standard(fake) and not is_standard_reference(fake)


# The verifier decides disjointness by orientation signs along edge lines,
# measures each shared edge once and, when all pieces are congruent, takes
# the area sum as m * |area of piece 0|.  verifier_reference keeps the
# separating-axis test, the sorted side comparison and the summed areas.


def mirrored_halves(*, clockwise=(), drop=()):
    """An isoceles region cut along its axis into two mirror-image scalene
    right triangles (sides 1, 2, sqrt(5)), each cut again into four by the
    lattice: eight pieces, four of each handedness.  Pieces listed in
    ``clockwise`` are reversed and those in ``drop`` left out."""
    region = Triangle(pt(-1, 0), pt(1, 0), pt(0, 2))
    left = standard_from_region(Triangle(pt(-1, 0), pt(0, 0), pt(0, 2)), 2).pieces
    right = standard_from_region(Triangle(pt(1, 0), pt(0, 0), pt(0, 2)), 2).pieces
    pieces = [Triangle(p.vc, p.vb, p.va) if i in clockwise else p
              for i, p in enumerate(left + right)]
    return Dissection(region, tuple(p for i, p in enumerate(pieces) if i not in drop))


def mixed_towers(drop=None):
    """A standard 9-piece dissection over the tower (2, 3) whose odd pieces
    are re-embedded over (3, 2), so the pieces' areas lie in two towers."""
    builder = FieldBuilder()
    r2, r3 = builder.sqrt(2), builder.sqrt(3)
    d = standard_from_region(Triangle(pt(0, 0), pt(1, 0), Pt(r2 + r3, r3)), 3)
    builder = FieldBuilder()
    builder.sqrt(3)
    builder.sqrt(2)
    swapped = reembedded(d, builder).pieces
    pieces = [q if i % 2 else p for i, (p, q) in enumerate(zip(d.pieces, swapped))]
    return Dissection(d.region, tuple(p for i, p in enumerate(pieces) if i != drop))


NESTED_REGION = (parse_number("1/4*sqrt(5 + 2*sqrt(6))"), 1)


class TestVerifierDifferential:
    @pytest.mark.parametrize("name", NAMED)
    @pytest.mark.parametrize("kind", ["moved", "deleted", "shrunk", "grown"])
    def test_corrupted_files_match_the_reference(self, name, kind):
        d = corrupted(standard_file(NAMED[name], 8), kind)
        assert outcome(verify_dissection(d)) == outcome(reference.verify_dissection(d))

    @pytest.mark.parametrize("name", NAMED)
    @pytest.mark.parametrize("n", [8, 12])
    def test_standard_files_match_the_reference(self, name, n):
        d = standard_file(NAMED[name], n)
        assert outcome(verify_dissection(d)) == outcome(reference.verify_dissection(d))

    @pytest.mark.parametrize("kind", ["standard", "moved", "deleted", "shrunk", "grown"])
    def test_nested_tower_matches_the_reference(self, kind):
        d = standard_file(NESTED_REGION, 5)
        if kind != "standard":
            d = corrupted(d, kind)
        assert outcome(verify_dissection(d)) == outcome(reference.verify_dissection(d))

    @pytest.mark.parametrize("drop", [None, 0, 4])
    def test_pieces_over_two_towers_match_the_reference(self, drop):
        d = mixed_towers(drop=drop)
        got = verify_dissection(d)
        assert outcome(got) == outcome(reference.verify_dissection(d))
        assert got.ok == (drop is None)

    def test_fresh_points_and_windmill_match_the_reference(self):
        text = dissection_to_json_str(standard_dissection(*SCALENE, 6))
        for d in (reference_from_json(text), windmill_dissection()):
            assert outcome(verify_dissection(d)) == outcome(reference.verify_dissection(d))


class TestVerifierAreaPath:
    @pytest.mark.parametrize("clockwise", [(), (0,), (1, 2, 5, 6), tuple(range(8))])
    def test_congruent_pieces_of_both_handedness(self, clockwise):
        d = mirrored_halves(clockwise=clockwise)
        result = verify_dissection(d)
        assert result.ok and result.stats["area"] == "piece0"
        assert outcome(result) == outcome(reference.verify_dissection(d))
        areas = [abs(p.signed_area().as_fraction()) for p in d.pieces]
        assert areas == [F(1, 4)] * 8
        assert sum(areas) == 8 * areas[0] == d.region.signed_area().as_fraction()

    def test_congruent_pieces_that_miss_the_area(self):
        d = mirrored_halves(clockwise=(0, 3), drop=(2,))
        result = verify_dissection(d)
        assert result.stats["area"] == "piece0"
        assert outcome(result) == outcome(reference.verify_dissection(d))
        assert [f.detail for f in result.failures] == [
            "piece areas sum to 7/4 but the region area is 2"
        ]

    def test_degenerate_piece_0_and_its_copies(self):
        flat = lambda x: Triangle(pt(x, F(1, 8)), pt(x + F(1, 8), F(1, 8)), pt(x + F(1, 4), F(1, 8)))
        d = Dissection(canonical_triangle(*SCALENE), tuple(flat(F(k, 8)) for k in range(1, 4)))
        result = verify_dissection(d)
        assert result.stats == {
            "pairs_tested": 0, "pairs_pruned": 0, "edges_measured": 9, "area": "piece0",
        }
        assert [f.kind for f in result.failures] == [AREA]
        assert outcome(result) == outcome(reference.verify_dissection(d))

    def test_mix_of_congruent_and_other_pieces(self):
        d = mirrored_halves(clockwise=(4,))
        a, b, c = d.pieces[5].vertices
        half = Triangle(a, b, Pt((a.x + c.x) / 2, (a.y + c.y) / 2))
        d = Dissection(d.region, d.pieces[:5] + (half,) + d.pieces[6:])
        result = verify_dissection(d)
        assert result.stats["area"] == "summed"
        assert outcome(result) == outcome(reference.verify_dissection(d))
        assert result.failures[-1].detail == "piece areas sum to 15/8 but the region area is 2"


class TestVerifierStats:
    @pytest.mark.parametrize("name", NAMED)
    def test_standard_files(self, name):
        for n, pairs in zip((8, 12), PAIRS_TESTED[name]):
            m = n * n
            assert verify_dissection(standard_file(NAMED[name], n)).stats == {
                "pairs_tested": pairs,
                "pairs_pruned": m * (m - 1) // 2 - pairs,
                "edges_measured": 3 * n * (n + 1) // 2,
                "area": "piece0",
            }

    @pytest.mark.parametrize("kind", ["moved", "deleted", "shrunk", "grown"])
    def test_corrupted_files(self, kind):
        d = corrupted(standard_file(SCALENE, 8), kind)
        result = verify_dissection(d)
        m = d.piece_count
        assert result.stats["pairs_tested"] == result.pairs_tested == CORRUPTED["scalene"][kind][0]
        assert result.stats["pairs_pruned"] == m * (m - 1) // 2 - result.pairs_tested
        assert result.stats["area"] == ("piece0" if kind == "deleted" else "summed")

    def test_each_edge_is_measured_once_per_pair_of_point_objects(self):
        text = dissection_to_json_str(standard_dissection(*SCALENE, 4))
        shared, fresh = dissection_from_json(text), reference_from_json(text)
        assert verify_dissection(shared).stats["edges_measured"] == 3 * 4 * 5 // 2
        assert verify_dissection(fresh).stats["edges_measured"] == 3 * 16
