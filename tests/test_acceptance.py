"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion appears as
one PASSED/FAILED line; with ``-s`` each also prints a one-line summary.
Wall-clock budgets are asserted where the criteria state them.
"""

import itertools
import random
import time
from fractions import Fraction

from equicut.boundary import (
    Cell,
    boundary_loops,
    connected_components,
    find_boundary_pattern,
    is_simply_connected,
    standard_cells,
)
from equicut.dissect import (
    Dissection,
    FailureKind,
    _piece_multiset_key,
    canonical_triangle,
    is_standard,
    standard_from_region,
    verify_dissection,
)
from equicut.exact import KElement, exactify, sqrt_adjoin
from equicut.geom import Pt, Triangle
from equicut.literals import format_number, parse_number
from equicut.relations import (
    RelationStatus,
    find_angle_relation,
    find_side_relation,
)
from equicut.search import SearchSpec, search_dissections, search_for_count, similar_tile
from equicut.trispace import angles_from_sides, sample_side_fractions

EQUILATERAL = canonical_triangle(1, 1)
RIGHT_ISOCELES = canonical_triangle(
    sqrt_adjoin(Fraction(1, 2)), sqrt_adjoin(Fraction(1, 2))
)
THIRTY_SIXTY = canonical_triangle(sqrt_adjoin(Fraction(3, 4)), Fraction(1, 2))
SCALENE = canonical_triangle(Fraction(7, 8), Fraction(3, 4))
LEGS_ONE_TWO = canonical_triangle(
    sqrt_adjoin(Fraction(4, 5)), sqrt_adjoin(Fraction(1, 5))
)
FIVE_TRIANGLES = [EQUILATERAL, RIGHT_ISOCELES, THIRTY_SIXTY, SCALENE, LEGS_ONE_TWO]


def test_criterion_01_standard_generator_all_orders():
    t0 = time.monotonic()
    for region in FIVE_TRIANGLES:
        region_area = region.signed_area()
        for n in range(1, 11):
            d = standard_from_region(region, n)
            assert d.piece_count == n * n
            total = sum((p.signed_area() for p in d.pieces), start=0)
            assert total == region_area
            assert verify_dissection(d).ok
            assert is_standard(d)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 1: PASS — 5 triangles x n=1..10 in {elapsed:.2f}s")


def _shift_vertex(dissection: Dissection, piece_idx: int, vert_idx: int) -> Dissection:
    """Move one vertex of one piece by exactly 1/1000, in a direction that
    provably changes the piece's area (so the area check must fire)."""
    piece = dissection.pieces[piece_idx]
    verts = list(piece.vertices)
    others = [verts[k] for k in range(3) if k != vert_idx]
    opposite = others[1] - others[0]
    delta = Fraction(1, 1000)
    v = verts[vert_idx]
    if not opposite.y.is_zero():  # x-shift changes the area
        moved = Pt(v.x + delta, v.y)
    else:  # opposite side horizontal, so a y-shift changes the area
        moved = Pt(v.x, v.y + delta)
    verts[vert_idx] = moved
    pieces = list(dissection.pieces)
    pieces[piece_idx] = Triangle(*verts)
    return Dissection(dissection.region, pieces)


def _delete_piece(dissection: Dissection, piece_idx: int) -> Dissection:
    pieces = [p for k, p in enumerate(dissection.pieces) if k != piece_idx]
    return Dissection(dissection.region, pieces)


def _shrink_piece(dissection: Dissection, piece_idx: int) -> Dissection:
    """Replace one piece with a half-scale copy about its own centroid —
    a wrong-size tile that still sits inside the old footprint."""
    piece = dissection.pieces[piece_idx]
    cx = (piece.vertices[0].x + piece.vertices[1].x + piece.vertices[2].x) / 3
    cy = (piece.vertices[0].y + piece.vertices[1].y + piece.vertices[2].y) / 3
    half = Fraction(1, 2)
    verts = [
        Pt(cx + (v.x - cx) * half, cy + (v.y - cy) * half) for v in piece.vertices
    ]
    pieces = list(dissection.pieces)
    pieces[piece_idx] = Triangle(*verts)
    return Dissection(dissection.region, pieces)


def test_criterion_02_verifier_rejects_100_corruptions():
    bases = [standard_from_region(t, n) for t in FIVE_TRIANGLES for n in (2, 3)]
    rng = random.Random(20260814)
    checked = 0

    for k in range(40):  # vertex shifts by 1/1000
        base = bases[k % len(bases)]
        bad = _shift_vertex(
            base, rng.randrange(base.piece_count), rng.randrange(3)
        )
        result = verify_dissection(bad)
        assert not result.ok
        assert FailureKind.AREA_MISMATCH in result.kinds()
        checked += 1

    for k in range(30):  # piece deletions
        base = bases[k % len(bases)]
        bad = _delete_piece(base, rng.randrange(base.piece_count))
        result = verify_dissection(bad)
        assert not result.ok
        assert result.kinds() == {FailureKind.AREA_MISMATCH}
        checked += 1

    for k in range(30):  # swaps with wrong-size tiles
        base = bases[k % len(bases)]
        bad = _shrink_piece(base, rng.randrange(base.piece_count))
        result = verify_dissection(bad)
        assert not result.ok
        assert FailureKind.CONGRUENCE_MISMATCH in result.kinds()
        checked += 1

    assert checked == 100
    print("\ncriterion 2: PASS — 100 corruptions rejected with expected categories")


def test_criterion_03_scalene_sweep_unique_standard():
    t0 = time.monotonic()
    expected_counts = {2: 0, 3: 0, 4: 1, 5: 0, 6: 0}
    # pinned with the length prune off; beside them, the default search's
    expected_nodes = {2: 3, 3: 4, 4: 9, 5: 17, 6: 23}
    default_nodes = {2: 0, 3: 0, 4: 5, 5: 0, 6: 0}
    total = 0
    for m in range(2, 7):
        tile = similar_tile(SCALENE, m)
        out = search_dissections(
            SearchSpec(region=SCALENE, tile=tile, m=m, prune_lengths=False)
        )
        assert out.complete
        assert len(out.dissections) == expected_counts[m]
        assert out.nodes == expected_nodes[m]
        total += len(out.dissections)
        if m == 4:
            assert is_standard(out.dissections[0])
        default = search_dissections(SearchSpec(region=SCALENE, tile=tile, m=m))
        assert default.complete
        assert default.nodes == default_nodes[m]
        assert [_piece_multiset_key(d.pieces) for d in default.dissections] == [
            _piece_multiset_key(d.pieces) for d in out.dissections
        ]
    elapsed = time.monotonic() - t0
    assert total == 1
    assert elapsed < 300.0
    print(
        f"\ncriterion 3: PASS — m=2..6 exhaustive, 1 dissection total "
        f"(the standard m=4) in {elapsed:.2f}s"
    )


def test_criterion_04_two_piece_instances():
    ri = search_dissections(
        SearchSpec(region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 2), m=2)
    )
    assert ri.complete and len(ri.dissections) == 1
    sc = search_dissections(
        SearchSpec(region=SCALENE, tile=similar_tile(SCALENE, 2), m=2)
    )
    assert sc.complete and len(sc.dissections) == 0
    print("\ncriterion 4: PASS — m=2: right isoceles 1, scalene 0")


def test_criterion_05_three_piece_instances():
    inv_sqrt3 = sqrt_adjoin(Fraction(1, 3))
    eq = search_for_count(EQUILATERAL, 3, extra_tiles=[(inv_sqrt3, inv_sqrt3, 1)])
    assert eq.complete
    assert eq.total_dissections >= 1
    ts = search_dissections(
        SearchSpec(region=THIRTY_SIXTY, tile=similar_tile(THIRTY_SIXTY, 3), m=3)
    )
    assert ts.complete and len(ts.dissections) >= 1
    sc = search_for_count(SCALENE, 3)
    assert sc.complete and sc.total_dissections == 0
    print(
        "\ncriterion 5: PASS — m=3: equilateral (center tile) >=1, "
        "30-60-90 >=1, scalene 0"
    )


def test_criterion_06_four_piece_right_isoceles():
    out = search_dissections(
        SearchSpec(region=RIGHT_ISOCELES, tile=similar_tile(RIGHT_ISOCELES, 4), m=4)
    )
    assert out.complete
    assert len(out.dissections) >= 2
    assert all(verify_dissection(d).ok for d in out.dissections)
    assert any(not is_standard(d) for d in out.dissections)
    print(
        f"\ncriterion 6: PASS — m=4 right isoceles: {len(out.dissections)} "
        "dissections, at least one non-standard"
    )


def test_criterion_07_five_piece_legs_one_two():
    # Exact oracle, constructed from elementary geometry before any search:
    # the altitude from the right angle C=(1/5, 2/5) to the hypotenuse meets
    # it at H=(1/5, 0) and cuts off one similar tile; the rest is the region
    # scaled by 2/sqrt(5), dissected by its midpoint subdivision.
    h = Pt(Fraction(1, 5), 0)
    c = Pt(Fraction(1, 5), Fraction(2, 5))
    mid_hb = Pt(Fraction(3, 5), 0)
    mid_hc = Pt(Fraction(1, 5), Fraction(1, 5))
    mid_bc = Pt(Fraction(3, 5), Fraction(1, 5))
    oracle = Dissection(
        LEGS_ONE_TWO,
        [
            Triangle(Pt(0, 0), h, c),
            Triangle(h, mid_hb, mid_hc),
            Triangle(mid_hb, Pt(1, 0), mid_bc),
            Triangle(mid_hc, mid_bc, c),
            Triangle(mid_hb, mid_bc, mid_hc),
        ],
    )
    assert verify_dissection(oracle).ok
    out = search_dissections(
        SearchSpec(region=LEGS_ONE_TWO, tile=similar_tile(LEGS_ONE_TWO, 5), m=5)
    )
    assert out.complete and len(out.dissections) >= 1
    want = _piece_multiset_key(oracle.pieces)
    assert any(_piece_multiset_key(d.pieces) == want for d in out.dissections)
    print(
        f"\ncriterion 7: PASS — explicit 5-piece dissection verified and "
        f"rediscovered ({len(out.dissections)} results)"
    )


def _cell_neighbors(cell: Cell):
    i, j = cell.i, cell.j
    if cell.up:
        return (Cell(i, j, False), Cell(i - 1, j, False), Cell(i, j - 1, False))
    return (Cell(i, j, True), Cell(i + 1, j, True), Cell(i, j + 1, True))


def _check_region(cells) -> None:
    loops = boundary_loops(cells)
    outer = loops[0]
    assert outer.total_turning() == 6
    assert find_boundary_pattern(outer) is not None
    for loop in loops:
        assert all(t in (-2, -1, 1, 2) for t in loop.turns)


def test_criterion_08_boundary_turning_suite():
    # exhaustive: all connected simply-connected subsets of <= 6 cells
    # inside the order-4 lattice triangle
    universe = sorted(standard_cells(4))
    assert len(universe) == 16
    tested = 0
    for size in range(1, 7):
        for subset in itertools.combinations(universe, size):
            if connected_components(subset) != 1:
                continue
            if not is_simply_connected(subset):
                continue
            _check_region(subset)
            tested += 1
    assert tested > 1000

    # plus 200 random larger simply-connected regions
    rng = random.Random(97)
    universe10 = sorted(standard_cells(10))
    allowed = set(universe10)
    built = 0
    while built < 200:
        target = rng.randrange(7, 31)
        cells = {rng.choice(universe10)}
        while len(cells) < target:
            frontier = [
                nb
                for cell in cells
                for nb in _cell_neighbors(cell)
                if nb in allowed and nb not in cells
            ]
            if not frontier:
                break
            cells.add(rng.choice(frontier))
        if len(cells) < 7 or not is_simply_connected(cells):
            continue
        _check_region(sorted(cells))
        built += 1
    print(
        f"\ncriterion 8: PASS — turning 6 + pattern on {tested} exhaustive "
        f"and {built} random regions"
    )


def test_criterion_09_relation_finder():
    # named instances at height <= 2
    eq_alpha, eq_beta, _ = angles_from_sides(1, 1)
    eq = find_angle_relation(eq_alpha, eq_beta, height=2)
    assert eq.status == RelationStatus.FOUND_CANDIDATE
    assert (1, -1, 0) in eq.candidates

    ts_alpha, ts_beta, _ = angles_from_sides(sqrt_adjoin(3) / 2, Fraction(1, 2))
    ts = find_angle_relation(ts_alpha, ts_beta, height=2)
    assert ts.status == RelationStatus.FOUND_CANDIDATE
    assert (1, -2, 0) in ts.candidates

    # sampled triangles: angles at H=12 and sides at H=8 over {1,2,3,5}
    rng = random.Random(20260814)
    angle_none = side_none = 0
    for _ in range(100):
        af, bf = sample_side_fractions(rng)
        alpha, beta, _ = angles_from_sides(af, bf)
        res1 = find_angle_relation(alpha, beta, height=12)
        if res1.status == RelationStatus.NONE_UP_TO_HEIGHT:
            assert res1.precision_bits > 0  # interval-certified
            angle_none += 1
        res2 = find_side_relation(*_numeric_pair(af, bf), height=8)
        if res2.status == RelationStatus.NONE_UP_TO_HEIGHT:
            assert res2.precision_bits > 0
            side_none += 1
    assert angle_none >= 99
    assert side_none >= 99
    print(
        f"\ncriterion 9: PASS — named relations at H<=2; sampled "
        f"NoneUpToHeight {angle_none}/100 angles, {side_none}/100 sides"
    )


def _numeric_pair(af: Fraction, bf: Fraction):
    from equicut.intervals import NumericReal

    return NumericReal.from_exact(af), NumericReal.from_exact(bf)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 9))


def _random_k_element(rng: random.Random) -> KElement:
    radicands = (1, 2, 3, 5, 6, 10, 15)
    terms = [
        (rng.choice(radicands), _random_fraction(rng))
        for _ in range(rng.randint(0, 3))
    ]
    return KElement(terms)


def _random_tower(rng: random.Random):
    value = exactify(_random_fraction(rng))
    for _ in range(rng.randint(0, 2)):
        value = value + _random_fraction(rng) * sqrt_adjoin(rng.choice((2, 3, 5, 7)))
    if rng.random() < 0.3:  # nested level
        value = value + sqrt_adjoin(value * value + 1)
    return value


def test_criterion_10_exact_kernel():
    rng = random.Random(1234)

    k_vals = [_random_k_element(rng) for _ in range(1000)]
    one = KElement.from_rational(Fraction(1))
    for idx in range(0, 1000, 3):
        a, b, c = k_vals[idx], k_vals[(idx + 1) % 1000], k_vals[(idx + 2) % 1000]
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == KElement.zero()
        if not a.is_zero():
            assert a * a.inverse() == one

    t_vals = [_random_tower(rng) for _ in range(500)]
    for idx in range(0, 500, 3):
        x, y, z = t_vals[idx], t_vals[(idx + 1) % 500], t_vals[(idx + 2) % 500]
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x + y) * (x - y) == x * x - y * y
        assert x - x == 0
        if not x.is_zero():
            assert x / x == 1

    round_trips = 0
    for k in range(500):
        value = (
            _random_k_element(rng).to_tower()
            if k % 2 == 0
            else _random_tower(rng)
        )
        text = format_number(value)
        parsed = parse_number(text)
        assert parsed == value
        assert format_number(parsed) == text
        round_trips += 1
    assert round_trips == 500
    print(
        "\ncriterion 10: PASS — field axioms on 1000 K-elements + 500 towers; "
        "500 literal round trips"
    )
