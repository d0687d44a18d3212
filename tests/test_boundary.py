import pytest

from equicut.boundary import (
    BoundaryLoop,
    Cell,
    PatternKind,
    boundary_loops,
    connected_components,
    euler_characteristic,
    find_boundary_pattern,
    is_simply_connected,
    standard_cells,
)


def up(i, j):
    return Cell(i, j, True)


def down(i, j):
    return Cell(i, j, False)


class TestCells:
    def test_vertices(self):
        assert up(0, 0).vertices() == ((0, 0), (1, 0), (0, 1))
        assert down(0, 0).vertices() == ((1, 0), (1, 1), (0, 1))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 9), (4, 16)])
    def test_standard_cell_count(self, n, count):
        assert len(standard_cells(n)) == count

    def test_standard_rejects_zero(self):
        with pytest.raises(ValueError):
            standard_cells(0)


class TestBoundaryLoops:
    def test_single_up_cell(self):
        (loop,) = boundary_loops([up(0, 0)])
        assert loop.vertices == ((0, 0), (1, 0), (0, 1))
        assert loop.directions == (0, 2, 4)
        assert loop.turns == (2, 2, 2)
        assert loop.total_turning() == 6

    def test_single_down_cell(self):
        (loop,) = boundary_loops([down(0, 0)])
        assert loop.vertices == ((0, 1), (1, 0), (1, 1))
        assert loop.directions == (5, 1, 3)
        assert loop.turns == (2, 2, 2)

    def test_parallelogram(self):
        (loop,) = boundary_loops([up(0, 0), down(0, 0)])
        assert loop.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
        assert loop.directions == (0, 1, 3, 4)
        assert loop.turns == (2, 1, 2, 1)

    def test_trapezoid_merges_collinear_edges(self):
        (loop,) = boundary_loops([up(0, 0), down(0, 0), up(1, 0)])
        assert loop.vertices == ((0, 0), (2, 0), (1, 1), (0, 1))
        assert loop.directions == (0, 2, 3, 4)
        assert loop.turns == (2, 2, 1, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_standard_region_is_big_triangle(self, n):
        (loop,) = boundary_loops(standard_cells(n))
        assert loop.vertices == ((0, 0), (n, 0), (0, n))
        assert loop.turns == (2, 2, 2)

    def test_pinched_pair_gives_two_loops(self):
        loops = boundary_loops([up(0, 0), up(1, 0)])
        assert len(loops) == 2
        for loop in loops:
            assert loop.turns == (2, 2, 2)
            assert loop.total_turning() == 6
        assert loops[0].vertices[0] == (0, 0)
        assert loops[1].vertices[0] == (1, 0)

    def test_notch_produces_reflex_corner(self):
        cells = standard_cells(3) - {up(1, 0)}
        (loop,) = boundary_loops(cells)
        assert loop.vertices == ((0, 0), (1, 0), (1, 1), (2, 0), (3, 0), (0, 3))
        assert loop.directions == (0, 1, 5, 0, 2, 4)
        assert loop.turns == (2, 1, -2, 1, 2, 2)
        assert loop.total_turning() == 6

    def test_hole_gives_clockwise_loop(self):
        cells = standard_cells(4) - {up(1, 1)}
        loops = boundary_loops(cells)
        assert len(loops) == 2
        outer = [l for l in loops if l.total_turning() == 6]
        holes = [l for l in loops if l.total_turning() != 6]
        assert len(outer) == 1 and len(holes) == 1
        # the loop through the lexicographically least vertex comes first
        assert loops[0] is outer[0]
        assert outer[0].vertices == ((0, 0), (4, 0), (0, 4))
        hole = holes[0]
        assert hole.vertices == ((1, 1), (1, 2), (2, 1))
        assert hole.turns == (-2, -2, -2)
        assert hole.total_turning() == -6

    def test_pinch_cycle_splits_into_triangles(self):
        # three cells surrounding an absent cell but meeting only at corners:
        # the walk produces each cell's own loop, all counterclockwise
        cells = [down(1, 0), down(1, 1), down(0, 1)]
        loops = boundary_loops(cells)
        assert len(loops) == 3
        for loop in loops:
            assert loop.turns == (2, 2, 2)

    def test_hexagon(self):
        cells = [up(1, 0), down(1, 0), up(1, 1), down(0, 1), up(0, 1), down(0, 0)]
        (loop,) = boundary_loops(cells)
        assert len(loop) == 6
        assert loop.turns == (1, 1, 1, 1, 1, 1)

    def test_empty_region(self):
        assert boundary_loops([]) == []

    def test_deterministic(self):
        cells = standard_cells(4) - {up(1, 1), down(2, 0)}
        assert boundary_loops(cells) == boundary_loops(sorted(cells))


def star_cells():
    hexagon = [up(1, 0), down(1, 0), up(1, 1), down(0, 1), up(0, 1), down(0, 0)]
    tips = [down(1, -1), up(2, 0), down(1, 1), up(0, 2), down(-1, 1), up(0, 0)]
    return hexagon + tips


class TestPatterns:
    def test_triangle_two_convex(self):
        (loop,) = boundary_loops([up(0, 0)])
        pattern = find_boundary_pattern(loop)
        assert pattern.kind == PatternKind.TWO_CONVEX_ADJACENT
        assert pattern.index == 0
        assert pattern.vertices == ((0, 0), (1, 0))

    def test_notch_still_two_convex(self):
        cells = standard_cells(3) - {up(1, 0)}
        (loop,) = boundary_loops(cells)
        pattern = find_boundary_pattern(loop)
        assert pattern.kind == PatternKind.TWO_CONVEX_ADJACENT

    def test_star_needs_convex_reflex_convex(self):
        (loop,) = boundary_loops(star_cells())
        assert len(loop) == 12
        assert sorted(loop.turns) == [-1] * 6 + [2] * 6
        assert loop.total_turning() == 6
        pattern = find_boundary_pattern(loop)
        assert pattern.kind == PatternKind.CONVEX_REFLEX_CONVEX
        assert loop.turns[pattern.index] > 0

    def test_hole_loop_has_no_pattern(self):
        loops = boundary_loops(standard_cells(4) - {up(1, 1)})
        hole = next(l for l in loops if l.total_turning() != 6)
        assert find_boundary_pattern(hole) is None

    def test_synthetic_pure_reflex_loop(self):
        loop = BoundaryLoop(
            vertices=((0, 0), (1, 0), (1, 1)),
            directions=(3, 1, 5),
            turns=(-2, -2, -2),
        )
        assert find_boundary_pattern(loop) is None

    def test_every_outer_loop_of_random_subregions_has_pattern(self):
        import random

        rng = random.Random(2024)
        base = sorted(standard_cells(6))
        found = 0
        for _ in range(120):
            cells = [c for c in base if rng.random() < 0.6]
            if not is_simply_connected(cells):
                continue
            for loop in boundary_loops(cells):
                assert loop.total_turning() == 6
                assert find_boundary_pattern(loop) is not None
                found += 1
        assert found > 50


class TestTopology:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_standard_simply_connected(self, n):
        cells = standard_cells(n)
        assert euler_characteristic(cells) == 1
        assert connected_components(cells) == 1
        assert is_simply_connected(cells)

    def test_wedge_pair_simply_connected(self):
        cells = [up(0, 0), up(1, 0)]
        assert euler_characteristic(cells) == 1
        assert connected_components(cells) == 1
        assert is_simply_connected(cells)

    def test_hole_detected(self):
        cells = standard_cells(4) - {up(1, 1)}
        assert euler_characteristic(cells) == 0
        assert connected_components(cells) == 1
        assert not is_simply_connected(cells)

    def test_pinch_cycle_not_simply_connected(self):
        cells = [down(1, 0), down(1, 1), down(0, 1)]
        assert euler_characteristic(cells) == 0
        assert connected_components(cells) == 1
        assert not is_simply_connected(cells)

    def test_two_far_components(self):
        cells = [up(0, 0), up(5, 5)]
        assert euler_characteristic(cells) == 2
        assert connected_components(cells) == 2
        assert is_simply_connected(cells)

    def test_empty(self):
        assert euler_characteristic([]) == 0
        assert connected_components([]) == 0
        assert is_simply_connected([])
