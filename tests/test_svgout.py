"""Tests for the SVG renderer."""

from fractions import Fraction

from equicut.boundary import Cell, standard_cells
from equicut.dissect import canonical_triangle, standard_from_region
from equicut.exact import sqrt_adjoin
from equicut.svgout import _decimal, dissection_svg, lattice_region_svg

SCALENE = canonical_triangle(Fraction(7, 8), Fraction(3, 4))


class TestDecimal:
    def test_rational(self):
        assert _decimal(Fraction(1, 3)) == "0.333333333333"

    def test_irrational(self):
        assert _decimal(sqrt_adjoin(2)) == "1.41421356237"

    def test_zero_never_signed(self):
        assert _decimal(Fraction(0)) == "0"
        assert _decimal(-0.0) == "0"

    def test_integer(self):
        assert _decimal(Fraction(5)) == "5"

    def test_twelve_digits_under_cancellation(self):
        # sqrt(2) minus its Pell convergent 665857/470832, about -1.6e-12
        assert _decimal(sqrt_adjoin(2) - Fraction(665857, 470832)) == "-1.59486182461e-12"


class TestDissectionSvg:
    def test_one_polygon_per_piece_plus_outline_path(self):
        d = standard_from_region(SCALENE, 3)
        svg = dissection_svg(d)
        assert svg.count("<polygon") == d.piece_count == 9
        assert svg.count("<path") == 1
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")

    def test_single_piece(self):
        d = standard_from_region(SCALENE, 1)
        svg = dissection_svg(d)
        assert svg.count("<polygon") == 1

    def test_coordinates_are_twelve_digit_decimals(self):
        d = standard_from_region(SCALENE, 3)
        svg = dissection_svg(d)
        assert "0.333333333333" in svg  # x = 1/3 lattice vertex
        assert "sqrt" not in svg  # never the exact literals themselves

    def test_y_axis_flip_is_a_transform_not_a_rewrite(self):
        d = standard_from_region(SCALENE, 2)
        svg = dissection_svg(d)
        assert 'transform="matrix(1 0 0 -1 0 ' in svg
        # the apex y-coordinate appears untransformed
        apex_y = _decimal(d.region.vertices[2].y)
        assert apex_y in svg


class TestLatticeSvg:
    def test_cells_and_loops_drawn_as_paths(self):
        cells = standard_cells(2)
        svg = lattice_region_svg(cells)
        # 4 cells + 1 outer loop
        assert svg.count("<path") == 5
        assert svg.count("<polygon") == 0

    def test_single_cell(self):
        svg = lattice_region_svg([Cell(0, 0, True)])
        assert svg.count("<path") == 2
