"""equicut: exact dissections of a triangle into congruent triangles.

Submodules cover exact tower-field arithmetic, number-literal parsing,
rigorous interval evaluation, linear-relation detection, triangle parameter
spaces, exact planar geometry, dissection models and verification, lattice
boundary analysis, exhaustive search for congruent dissections, SVG
rendering, and a command-line interface.
"""

from __future__ import annotations

from .boundary import (
    BoundaryLoop,
    BoundaryPattern,
    Cell,
    PatternKind,
    boundary_loops,
    find_boundary_pattern,
    is_simply_connected,
    standard_cells,
)
from .dissect import (
    Dissection,
    FailureKind,
    VerificationFailure,
    VerificationResult,
    canonical_triangle,
    dissection_from_json,
    dissection_to_json,
    dissection_to_json_str,
    is_standard,
    standard_dissection,
    standard_from_region,
    verify_dissection,
)
from .exact import (
    FieldBuilder,
    KElement,
    NegativeSqrtError,
    SquarefreeBoundError,
    TowerContext,
    TowerReal,
    k_membership,
    sqrt_adjoin,
    squarefree_decompose,
    tower_to_k,
)
from .geom import AngleVec, Isometry, Pt, Triangle, congruent
from .intervals import NumericReal, RatInterval, RefinementLimitError
from .literals import ParseError, format_k_element, format_number, parse_number
from .relations import (
    RelationResult,
    RelationStatus,
    SearchSpaceError,
    find_angle_relation,
    find_angle_relation_pi_fractions,
    find_integer_relation,
    find_side_relation,
)
from .search import (
    CountReport,
    SearchOutcome,
    SearchSpec,
    TileReport,
    region_symmetries,
    search_dissections,
    search_for_count,
    similar_tile,
)
from .svgout import dissection_svg, lattice_region_svg
from .trispace import angles_from_sides, cosines_from_sides, sample_side_triangle

__version__ = "0.1.0"

__all__ = [
    "AngleVec",
    "BoundaryLoop",
    "BoundaryPattern",
    "Cell",
    "CountReport",
    "Dissection",
    "FailureKind",
    "FieldBuilder",
    "Isometry",
    "KElement",
    "NegativeSqrtError",
    "NumericReal",
    "ParseError",
    "PatternKind",
    "Pt",
    "RatInterval",
    "RefinementLimitError",
    "RelationResult",
    "RelationStatus",
    "SearchOutcome",
    "SearchSpaceError",
    "SearchSpec",
    "SquarefreeBoundError",
    "TileReport",
    "TowerContext",
    "TowerReal",
    "Triangle",
    "VerificationFailure",
    "VerificationResult",
    "angles_from_sides",
    "boundary_loops",
    "canonical_triangle",
    "congruent",
    "cosines_from_sides",
    "dissection_from_json",
    "dissection_svg",
    "dissection_to_json",
    "dissection_to_json_str",
    "find_angle_relation",
    "find_angle_relation_pi_fractions",
    "find_boundary_pattern",
    "find_integer_relation",
    "find_side_relation",
    "format_k_element",
    "format_number",
    "is_simply_connected",
    "is_standard",
    "k_membership",
    "lattice_region_svg",
    "parse_number",
    "region_symmetries",
    "sample_side_triangle",
    "search_dissections",
    "search_for_count",
    "similar_tile",
    "sqrt_adjoin",
    "squarefree_decompose",
    "standard_cells",
    "standard_dissection",
    "standard_from_region",
    "tower_to_k",
    "verify_dissection",
]
