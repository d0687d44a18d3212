"""Triangle dissections into congruent triangular pieces.

Provides the canonical placement of a triangle with unit base, the standard
lattice dissection into n**2 congruent copies, an exact verifier that checks
every defining property of a dissection, a test for whether a dissection is
the standard lattice one, and a JSON interchange format whose coordinates are
canonical number literals.

The JSON reader parses each distinct literal once and shares one ``Pt``
among all occurrences of a pair of literals.  ``is_standard`` compares
hashed keys of exact values (canonical within one field), falling back to
an exact sorted comparison when the keys differ.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isqrt
from typing import List, Sequence, Tuple, Union

from .exact import FieldBuilder, TowerReal, _value_key, exactify, sqrt_adjoin
from .geom import (
    Location,
    Pt,
    Triangle,
    _same_multiset,
    point_in_triangle,
    triangles_interior_disjoint,
)
from .literals import format_number, parse_number
from .trispace import is_valid_side_pair

__all__ = [
    "Dissection",
    "FailureKind",
    "VerificationFailure",
    "VerificationResult",
    "canonical_triangle",
    "standard_dissection",
    "standard_from_region",
    "verify_dissection",
    "is_standard",
    "dissection_to_json",
    "dissection_to_json_str",
    "dissection_from_json",
]

FORMAT_NAME = "equicut-dissection"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Dissection:
    """A region triangle together with the pieces that are claimed to tile it."""

    region: Triangle
    pieces: Tuple[Triangle, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def piece_count(self) -> int:
        return len(self.pieces)


def canonical_triangle(
    a: Union[TowerReal, Fraction, int], b: Union[TowerReal, Fraction, int]
) -> Triangle:
    """Place the triangle with sides (a, b, 1) so the unit side runs from
    (0, 0) to (1, 0) and the apex lies in the upper half-plane.

    The apex C satisfies |BC| = a and |AC| = b where A = (0, 0), B = (1, 0).
    """
    a = exactify(a)
    b = exactify(b)
    if not is_valid_side_pair(a, b):
        raise ValueError("side lengths (a, b, 1) do not form a triangle")
    x = (1 + b * b - a * a) / 2
    y = sqrt_adjoin(b * b - x * x)
    zero = TowerReal.from_rational(0)
    one = TowerReal.from_rational(1)
    return Triangle(Pt(zero, zero), Pt(one, zero), Pt(x, y))


def standard_from_region(region: Triangle, n: int) -> Dissection:
    """The standard lattice dissection of ``region`` into n**2 congruent
    pieces: each side is divided into n equal parts and all cut lines run
    parallel to the sides."""
    if n < 1:
        raise ValueError("piece grid order must be at least 1")
    va, vb, vc = region.vertices
    u = (vb - va) / n
    v = (vc - va) / n
    rows: List[List[Pt]] = []  # rows[j][i] = va + u*i + v*j, each point built once
    for j in range(n + 1):
        row = [rows[-1][0] + v if rows else va]
        for _ in range(n - j):
            row.append(row[-1] + u)
        rows.append(row)
    pieces: List[Triangle] = []
    for j in range(n):
        for i in range(n - j):
            pieces.append(Triangle(rows[j][i], rows[j][i + 1], rows[j + 1][i]))
            if i + j <= n - 2:
                pieces.append(Triangle(rows[j][i + 1], rows[j + 1][i + 1], rows[j + 1][i]))
    return Dissection(region=region, pieces=tuple(pieces))


def standard_dissection(
    a: Union[TowerReal, Fraction, int], b: Union[TowerReal, Fraction, int], n: int
) -> Dissection:
    """Standard n**2-piece dissection of the canonically placed (a, b, 1)
    triangle."""
    return standard_from_region(canonical_triangle(a, b), n)


class FailureKind(enum.Enum):
    CONGRUENCE_MISMATCH = "congruence_mismatch"
    PIECE_OUTSIDE_REGION = "piece_outside_region"
    PIECE_PAIR_OVERLAP = "piece_pair_overlap"
    AREA_MISMATCH = "area_mismatch"


@dataclass(frozen=True)
class VerificationFailure:
    kind: FailureKind
    pieces: Tuple[int, ...]
    detail: str


@dataclass
class VerificationResult:
    ok: bool
    failures: List[VerificationFailure] = field(default_factory=list)
    pairs_tested: int = 0  # pairs that reached the exact disjointness test
    # pairs_tested again; pairs_pruned, pairs of nondegenerate pieces whose
    # boxes are apart; edges_measured, distinct vertex pairs measured for
    # congruence; area, "piece0" (m * |area of piece 0|) or "summed"
    stats: dict = field(default_factory=dict)

    def kinds(self) -> set:
        return {f.kind for f in self.failures}


_Key = Tuple[float, Fraction]


def _key(f: Fraction) -> _Key:
    """f behind its correctly rounded float.  Rounding is monotone, so such
    pairs compare as the Fractions do, and look at the Fractions only when
    the floats tie."""
    try:
        return float(f), f
    except OverflowError:
        return (inf if f > 0 else -inf), f


def _corner(v: Pt) -> Tuple[_Key, _Key, _Key, _Key]:
    """The ends (x lo, x hi, y lo, y hi) of v's coordinate intervals."""
    x, y = v.x.interval(32), v.y.interval(32)
    return _key(x.lo), _key(x.hi), _key(y.lo), _key(y.hi)


def _bbox(a, b, c) -> Tuple[_Key, _Key, _Key, _Key]:
    """The box of a triangle from the ``_corner``s of its vertices."""
    return (
        min(a[0], b[0], c[0]),
        max(a[1], b[1], c[1]),
        min(a[2], b[2], c[2]),
        max(a[3], b[3], c[3]),
    )


def _box_pairs(boxes: dict) -> List[Tuple[int, int]]:
    """The pairs (i, j), i < j in that order, whose boxes overlap with positive
    area (outward-rounded boxes that merely touch certify interior disjointness:
    a linear functional is extreme only on the boundary).  Sort-and-sweep on x:
    once a box starts at or past the end of box i, so does every later one."""
    order = sorted(boxes, key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        bi = boxes[i]
        for j in order[k + 1 :]:
            bj = boxes[j]
            if bj[0] >= bi[1]:
                break
            if bi[0] < bj[1] and bi[2] < bj[3] and bj[2] < bi[3]:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def verify_dissection(dissection: Dissection) -> VerificationResult:
    """Check all defining properties of a dissection with exact arithmetic.

    A valid dissection has every piece congruent to the first, every piece
    contained in the (convex) region, pairwise interior-disjoint pieces, and
    piece areas summing exactly to the region area; together these force the
    pieces to tile the region without gaps.

    Work shared by pieces is done once per vertex object: each edge's squared
    length, each vertex's location and box.  When every piece is congruent to
    piece 0, all have its |area| (Heron's formula), so the area sum is
    m * |area of piece 0| and the pieces are degenerate exactly when piece 0 is.
    """
    region = dissection.region.oriented()
    if region.is_degenerate():
        raise ValueError("region triangle is degenerate")
    if not dissection.pieces:
        raise ValueError("dissection has no pieces")
    pieces = dissection.pieces
    failures: List[VerificationFailure] = []

    edges = {}  # (id, id) of a vertex pair -> its squared length

    def sides(piece: Triangle):
        out = []
        for u, w in ((piece.vb, piece.vc), (piece.vc, piece.va), (piece.va, piece.vb)):
            key = (id(u), id(w)) if id(u) < id(w) else (id(w), id(u))
            d = edges.get(key)
            if d is None:
                d = edges[key] = (w - u).norm_sq()
            out.append(d)
        return out

    ref = sides(pieces[0])
    for i, piece in enumerate(pieces[1:], start=1):
        if not _same_multiset(ref, sides(piece)):
            failures.append(
                VerificationFailure(
                    FailureKind.CONGRUENCE_MISMATCH,
                    (0, i),
                    f"piece {i} is not congruent to piece 0",
                )
            )
    all_congruent = not failures

    where = {}  # id(vertex) -> Location: a vertex shared by pieces is located once
    for i, piece in enumerate(pieces):
        for v in piece.vertices:
            loc = where.get(id(v))
            if loc is None:
                loc = where[id(v)] = point_in_triangle(v, region)
            if loc == Location.OUTSIDE:
                failures.append(
                    VerificationFailure(
                        FailureKind.PIECE_OUTSIDE_REGION,
                        (i,),
                        f"a vertex of piece {i} lies outside the region",
                    )
                )
                break

    def magnitude(piece: Triangle) -> TowerReal:
        area = piece.signed_area()
        return -area if area.sign() < 0 else area

    if all_congruent:
        area = magnitude(pieces[0])
        total = area * len(pieces)
        live = [] if area.is_zero() else range(len(pieces))
    else:
        total = TowerReal.from_rational(0)
        for piece in pieces:
            total = total + magnitude(piece)
        live = [i for i, p in enumerate(pieces) if not p.is_degenerate()]

    # a degenerate piece has an empty interior, disjoint from everything
    corners = {}  # id(vertex) -> _corner(vertex)
    boxes = {}
    for i in live:
        for v in pieces[i].vertices:
            if id(v) not in corners:
                corners[id(v)] = _corner(v)
        boxes[i] = _bbox(*(corners[id(v)] for v in pieces[i].vertices))
    pairs = _box_pairs(boxes)
    for i, j in pairs:
        if not triangles_interior_disjoint(pieces[i], pieces[j]):
            failures.append(
                VerificationFailure(
                    FailureKind.PIECE_PAIR_OVERLAP,
                    (i, j),
                    f"pieces {i} and {j} have overlapping interiors",
                )
            )

    region_area = region.signed_area()
    if total != region_area:
        failures.append(
            VerificationFailure(
                FailureKind.AREA_MISMATCH,
                tuple(range(len(pieces))),
                f"piece areas sum to {format_number(total)} but the region "
                f"area is {format_number(region_area)}",
            )
        )

    stats = {
        "pairs_tested": len(pairs),
        "pairs_pruned": len(boxes) * (len(boxes) - 1) // 2 - len(pairs),
        "edges_measured": len(edges),
        "area": "piece0" if all_congruent else "summed",
    }
    return VerificationResult(
        ok=not failures, failures=failures, pairs_tested=len(pairs), stats=stats
    )


def _vertex_key(p: Pt):
    return (p.x, p.y)


def _point_key(p: Pt):
    """Hashable key of a point's exact coordinates; see ``exact._value_key``."""
    return (_value_key(p.x), _value_key(p.y))


def _triangle_key(tri: Triangle):
    return tuple(sorted(_vertex_key(v) for v in tri.vertices))


def _piece_multiset_key(pieces: Sequence[Triangle]):
    return sorted(_triangle_key(t) for t in pieces)


def _hashed_pieces(pieces: Sequence[Triangle]) -> Counter:
    """The pieces as a multiset of vertex-key multisets, repeated vertices
    kept.  Equal Counters mean equal pieces; unequal ones prove nothing."""
    return Counter(
        frozenset(Counter(_point_key(v) for v in t.vertices).items())
        for t in pieces
    )


def is_standard(dissection: Dissection) -> bool:
    """True when the pieces are exactly the standard lattice cells of the
    region (as unordered vertex sets; orientation and listing order are
    ignored).  The lattice is symmetric in the region's vertices, so the
    region's own vertex labelling does not matter."""
    m = len(dissection.pieces)
    n = isqrt(m)
    if n == 0 or n * n != m:
        return False
    std = standard_from_region(dissection.region, n)
    if _hashed_pieces(dissection.pieces) == _hashed_pieces(std.pieces):
        return True
    return _piece_multiset_key(dissection.pieces) == _piece_multiset_key(std.pieces)


def _pt_to_json(p: Pt) -> List[str]:
    return [format_number(p.x), format_number(p.y)]


def dissection_to_json(dissection: Dissection) -> dict:
    """JSON-ready dict with every coordinate as a canonical number literal."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "region": [_pt_to_json(v) for v in dissection.region.vertices],
        "pieces": [
            [_pt_to_json(v) for v in piece.vertices] for piece in dissection.pieces
        ],
    }


def dissection_to_json_str(dissection: Dissection) -> str:
    return json.dumps(dissection_to_json(dissection), indent=2) + "\n"


class _Reader:
    """The vertices of one file, all embedded into one shared field.  Each
    distinct literal is parsed once and each distinct pair of literals
    becomes one ``Pt``; the memos live as long as the reader."""

    def __init__(self):
        self.builder = FieldBuilder()
        self.numbers = {}
        self.points = {}

    def number(self, text: str) -> TowerReal:
        value = self.numbers.get(text)
        if value is None:
            value = self.numbers[text] = self.builder.embed(parse_number(text))
        return value

    def vertex(self, pair) -> Pt:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError("vertex must be a pair of number literals")
        if not all(isinstance(c, str) for c in pair):
            raise ValueError("coordinates must be number literals written as strings")
        key = tuple(pair)
        p = self.points.get(key)
        if p is None:
            p = self.points[key] = Pt(*map(self.number, key))
        return p

    def triangle(self, verts) -> Triangle:
        if not isinstance(verts, (list, tuple)) or len(verts) != 3:
            raise ValueError("triangle must have exactly three vertices")
        return Triangle(*(self.vertex(v) for v in verts))


def dissection_from_json(data: Union[str, dict]) -> Dissection:
    """Parse the JSON interchange form.  All coordinates are embedded into one
    shared field so later exact arithmetic stays in a single tower."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except RecursionError as exc:
            raise ValueError("dissection JSON is nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError("dissection JSON must be an object")
    if data.get("format") != FORMAT_NAME:
        raise ValueError(f"unrecognized format marker: {data.get('format')!r}")
    version = data.get("version")
    if type(version) is not int or not 1 <= version <= FORMAT_VERSION:  # not a bool
        raise ValueError(f"unsupported format version: {version!r}")
    reader = _Reader()
    region = reader.triangle(data.get("region"))
    if region.is_degenerate():
        raise ValueError("region triangle is degenerate")
    raw_pieces = data.get("pieces")
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise ValueError("pieces must be a non-empty list of triangles")
    pieces = tuple(reader.triangle(p) for p in raw_pieces)
    return Dissection(region=region, pieces=pieces)
