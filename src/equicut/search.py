"""Exhaustive search for dissections of a triangle into congruent tiles.

Given a region triangle, a tile (a congruence class described by its sorted
side lengths), and a piece count ``m``, :func:`search_dissections` enumerates
every dissection of the region into ``m`` congruent copies of the tile.  The
search runs entirely in exact arithmetic, so no numeric tolerance ever
decides a branch.  All candidate vertices live in one tower field, which
one ``FieldBuilder`` builds from the region's coordinates, its side lengths
and the tile sides; the tower is nested when a generic region needs it.
``_TileData.add_corners`` adjoins the root of Heron's value only once the
root has passed the length rule, and nothing is adjoined after the search
starts.

The enumeration is a depth-first search on the uncovered region:

* The frontier is the uncovered part of the region, kept as one or more
  counterclockwise polygons with exact vertices and exact cached edge
  lengths.  Collinear edges are merged eagerly, so no interior angle is ever
  exactly straight.
* Each step picks the canonical frontier vertex - the one with the smallest
  interior angle, ties broken by lexicographic (x, y) - and places a tile
  corner there with one side flush along the outgoing boundary edge.  A
  wedge-counting argument shows some piece of every completed dissection
  must sit exactly like that, so trying all 3 corners (times 2 mirror
  orientations when reflections are allowed) loses nothing.
* Two sound pruning rules cut branches that provably cannot complete; both
  can be toggled off for differential testing, which must only ever grow
  the node count, never change the result set:

  - *remainder*: a corner placed at a frontier vertex must leave a wedge
    no narrower than the tile's smallest angle;
  - *lengths* (Laczkovich's boundary lemma): a frontier edge whose two end
    vertices are both convex must have a length p*s0 + q*s1 + r*s2 with
    integers p, q, r >= 0, where s0 <= s1 <= s2 are the tile sides.  The
    region left uncovered is tiled exactly, and each tile that meets the
    edge along a segment has a side on it.  That side cannot pass a convex
    end: past the end it would leave the region, since the next edge turns
    into the tile's half-plane.  So the sides along the edge partition it.
    Each frontier polygon is checked once, when it is made.

Angles come from a per-search table of unit edge directions
(``_Directions``).  Each frontier edge carries its direction's id, so the
interior angle at a vertex is the pair (outgoing id, reversed incoming id),
a placement adds tabled vectors to the vertex, and each comparison of two
such angles is decided once per search, by ``AngleVec``.  All values of a
search come from one ``FieldBuilder`` chain, where ``_value_key`` is
canonical, and the search interns by it: two ids are equal exactly when
their directions are, and equal points are one ``Pt``.  So ``_merge_cycle``
merges edges that share an id, and ``_subtract`` matches points by
identity.  Float boxes only skip tests that cannot succeed: ``_fits``
skips frontier edges whose boxes are apart from the placed triangle's,
``_subtract`` keeps such edges whole, and ``_merge_cycle``'s orientation
check certifies its area sign from floats (``geom._area_sign``) before any
exact sum.

``complete=True`` on the outcome certifies the returned list is exhaustive.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .exact import FieldBuilder, TowerReal, _value_key, exactify, sqrt_adjoin
from .geom import (
    AngleVec,
    Isometry,
    Pt,
    Triangle,
    _area_sign,
    _coord_sign,
    _ordered_isometry,
    _separated,
    point_on_segment,
)
from .dissect import Dissection, _hashed_pieces, _piece_multiset_key, _point_key, verify_dissection

__all__ = [
    "CountReport",
    "SearchOutcome",
    "SearchSpec",
    "TileReport",
    "region_symmetries",
    "search_dissections",
    "search_for_count",
    "similar_tile",
]

Sideish = Union[TowerReal, Fraction, int]


@dataclass
class SearchSpec:
    """Everything that defines one search problem.

    ``tile`` is a triple of exact side lengths (any order; it is sorted on
    use).  ``allow_reflections=False`` restricts pieces to the single
    handedness whose counterclockwise side cycle runs in ascending sorted
    order.  ``symmetry_quotient=True`` keeps one representative per orbit of
    the region's symmetry group.  The two ``prune_*`` switches exist for
    differential testing of search soundness; disabling them may only slow
    the search down, never change its results.  ``max_nodes``,
    ``max_results`` and ``time_budget`` (seconds) stop the search early,
    and the outcome then says which one did; the first two must be at
    least 1 and ``time_budget`` at least 0, and none may be NaN.
    """

    region: Triangle
    tile: Tuple[Sideish, Sideish, Sideish]
    m: int
    allow_reflections: bool = True
    symmetry_quotient: bool = False
    max_nodes: Optional[int] = None
    max_results: Optional[int] = None
    time_budget: Optional[float] = None
    prune_remainder: bool = True
    prune_lengths: bool = True


_PRUNE_RULES = ("remainder", "lengths")


def _stats(nodes: int = 0, cuts: Optional[dict] = None, truncated_by: Optional[str] = None) -> dict:
    cuts = dict(cuts or dict.fromkeys(_PRUNE_RULES, 0))
    return {"expanded": nodes, "cuts": cuts, "truncated_by": truncated_by}


@dataclass
class SearchOutcome:
    """Result of one search: the dissections found (canonically ordered),
    whether the enumeration provably covered the whole tree, the number of
    expansion calls, and an optional notice for vacuous cases.

    ``stats`` holds ``expanded`` (equal to ``nodes``), ``cuts`` (branches
    cut per pruning rule: ``remainder`` and ``lengths``) and
    ``truncated_by`` (None for a complete search, else ``"nodes"``,
    ``"results"`` or ``"time"``).
    """

    dissections: List[Dissection]
    complete: bool
    nodes: int
    note: Optional[str] = None
    stats: dict = field(default_factory=_stats)


@dataclass
class TileReport:
    """One tile's labelled outcome inside a :class:`CountReport`."""

    kind: str  # "similar" for the derived 1/sqrt(m) tile, else "supplied"
    sides: Tuple[TowerReal, TowerReal, TowerReal]
    outcome: SearchOutcome


@dataclass
class CountReport:
    """Aggregated outcomes of searching one region for ``m``-piece
    dissections over several candidate tiles."""

    region: Triangle
    m: int
    reports: List[TileReport]

    @property
    def total_dissections(self) -> int:
        """Dissections found, counting an outcome shared by repeated tiles
        once."""
        distinct = {id(r.outcome): r.outcome for r in self.reports}
        return sum(len(o.dissections) for o in distinct.values())

    @property
    def complete(self) -> bool:
        return all(r.outcome.complete for r in self.reports)


# ---------------------------------------------------------------------------
# Frontier polygons.


_REVERSE = 6  # the turn by pi in ``_Directions.turned``


class _Directions:
    """The unit edge directions of one search.

    Each direction is interned once, by its exact hashed key
    (``_point_key``), and named by its index, its *id*.  ``turned(d, t)`` is
    the id of direction d turned counterclockwise by the tile's angle t (t =
    0, 1, 2), by pi minus the angle t - 3 (t = 3, 4, 5) or by pi (t =
    ``_REVERSE``), each built on first use; ``scaled(d, j)`` is the vector
    along d as long as tile side j.  Every value of one search comes from
    its one ``FieldBuilder`` chain, where ``_value_key`` is canonical, so
    equal directions have equal keys: two ids are equal exactly when their
    directions are.

    An *angle* is a pair (a, b) of ids, the counterclockwise angle in
    (0, 2*pi) from direction a to direction b; it is zero exactly when a ==
    b.  ``turn`` gives the sign of a cross product of two unit vectors and
    ``compare`` orders two angles, both by ``AngleVec.between``, and both
    are memoised per search.
    """

    def __init__(self, tile: Optional[_TileData]):
        self.tile = tile
        self.vecs: List[Pt] = []
        self.ids: dict = {}  # _point_key(unit vector) -> id
        # id -> [the ids turned by t = 0..6, the vectors scaled by j = 0..2]
        self.derived: List[list] = []
        self.turns: dict = {}  # (a, b) -> sign of vecs[a] x vecs[b]
        self.order: dict = {}  # (angle, angle) -> sign of their difference

    def intern(self, vec: Pt) -> int:
        key = _point_key(vec)
        did = self.ids.get(key)
        if did is None:
            did = self.ids[key] = len(self.vecs)
            self.vecs.append(vec)
            self.derived.append([None] * 10)
        return did

    def edge(self, p: Pt, q: Pt, length: TowerReal) -> int:
        """The id of the direction from p to q, ``length`` apart."""
        return self.intern((q - p) / length)

    def turned(self, did: int, t: int) -> int:
        slots = self.derived[did]
        out = slots[t]
        if out is None:
            u = self.vecs[did]
            if t == _REVERSE:
                out = self.intern(-u)
                self.derived[out][_REVERSE] = did
            else:
                c, s = self.tile.cos[t % 3], self.tile.sin[t % 3]
                if t >= 3:
                    c = -c
                out = self.intern(Pt(u.x * c - u.y * s, u.x * s + u.y * c))
            slots[t] = out
        return out

    def reverse(self, did: int) -> int:
        return self.turned(did, _REVERSE)

    def scaled(self, did: int, j: int) -> Pt:
        slots = self.derived[did]
        out = slots[7 + j]
        if out is None:
            out = slots[7 + j] = self.vecs[did] * self.tile.s[j]
        return out

    def turn(self, a: int, b: int) -> int:
        s = self.turns.get((a, b))
        if s is None:
            s = 0 if a == b else AngleVec.between(self.vecs[a], self.vecs[b])._sign(1)
            self.turns[(a, b)], self.turns[(b, a)] = s, -s
        return s

    def compare(self, x: Tuple[int, int], y: Tuple[int, int]) -> int:
        """Sign of angle x minus angle y; neither may be zero."""
        if x == y:
            return 0
        s = self.order.get((x, y))
        if s is None:
            v = self.vecs
            s = AngleVec.between(v[x[0]], v[x[1]]).compare(AngleVec.between(v[y[0]], v[y[1]]))
            self.order[(x, y)], self.order[(y, x)] = s, -s
        return s

    def sharpest(self, back: int, outs: Sequence[int]) -> int:
        """The index in ``outs`` of the direction that leaves the least
        angle (out, back), the sharpest left turn after arriving along the
        reverse of ``back``."""
        best = best_angle = None
        for idx, out in enumerate(outs):
            if out == back:
                raise RuntimeError("dangling boundary edge after subtraction")
            angle = (out, back)
            s = -1 if best is None else self.compare(angle, best_angle)
            if s == 0:
                raise RuntimeError("ambiguous boundary continuation")
            if s < 0:
                best, best_angle = idx, angle
        if best is None:
            raise RuntimeError("open boundary chain after subtraction")
        return best


@dataclass(frozen=True)
class _Poly:
    """A counterclockwise boundary cycle of one uncovered component.

    ``lens[i]`` caches the exact length of the edge from ``verts[i]`` to
    ``verts[i+1]``, and ``dirs[i]`` its direction's id in the search's
    ``_Directions``; lengths always stay inside the search field because new
    edges are tile sides, a split piece's length is a difference of dot
    products with a tabled unit vector, and a merge adds lengths.  The
    cycle may revisit a pinch vertex, but edges never properly cross.
    """

    verts: Tuple[Pt, ...]
    lens: Tuple[TowerReal, ...]
    dirs: Tuple[int, ...]


def _box_sides(points: Sequence[Pt], tri: Tuple[Pt, Pt, Pt], strict: bool) -> List[int]:
    """Per point, a mask of the sides of ``tri``'s box (left, right, below,
    above) that the point's box lies past, strictly or also when they touch;
    0 when a box is missing.  A segment whose two ends share a bit lies in
    a box that is apart from the triangle's, or touches it."""
    boxes = [v._floats() for v in tri]
    if not all(boxes):
        return [0] * len(points)
    xlo, xhi = min(b[0][0] for b in boxes), max(b[0][1] for b in boxes)
    ylo, yhi = min(b[1][0] for b in boxes), max(b[1][1] for b in boxes)
    masks = []
    for p in points:
        b = p._floats()
        if not b:
            masks.append(0)
        elif strict:
            masks.append((b[0][1] < xlo) | (b[0][0] > xhi) << 1 | (b[1][1] < ylo) << 2 | (b[1][0] > yhi) << 3)
        else:
            masks.append((b[0][1] <= xlo) | (b[0][0] >= xhi) << 1 | (b[1][1] <= ylo) << 2 | (b[1][0] >= yhi) << 3)
    return masks


def _split_edge(p: Pt, q: Pt, length: TowerReal, unit: Pt, candidates: Sequence[Pt]):
    """Split the directed segment (p, q), ``length`` long along the unit
    vector ``unit``, at every candidate point strictly inside it, returning
    consecutive (start, end, exact length) pieces.  An inner point c lies
    t = (c - p) . unit along the segment, so the pieces' lengths are the
    differences of t.  Points are told apart by identity: a search keeps
    one ``Pt`` per point."""
    inside = []
    for c in candidates:
        if c is p or c is q or any(c is s for s in inside):
            continue
        if point_on_segment(c, p, q):
            inside.append(c)
    if not inside:
        return [(p, q, length)]
    cut = sorted((((c - p).dot(unit), c) for c in inside), key=lambda tc: tc[0])
    pieces, u, t_u = [], p, 0
    for t_w, w in cut + [(length, q)]:
        pieces.append((u, w, t_w - t_u))
        u, t_u = w, t_w
    return pieces


def _edge_order(a, b) -> int:
    """Sign of edge a minus edge b in the order of (start x, start y, end
    x, end y), each coordinate compared box first (``_coord_sign``)."""
    for p, q in ((a[0], b[0]), (a[1], b[1])):
        if p is not q:
            s = _coord_sign(p, q, 0) or _coord_sign(p, q, 1)
            if s:
                return s
    return 0


_edge_sort_key = cmp_to_key(_edge_order)


def _merge_cycle(segs) -> _Poly:
    """Merge maximal collinear runs of a closed cycle of (start, end,
    length, direction id) edges into single edges and return the resulting
    counterclockwise polygon."""
    n = len(segs)
    # edge i - 1 runs straight on into edge i exactly when the two share a
    # direction id, since a search's ids name its directions one to one
    straight = [segs[i - 1][3] == seg[3] for i, seg in enumerate(segs)]
    start = next((i for i in range(n) if not straight[i]), None)
    if start is None:
        raise RuntimeError("boundary cycle degenerated to a line")
    order = list(range(start, n)) + list(range(start))
    runs: List[List[int]] = []
    for idx in order:
        if runs and straight[idx]:
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
    if _area_sign(verts) <= 0:
        raise RuntimeError("boundary cycle is not counterclockwise")
    return _Poly(verts, tuple(lens), tuple(segs[r[0]][3] for r in runs))


def _subtract(
    poly: _Poly,
    tri: Tuple[Pt, Pt, Pt],
    tri_lens: Tuple[TowerReal, TowerReal, TowerReal],
    tri_dirs: Tuple[int, int, int],
    dirs: _Directions,
) -> List[_Poly]:
    """Remove a placed triangle from one frontier polygon.

    Precondition (established by the placement checks): the triangle lies in
    the closure of the polygon and its open interior touches no boundary
    point, so every overlap between a triangle edge and a polygon edge is
    collinear.  Both edge sets are split at each other's vertices into
    atomic pieces that either coincide exactly or share at most endpoints;
    the new boundary keeps the uncovered polygon pieces plus the reversed
    triangle pieces that run through the interior, stitched back into
    counterclockwise cycles by a walk that always takes the sharpest
    available left turn, which keeps pinch wedges apart.  Each piece keeps
    its edge's direction id, reversed for a triangle piece.

    A polygon vertex whose box is strictly apart from the triangle's box
    lies on no triangle edge, and a polygon edge whose two ends lie past one
    side of that box meets no triangle edge and no point that splits it, so
    it is kept whole without a test.

    A piece is covered exactly when the other edge set has the same piece,
    and the walk continues from an edge's end along the edges that start at
    that point; both match points by identity.  Every value in one search
    comes from the search's one ``FieldBuilder`` chain, where ``_value_key``
    is canonical, and the search keeps one ``Pt`` per key, so equal points
    are one object.
    """
    verts, n = poly.verts, len(poly.verts)
    past = _box_sides(verts, tri, strict=True)
    near = [v for v, side in zip(verts, past) if not side]

    def split(p, q, length, did, at):
        return [piece + (did,) for piece in _split_edge(p, q, length, dirs.vecs[did], at)]

    tri_split = [split(tri[k], tri[(k + 1) % 3], tri_lens[k], did, near) for k, did in enumerate(tri_dirs)]
    # Polygon vertices inside a triangle edge.  A pinch vertex that a straight
    # pass merged away can also lie inside a polygon edge along that triangle
    # edge; splitting there too keeps the two sides' pieces identical.
    inner = [u for pieces in tri_split for u, _, _, _ in pieces[1:]]
    cuts = tri + tuple(inner)
    kept, poly_pieces = [], []
    for i in range(n):
        p, q, did = verts[i], verts[(i + 1) % n], poly.dirs[i]
        if past[i] & past[(i + 1) % n]:
            kept.append((p, q, poly.lens[i], did))
        else:
            poly_pieces += split(p, q, poly.lens[i], did, cuts)
    tri_pieces = [piece for pieces in tri_split for piece in pieces]

    def segments(pieces):  # undirected: a piece matches in either order
        return [frozenset((id(u), id(w))) for u, w, _, _ in pieces]

    poly_segs, tri_segs = segments(poly_pieces), segments(tri_pieces)
    on_tri, on_poly = set(tri_segs), set(poly_segs)
    kept += [e for e, seg in zip(poly_pieces, poly_segs) if seg not in on_tri]
    kept += [
        (w, u, ln, dirs.reverse(did))
        for (u, w, ln, did), seg in zip(tri_pieces, tri_segs)
        if seg not in on_poly
    ]

    if not kept:
        return []

    edges = sorted(kept, key=_edge_sort_key)
    starts = {}  # id(start point) -> indices of the edges leaving it, ascending
    for idx, (u, _, _, _) in enumerate(edges):
        starts.setdefault(id(u), []).append(idx)

    def successor(idx: int) -> int:
        # The region lies in the wedge swept counterclockwise from the
        # outgoing edge to the reversed incoming edge, so the true
        # continuation bounds the smallest such wedge; a straight pass
        # through a pinch vertex would claim a half-plane and swallow the
        # wedge on the other side.
        _, q, _, did = edges[idx]
        leaving = starts.get(id(q), ())
        return leaving[dirs.sharpest(dirs.reverse(did), [edges[j][3] for j in leaving])]

    used = [False] * len(edges)
    cycles: List[List[int]] = []
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

    return [_merge_cycle([edges[i] for i in orbit]) for orbit in cycles]


# ---------------------------------------------------------------------------
# Tile geometry inside the fixed search field.


def _heron16(a2: TowerReal, b2: TowerReal, c2: TowerReal) -> TowerReal:
    """16 * (triangle area)^2 from squared side lengths."""
    return 2 * (a2 * b2 + b2 * c2 + c2 * a2) - (a2 * a2 + b2 * b2 + c2 * c2)


class _TileData:
    """Per-corner placement data for the tile, all in the search field.

    Corner ``k`` is the one opposite side ``s[k]``.  For the reference
    (direct) handedness the side leaving corner ``k`` counterclockwise is
    ``s[(k+2) % 3]`` and the side arriving is ``s[(k+1) % 3]``.  The sides
    and Heron's value come first; ``add_corners`` builds the rest, once the
    root has passed the length rule.
    """

    def __init__(self, builder: FieldBuilder, sides: Sequence[TowerReal]):
        self.s = [builder.embed(x) for x in sides]
        self.sq = [x * x for x in self.s]
        self.heron16 = _heron16(*self.sq)
        if self.heron16.sign() <= 0:
            raise ValueError("tile sides violate the triangle inequality")

    def add_corners(self, builder: FieldBuilder) -> None:
        """The cosines and sines of the corners.  The sides are sorted, so
        corner 0 has the least angle."""
        sq = self.sq
        sqrt_h = builder.sqrt(self.heron16)
        self.cos = []
        self.sin = []
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            denom = 2 * self.s[i] * self.s[j]
            self.cos.append((sq[i] + sq[j] - sq[k]) / denom)
            self.sin.append(sqrt_h / denom)


# ---------------------------------------------------------------------------
# The searcher.


class _Searcher:
    def __init__(self, spec: SearchSpec):
        if spec.m < 1:
            raise ValueError("piece count must be at least 1")
        for name, value in (("max_nodes", spec.max_nodes), ("max_results", spec.max_results)):
            if value is not None and not value >= 1:
                raise ValueError(f"{name} must be at least 1")
        if spec.time_budget is not None and not spec.time_budget >= 0:
            raise ValueError("time_budget must be at least 0")
        region = spec.region.oriented()
        if region.is_degenerate():
            raise ValueError("degenerate region")
        self.spec = spec
        self.builder = builder = FieldBuilder()
        verts = [
            Pt(builder.embed(p.x), builder.embed(p.y)) for p in region.vertices
        ]
        self.region = Triangle(*verts)
        side_sq = [
            (verts[1] - verts[0]).norm_sq(),
            (verts[2] - verts[1]).norm_sq(),
            (verts[0] - verts[2]).norm_sq(),
        ]
        self.side_lens = [builder.sqrt(sq) for sq in side_sq]

        tile_sides = sorted(exactify(x) for x in spec.tile)
        if tile_sides[0].sign() <= 0:
            raise ValueError("tile sides must be positive")
        self.note: Optional[str] = None
        self.tile: Optional[_TileData] = None
        try:
            tile = _TileData(builder, tile_sides)
        except ValueError:
            self.note = "tile sides violate the triangle inequality; no dissection can exist"
            return
        area2_region = self.region.signed_area()
        lhs = tile.heron16 * Fraction(spec.m * spec.m)
        rhs = 16 * area2_region * area2_region
        if not (lhs == rhs):
            self.note = (
                "tile area times piece count does not equal the region area; "
                "no dissection can exist"
            )
            return
        self.tile = tile

    def run(self) -> SearchOutcome:
        if self.tile is None:
            return SearchOutcome([], True, 0, note=self.note)
        self.results: List[Dissection] = []
        self.nodes = 0
        self.truncated_by: Optional[str] = None
        self.cuts = dict.fromkeys(_PRUNE_RULES, 0)
        self.representable: dict = {}  # _value_key(length) -> verdict
        self.deadline = (
            time.monotonic() + self.spec.time_budget
            if self.spec.time_budget is not None
            else None
        )
        t = self.tile
        self.unit_sides = (t.s[1] / t.s[0], t.s[2] / t.s[0])
        v = self.region.vertices
        # one Pt per distinct point, so equal points are one object: boxes are
        # built once, and the verifier in _emit meets shared vertices and edges
        self.points = {_point_key(p): p for p in v}
        self.dirs = _Directions(t)
        lens = tuple(self.side_lens)
        root = _Poly(v, lens, tuple(self.dirs.edge(v[i], v[(i + 1) % 3], lens[i]) for i in range(3)))
        if self._lengths_fit([root]):
            t.add_corners(self.builder)
            # depth first on an explicit stack of expansions, so the depth is
            # bounded by memory and the budgets, not by Python's recursion limit
            pieces: List[Triangle] = []
            stack = [self._expand([root], pieces)]
            while stack:
                child = next(stack[-1], None)
                if child is None:
                    stack.pop()
                else:
                    stack.append(self._expand(child, pieces))
        self.results.sort(key=lambda d: _piece_multiset_key(d.pieces))
        if self.spec.symmetry_quotient:
            self.results = _quotient_by_symmetry(self.region, self.results)
        return SearchOutcome(
            self.results,
            self.truncated_by is None,
            self.nodes,
            stats=_stats(self.nodes, self.cuts, self.truncated_by),
        )

    @property
    def truncated(self) -> bool:
        return self.truncated_by is not None

    def _out_of_time(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.truncated_by = "time"
            return True
        return False

    # -- the length rule ---------------------------------------------------

    def _lengths_fit(self, polys: Sequence[_Poly]) -> bool:
        """False when some edge between two convex vertices of ``polys`` is
        no sum of whole tile sides (the *lengths* rule in the module
        docstring), so the frontier cannot be tiled; counts the cut."""
        if not self.spec.prune_lengths:
            return True
        for poly in polys:
            n = len(poly.verts)
            # vertex i is convex when its outgoing edge turns left
            convex = [self.dirs.turn(poly.dirs[i - 1], poly.dirs[i]) > 0 for i in range(n)]
            for i in range(n):
                if convex[i] and convex[(i + 1) % n] and not self._representable(poly.lens[i]):
                    self.cuts["lengths"] += 1
                    return False
        return True

    def _representable(self, length: TowerReal) -> bool:
        """Whether ``length`` = p*s0 + q*s1 + r*s2 for integers p, q, r >= 0.

        Works in units of s0: with u1 = s1/s0 and u2 = s2/s0, it enumerates
        r and then q while the exact remainder length/s0 - r*u2 - q*u1 stays
        non-negative, and asks whether a remainder is a rational integer.
        Since u2 >= u1 >= 1, that is at most (L/s1 + 1)(L/s2 + 1) steps, and
        every bound comes from an exact sign.  A search stopped by its time
        budget inside the loop answers True without memoising, and its
        caller sees the truncation.
        """
        key = _value_key(length)
        verdict = self.representable.get(key)
        if verdict is not None:
            return verdict
        u1, u2 = self.unit_sides
        rem_r = length / self.tile.s[0]
        verdict = False
        while not verdict and rem_r.sign() >= 0:
            rem = rem_r
            while rem.sign() >= 0:
                if self._out_of_time():
                    return True
                whole = rem.as_fraction()
                if whole is not None and whole.denominator == 1:
                    verdict = True
                    break
                rem = rem - u1
            rem_r = rem_r - u2
        self.representable[key] = verdict
        return verdict

    # -- node expansion ----------------------------------------------------

    def _expand(self, frontier: List[_Poly], pieces: List[Triangle]) -> Iterator[List[_Poly]]:
        """Expand one node: yield each child frontier, with its new piece on
        ``pieces`` until the child's expansion is done."""
        if self.truncated:
            return
        self.nodes += 1
        if self.spec.max_nodes is not None and self.nodes > self.spec.max_nodes:
            self.truncated_by = "nodes"
            return
        if self._out_of_time():
            return
        if not frontier:
            self._emit(pieces)
            return

        pi, vi = self._canonical_vertex(frontier)
        poly = frontier[pi]
        v_at = poly.verts[vi]
        dirs = self.dirs
        # phi is the angle (e, r): from the outgoing edge round to the
        # reversed incoming one.  A counterclockwise cycle turns through
        # 2*pi in all, so some corner is convex, and so is the least one.
        e, r = poly.dirs[vi], dirs.reverse(poly.dirs[vi - 1])
        if dirs.turn(e, r) <= 0:
            raise RuntimeError("the least frontier angle is not convex")

        tile = self.tile
        seen: List[Tuple[Pt, Pt]] = []
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            orders = [(j, i)]
            if self.spec.allow_reflections:
                orders.append((i, j))
            cmp = self._corner_cmp(e, r, k)
            if cmp > 0:
                continue
            d = dirs.turned(e, k)
            if cmp < 0 and self.spec.prune_remainder and self._remainder_narrow(d, r):
                self.cuts["remainder"] += 1
                continue
            # the piece's sides run along e, along e turned by pi minus the
            # corner opposite the other side, and back along d
            for along, other in orders:
                if self.truncated:
                    return
                a_pt = self._shared(v_at + dirs.scaled(e, along))
                x_pt = self._shared(v_at + dirs.scaled(d, other))
                if any(a_pt is a2 and x_pt is x2 for (a2, x2) in seen):
                    continue
                seen.append((a_pt, x_pt))
                tri = (v_at, a_pt, x_pt)
                if not self._fits(poly, tri):
                    continue
                new_polys = _subtract(
                    poly,
                    tri,
                    (tile.s[along], tile.s[k], tile.s[other]),
                    (e, dirs.turned(e, 3 + other), dirs.reverse(d)),
                    dirs,
                )
                if not self._lengths_fit(new_polys):
                    continue
                child = frontier[:pi] + new_polys + frontier[pi + 1 :]
                pieces.append(Triangle(*tri))
                yield child
                pieces.pop()

    def _shared(self, p: Pt) -> Pt:
        """The search's one ``Pt`` equal to ``p``."""
        return self.points.setdefault(_point_key(p), p)

    def _canonical_vertex(self, frontier: List[_Poly]) -> Tuple[int, int]:
        """(polygon index, vertex index) of the frontier vertex with the
        least interior angle, ties broken by the vertex's x and then y."""
        dirs = self.dirs
        best = best_angle = best_pt = None
        for pi, poly in enumerate(frontier):
            ds = poly.dirs
            for vi, v in enumerate(poly.verts):
                angle = (ds[vi], dirs.reverse(ds[vi - 1]))
                if best is not None:
                    s = dirs.compare(angle, best_angle) or _coord_sign(v, best_pt, 0) or _coord_sign(v, best_pt, 1)
                    if s >= 0:
                        continue
                best, best_angle, best_pt = (pi, vi), angle, v
        return best

    def _corner_cmp(self, e: int, r: int, k: int) -> int:
        """Sign of theta_k - phi, tile corner k's angle against the convex
        angle phi = (e, r).  Both lie in (0, pi), so d = e turned by theta_k
        equals r or lies clockwise of it exactly when theta_k - phi is 0 or
        positive."""
        d = self.dirs.turned(e, k)
        return 0 if d == r else -self.dirs.turn(d, r)

    def _remainder_narrow(self, d: int, r: int) -> bool:
        """Whether the wedge (d, r) left beside a corner placed strictly
        inside a convex angle is narrower than corner 0's angle, the tile's
        least.  Both lie in (0, pi), so the wedge is narrower exactly when r
        lies strictly clockwise of d turned by corner 0's angle."""
        m = self.dirs.turned(d, 0)
        return m != r and self.dirs.turn(m, r) < 0

    def _fits(self, poly: _Poly, tri: Tuple[Pt, Pt, Pt]) -> bool:
        """Whether the placed triangle ``tri`` lies inside ``poly`` with no
        frontier edge through its open interior.

        ``tri`` is counterclockwise by construction: its third vertex lies
        at a tile angle in (0, pi), measured counterclockwise from the edge
        its first two span.  A frontier edge misses the open interior
        exactly when an edge line of the triangle or the edge's own line
        weakly separates the two, the Minkowski-difference argument of
        ``triangles_interior_disjoint`` applied to a triangle and a segment.

        Missing every frontier edge is enough.  ``_expand`` places a corner
        at the canonical vertex only when its angle is at most the interior
        angle phi there, flush along the outgoing edge, so the open triangle
        starts inside the interior wedge of that vertex occurrence; it is
        connected and meets no frontier edge, so all of it lies inside the
        polygon.  A flush side longer than the outgoing edge has the edge's
        far end strictly inside it; when that end is convex, the next
        frontier edge turns into the triangle's inner half-plane there and
        meets its open interior, so such a placement is refused here.
        """
        n = len(poly.verts)
        past = _box_sides(poly.verts, tri, strict=False)
        for idx in range(n):
            if past[idx] & past[(idx + 1) % n]:
                continue  # the edge's box is apart from the triangle's or touches it
            seg = (poly.verts[idx], poly.verts[(idx + 1) % n])
            if not (_separated(tri, 1, seg) or _separated(seg, 1, tri)):
                return False
        return True

    def _emit(self, pieces: List[Triangle]) -> None:
        if len(pieces) != self.spec.m:
            raise RuntimeError("covered the region with a wrong piece count")
        d = Dissection(self.region, tuple(pieces))
        check = verify_dissection(d)
        if not check.ok:
            raise RuntimeError(
                "search produced an invalid dissection: "
                + ", ".join(sorted(k.value for k in check.kinds()))
            )
        self.results.append(d)
        if (
            self.spec.max_results is not None
            and len(self.results) >= self.spec.max_results
        ):
            self.truncated_by = "results"


# ---------------------------------------------------------------------------
# Region symmetries and the quotient of results.


def region_symmetries(region: Triangle) -> List[Isometry]:
    """All isometries mapping the region onto itself (1, 2, or 6 of them)."""
    verts = region.vertices
    out = []
    for dst in itertools.permutations(verts):
        for reflect in (False, True):
            iso = _ordered_isometry(verts, dst, reflect)
            if iso is not None:
                out.append(iso)
                break
    return out


def _quotient_by_symmetry(region: Triangle, results: List[Dissection]) -> List[Dissection]:
    """The first result of each orbit under the region's symmetries.  An
    orbit is keyed by the set of its members' hashed pieces: one search keeps
    every value in one tower chain, where equal values have equal keys.
    Pieces share vertex objects, so each distinct vertex is mapped once per
    isometry."""
    group = region_symmetries(region)
    if len(group) <= 1:
        return results
    kept = []
    seen = set()
    for d in results:
        verts = {id(v): v for p in d.pieces for v in p.vertices}
        orbit = set()
        for iso in group:
            image = {k: iso.apply(v) for k, v in verts.items()}
            pieces = [Triangle(*(image[id(v)] for v in p.vertices)) for p in d.pieces]
            orbit.add(frozenset(_hashed_pieces(pieces).items()))
        orbit = frozenset(orbit)
        if orbit not in seen:
            seen.add(orbit)
            kept.append(d)
    return kept


# ---------------------------------------------------------------------------
# Public entry points.


def search_dissections(spec: SearchSpec) -> SearchOutcome:
    """Enumerate dissections of ``spec.region`` into ``spec.m`` congruent
    copies of ``spec.tile``.  The tile's area times ``m`` must equal the
    region's area exactly; otherwise the outcome is vacuously empty and says
    so in its note."""
    return _Searcher(spec).run()


def similar_tile(region: Triangle, m: int) -> Tuple[TowerReal, TowerReal, TowerReal]:
    """The sorted side triple of the region shrunk by 1/sqrt(m) - the only
    tile shape a similarity argument permits for *similar* pieces."""
    if m < 1:
        raise ValueError("piece count must be at least 1")
    scale = sqrt_adjoin(Fraction(1, m))
    sides = [s * scale for s in region.side_lengths()]
    sides.sort()
    return (sides[0], sides[1], sides[2])


def search_for_count(
    region: Triangle,
    m: int,
    extra_tiles: Sequence[Tuple[Sideish, Sideish, Sideish]] = (),
    **spec_kwargs,
) -> CountReport:
    """Search one region for ``m``-piece dissections.

    Always tries the similar tile (region scaled by 1/sqrt(m)); any
    ``extra_tiles`` are searched as well, each labelled in the report.
    Tiles whose area cannot tile the region exactly come back with a
    vacuous, noted outcome rather than an error.
    """
    similar = similar_tile(region, m)
    jobs: List[Tuple[str, Tuple[TowerReal, TowerReal, TowerReal]]] = [
        ("similar", similar)
    ]
    for raw in extra_tiles:
        sides = sorted(exactify(x) for x in raw)
        triple = (sides[0], sides[1], sides[2])
        jobs.append(("supplied", triple))
    reports: List[TileReport] = []
    outcomes: List[Tuple[Tuple[TowerReal, ...], SearchOutcome]] = []
    for kind, triple in jobs:
        previous = next(
            (
                o
                for done, o in outcomes
                if all(a == b for a, b in zip(done, triple))
            ),
            None,
        )
        if previous is not None:
            reports.append(TileReport(kind, triple, previous))
            continue
        outcome = search_dissections(
            SearchSpec(region=region, tile=triple, m=m, **spec_kwargs)
        )
        outcomes.append((triple, outcome))
        reports.append(TileReport(kind, triple, outcome))
    return CountReport(region, m, reports)
