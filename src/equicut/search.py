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

``complete=True`` on the outcome certifies the returned list is exhaustive.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .exact import FieldBuilder, TowerReal, _value_key, exactify, sqrt_adjoin
from .geom import (
    AngleVec,
    Isometry,
    Pt,
    Triangle,
    _coord_sign,
    _ordered_isometry,
    _separated,
    orientation,
    point_on_segment,
    polygon_area,
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


@dataclass(frozen=True)
class _Poly:
    """A counterclockwise boundary cycle of one uncovered component.

    ``lens[i]`` caches the exact length of the edge from ``verts[i]`` to
    ``verts[i+1]``; lengths always stay inside the search field because new
    edges are tile sides and splits/merges only rescale rationally.  The
    cycle may revisit a pinch vertex, but edges never properly cross.
    """

    verts: Tuple[Pt, ...]
    lens: Tuple[TowerReal, ...]


def _split_edge(p: Pt, q: Pt, length: TowerReal, candidates: Sequence[Pt]):
    """Split the directed segment (p, q) at every candidate point strictly
    inside it, returning consecutive (start, end, exact length) pieces.
    Points are told apart by identity: a search keeps one ``Pt`` per point."""
    inside = []
    for c in candidates:
        if c is p or c is q or any(c is s for s in inside):
            continue
        if point_on_segment(c, p, q):
            inside.append(c)
    if not inside:
        return [(p, q, length)]
    dvec = q - p
    den = dvec.norm_sq()
    inside.sort(key=lambda c: (c - p).dot(dvec))
    points = [p] + inside + [q]
    pieces = []
    for u, w in zip(points, points[1:]):
        piece_len = length * ((w - u).dot(dvec)) / den
        pieces.append((u, w, piece_len))
    return pieces


def _edge_sort_key(edge):
    u, w, _ = edge
    return (u.x, u.y, w.x, w.y)


def _merge_cycle(segs) -> _Poly:
    """Merge maximal collinear runs of a closed edge cycle into single
    edges and return the resulting counterclockwise polygon."""
    n = len(segs)
    # the edges are nondegenerate, so edge i - 1 runs straight on into edge i
    # exactly when its end u lies on the segment from its start to w
    straight = [point_on_segment(u, segs[i - 1][0], w) for i, (u, w, _) in enumerate(segs)]
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
    if polygon_area(verts).sign() <= 0:
        raise RuntimeError("boundary cycle is not counterclockwise")
    return _Poly(verts, tuple(lens))


def _subtract(poly: _Poly, tri: Tuple[Pt, Pt, Pt], tri_lens: Tuple[TowerReal, TowerReal, TowerReal]) -> List[_Poly]:
    """Remove a placed triangle from one frontier polygon.

    Precondition (established by the placement checks): the triangle lies in
    the closure of the polygon and its open interior touches no boundary
    point, so every overlap between a triangle edge and a polygon edge is
    collinear.  Both edge sets are split at each other's vertices into
    atomic pieces that either coincide exactly or share at most endpoints;
    the new boundary keeps the uncovered polygon pieces plus the reversed
    triangle pieces that run through the interior, stitched back into
    counterclockwise cycles by a walk that always takes the sharpest
    available left turn, which keeps pinch wedges apart.

    A piece is covered exactly when the other edge set has the same piece,
    found by the points' hashed keys.  Every value in one search comes from
    the search's one ``FieldBuilder``, so equal points there have equal keys;
    and the search keeps one ``Pt`` per key, so equal points are one object.
    """
    n = len(poly.verts)
    poly_edges = [
        (poly.verts[i], poly.verts[(i + 1) % n], poly.lens[i]) for i in range(n)
    ]
    tri_edges = [
        (tri[0], tri[1], tri_lens[0]),
        (tri[1], tri[2], tri_lens[1]),
        (tri[2], tri[0], tri_lens[2]),
    ]
    tri_split = [_split_edge(p, q, length, poly.verts) for p, q, length in tri_edges]
    # Polygon vertices inside a triangle edge.  A pinch vertex that a straight
    # pass merged away can also lie inside a polygon edge along that triangle
    # edge; splitting there too keeps the two sides' pieces identical.
    inner = [u for pieces in tri_split for u, _, _ in pieces[1:]]
    cuts = tri + tuple(inner)
    poly_pieces = [piece for p, q, ln in poly_edges for piece in _split_edge(p, q, ln, cuts)]
    tri_pieces = [piece for pieces in tri_split for piece in pieces]

    def segments(pieces):  # undirected: a piece matches in either order
        return [frozenset((_point_key(u), _point_key(w))) for u, w, _ in pieces]

    poly_segs, tri_segs = segments(poly_pieces), segments(tri_pieces)
    on_tri, on_poly = set(tri_segs), set(poly_segs)
    kept = [e for e, seg in zip(poly_pieces, poly_segs) if seg not in on_tri]
    kept += [(w, u, ln) for (u, w, ln), seg in zip(tri_pieces, tri_segs) if seg not in on_poly]

    if not kept:
        return []

    edges = sorted(kept, key=_edge_sort_key)
    starts = {}  # start point key -> indices of the edges leaving it, ascending
    for idx, (u, _, _) in enumerate(edges):
        starts.setdefault(_point_key(u), []).append(idx)

    def successor(idx: int) -> int:
        p, q, _ = edges[idx]
        best = None
        best_angle: Optional[AngleVec] = None
        for jdx in starts.get(_point_key(q), ()):
            w = edges[jdx][1]
            if point_on_segment(w, q, p) or point_on_segment(p, q, w):
                raise RuntimeError("dangling boundary edge after subtraction")
            # The region lies in the wedge swept counterclockwise from the
            # outgoing edge to the reversed incoming edge, so the true
            # continuation bounds the smallest such wedge; a straight pass
            # through a pinch vertex would claim a half-plane and swallow
            # the wedge on the other side.  The outgoing edge starts at q,
            # so the wedge is the angle at q from w round to p.
            angle = AngleVec.interior(p, q, w)
            if best_angle is None or angle < best_angle:
                best, best_angle = jdx, angle
            elif angle == best_angle:
                raise RuntimeError("ambiguous boundary continuation")
        if best is None:
            raise RuntimeError("open boundary chain after subtraction")
        return best

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
        """The cosines, sines and angles of the corners, and the least angle."""
        sq = self.sq
        sqrt_h = builder.sqrt(self.heron16)
        self.cos = []
        self.sin = []
        self.angles = []
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            denom = 2 * self.s[i] * self.s[j]
            cos_k = (sq[i] + sq[j] - sq[k]) / denom
            sin_k = sqrt_h / denom
            self.cos.append(cos_k)
            self.sin.append(sin_k)
            self.angles.append(AngleVec.between(Pt(1, 0), Pt(cos_k, sin_k)))
        self.min_angle = min(self.angles)


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
        root = _Poly(
            (v[0], v[1], v[2]),
            (self.side_lens[0], self.side_lens[1], self.side_lens[2]),
        )
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
            verts, n = poly.verts, len(poly.verts)
            convex = [
                orientation(verts[i - 1], verts[i], verts[(i + 1) % n]) > 0
                for i in range(n)
            ]
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

        pi, vi, phi = self._canonical_vertex(frontier)
        poly = frontier[pi]
        n = len(poly.verts)
        v_at = poly.verts[vi]
        v_next = poly.verts[(vi + 1) % n]
        v_prev = poly.verts[(vi - 1) % n]
        out_len = poly.lens[vi]
        e = (v_next - v_at) / out_len
        prev_vec = v_prev - v_at

        tile = self.tile
        seen: List[Tuple[Pt, Pt]] = []
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            orders = [(tile.s[j], tile.s[i])]
            if self.spec.allow_reflections:
                orders.append((tile.s[i], tile.s[j]))
            theta = tile.angles[k]
            cmp = theta.compare(phi)
            if cmp > 0:
                continue
            d_dir = Pt(
                e.x * tile.cos[k] - e.y * tile.sin[k],
                e.x * tile.sin[k] + e.y * tile.cos[k],
            )
            if cmp < 0 and self.spec.prune_remainder:
                remainder = AngleVec.between(d_dir, prev_vec)
                if remainder < tile.min_angle:
                    self.cuts["remainder"] += 1
                    continue
            for along_len, other_len in orders:
                if self.truncated:
                    return
                a_pt = self._shared(v_at + e * along_len)
                x_pt = self._shared(v_at + d_dir * other_len)
                if any(a_pt is a2 and x_pt is x2 for (a2, x2) in seen):
                    continue
                seen.append((a_pt, x_pt))
                tri = (v_at, a_pt, x_pt)
                if not self._fits(poly, tri):
                    continue
                new_polys = _subtract(poly, tri, (along_len, tile.s[k], other_len))
                if not self._lengths_fit(new_polys):
                    continue
                child = frontier[:pi] + new_polys + frontier[pi + 1 :]
                pieces.append(Triangle(*tri))
                yield child
                pieces.pop()

    def _shared(self, p: Pt) -> Pt:
        """The search's one ``Pt`` equal to ``p``."""
        return self.points.setdefault(_point_key(p), p)

    def _canonical_vertex(self, frontier: List[_Poly]):
        best = None
        for pi, poly in enumerate(frontier):
            n = len(poly.verts)
            for vi in range(n):
                angle = AngleVec.interior(
                    poly.verts[(vi - 1) % n],
                    poly.verts[vi],
                    poly.verts[(vi + 1) % n],
                )
                key = (angle, poly.verts[vi])
                if best is None or _angle_point_less(key, best[0]):
                    best = (key, pi, vi)
        return best[1], best[2], best[0][0]

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
        for idx in range(n):
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


def _angle_point_less(key_a, key_b) -> bool:
    """Whether the (angle, vertex) key_a sorts first: by angle, then by the
    vertex's x and y."""
    (angle_a, a), (angle_b, b) = key_a, key_b
    return (angle_a.compare(angle_b) or _coord_sign(a, b, 0) or _coord_sign(a, b, 1)) < 0


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
