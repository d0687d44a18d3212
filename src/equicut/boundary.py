"""Lattice-cell regions and their oriented boundary structure.

Regions here are finite sets of unit cells of the triangular lattice spanned
by u = (1, 0) and v = (0, 1): an *up* cell (i, j) has corners P, P+u, P+v and
a *down* cell has corners P+u, P+u+v, P+v, where P = i*u + j*v.  All boundary
edges run in one of six lattice directions, so the exterior angle at a corner
is a multiple of 60 degrees and each boundary loop has an integer total
turning in those units: +6 for a loop enclosing cells, -6 for a loop around a
hole.

The boundary walk pairs each incoming edge with the outgoing edge of the same
wedge fan around the shared vertex, so regions that touch themselves at a
single vertex split cleanly into separate loops there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DIRECTIONS",
    "Cell",
    "standard_cells",
    "BoundaryLoop",
    "boundary_loops",
    "PatternKind",
    "BoundaryPattern",
    "find_boundary_pattern",
    "euler_characteristic",
    "connected_components",
    "is_simply_connected",
]

# the six unit directions of the lattice, in counterclockwise order
DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (0, -1),
    (1, -1),
)
_DIR_INDEX: Dict[Tuple[int, int], int] = {d: k for k, d in enumerate(DIRECTIONS)}

Vertex = Tuple[int, int]
Edge = Tuple[Vertex, Vertex]


@dataclass(frozen=True, order=True)
class Cell:
    i: int
    j: int
    up: bool = True

    def vertices(self) -> Tuple[Vertex, Vertex, Vertex]:
        i, j = self.i, self.j
        if self.up:
            return ((i, j), (i + 1, j), (i, j + 1))
        return ((i + 1, j), (i + 1, j + 1), (i, j + 1))

    def edges(self) -> Tuple[Edge, Edge, Edge]:
        a, b, c = self.vertices()
        return ((a, b), (b, c), (c, a))


def standard_cells(n: int) -> FrozenSet[Cell]:
    """All cells of the order-n subdivision of the corner triangle
    0 <= i, 0 <= j, i + j <= n."""
    if n < 1:
        raise ValueError("subdivision order must be at least 1")
    cells = set()
    for j in range(n):
        for i in range(n - j):
            cells.add(Cell(i, j, True))
            if i + j <= n - 2:
                cells.add(Cell(i, j, False))
    return frozenset(cells)


@dataclass(frozen=True)
class BoundaryLoop:
    """One boundary loop after merging collinear edges.

    ``directions[k]`` is the direction index of the segment from
    ``vertices[k]`` to ``vertices[k + 1]``; ``turns[k]`` is the turning at
    ``vertices[k]`` (from segment k-1 into segment k) in units of 60 degrees,
    one of -2, -1, +1, +2.
    """

    vertices: Tuple[Vertex, ...]
    directions: Tuple[int, ...]
    turns: Tuple[int, ...]

    def total_turning(self) -> int:
        return sum(self.turns)

    def __len__(self) -> int:
        return len(self.vertices)


def _turn(d_in: int, d_out: int) -> int:
    step = (d_out - d_in) % 6
    if step in (1, 2):
        return step
    if step in (4, 5):
        return step - 6
    raise ValueError(f"malformed boundary: direction step {step}")


def _next_in_cell(cell: Cell, edge: Edge) -> Edge:
    edges = cell.edges()
    return edges[(edges.index(edge) + 1) % 3]


def _merge_walk(walk: Sequence[Edge]) -> BoundaryLoop:
    dirs = [
        _DIR_INDEX[(w[0] - v[0], w[1] - v[1])] for v, w in walk
    ]
    m = len(walk)
    start = next((k for k in range(m) if dirs[k] != dirs[k - 1]), None)
    if start is None:
        raise ValueError("malformed boundary: closed walk in a single direction")
    corners: List[Vertex] = []
    corner_dirs: List[int] = []
    for k in range(start, start + m):
        k %= m
        if not corner_dirs or corner_dirs[-1] != dirs[k]:
            corners.append(walk[k][0])
            corner_dirs.append(dirs[k])
    # rotate to the lexicographically smallest (vertex, direction) so equal
    # regions always produce identical loops
    n = len(corners)
    best = min(range(n), key=lambda k: (corners[k], corner_dirs[k]))
    corners = corners[best:] + corners[:best]
    corner_dirs = corner_dirs[best:] + corner_dirs[:best]
    turns = tuple(
        _turn(corner_dirs[k - 1], corner_dirs[k]) for k in range(n)
    )
    return BoundaryLoop(tuple(corners), tuple(corner_dirs), turns)


def boundary_loops(cells: Iterable[Cell]) -> List[BoundaryLoop]:
    """Decompose the boundary of a cell region into oriented loops.

    Loops enclosing cells run counterclockwise (total turning +6); loops
    around holes run clockwise (total turning -6).
    """
    cell_set = frozenset(cells)
    edge_cell: Dict[Edge, Cell] = {}
    for cell in cell_set:
        for edge in cell.edges():
            edge_cell[edge] = cell
    boundary = {e for e in edge_cell if (e[1], e[0]) not in edge_cell}

    def successor(edge: Edge) -> Edge:
        # walk the fan of cells around the endpoint until the wedge ends
        nxt = _next_in_cell(edge_cell[edge], edge)
        while nxt not in boundary:
            reverse = (nxt[1], nxt[0])
            nxt = _next_in_cell(edge_cell[reverse], reverse)
        return nxt

    loops: List[BoundaryLoop] = []
    unused = set(boundary)
    for start in sorted(boundary):
        if start not in unused:
            continue
        walk = [start]
        unused.discard(start)
        edge = successor(start)
        while edge != start:
            walk.append(edge)
            unused.discard(edge)
            edge = successor(edge)
        loops.append(_merge_walk(walk))
    return loops


class PatternKind(enum.Enum):
    TWO_CONVEX_ADJACENT = "two_convex_adjacent"
    CONVEX_REFLEX_CONVEX = "convex_reflex_convex"


@dataclass(frozen=True)
class BoundaryPattern:
    kind: PatternKind
    index: int
    vertices: Tuple[Vertex, ...]


def find_boundary_pattern(loop: BoundaryLoop) -> Optional[BoundaryPattern]:
    """Locate two adjacent convex corners, or failing that a convex corner
    followed by one reflex corner and another convex corner.

    Every loop of total turning +6 contains one of the two patterns: if no
    two convex corners were adjacent, each convex corner (turn <= +2) would
    need to be followed by a reflex corner, and without the
    convex-reflex-convex pattern by at least two reflex corners (turns <=
    -2 combined), so no corner sequence could sum to +6.  Hole loops may
    contain neither.
    """
    turns = loop.turns
    n = len(turns)
    for k in range(n):
        if turns[k] > 0 and turns[(k + 1) % n] > 0:
            return BoundaryPattern(
                PatternKind.TWO_CONVEX_ADJACENT,
                k,
                (loop.vertices[k], loop.vertices[(k + 1) % n]),
            )
    for k in range(n):
        if (
            turns[k] > 0
            and turns[(k + 1) % n] < 0
            and turns[(k + 2) % n] > 0
        ):
            return BoundaryPattern(
                PatternKind.CONVEX_REFLEX_CONVEX,
                k,
                (
                    loop.vertices[k],
                    loop.vertices[(k + 1) % n],
                    loop.vertices[(k + 2) % n],
                ),
            )
    return None


def euler_characteristic(cells: Iterable[Cell]) -> int:
    cell_set = frozenset(cells)
    verts = set()
    edges = set()
    for cell in cell_set:
        verts.update(cell.vertices())
        for a, b in cell.edges():
            edges.add((a, b) if a < b else (b, a))
    return len(verts) - len(edges) + len(cell_set)


def connected_components(cells: Iterable[Cell]) -> int:
    """Components under vertex connectivity (cells sharing even one corner
    are connected, matching the topology of the closed union)."""
    cell_list = list(frozenset(cells))
    parent = list(range(len(cell_list)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: Dict[Vertex, int] = {}
    for idx, cell in enumerate(cell_list):
        for v in cell.vertices():
            if v in owner:
                ra, rb = find(owner[v]), find(idx)
                if ra != rb:
                    parent[ra] = rb
            else:
                owner[v] = idx
    return len({find(k) for k in range(len(cell_list))})


def is_simply_connected(cells: Iterable[Cell]) -> bool:
    """True when the region's closed union has no independent 1-cycles
    (Euler characteristic equals the component count)."""
    cell_set = frozenset(cells)
    if not cell_set:
        return True
    return euler_characteristic(cell_set) == connected_components(cell_set)
