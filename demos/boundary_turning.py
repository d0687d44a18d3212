#!/usr/bin/env python3
"""Walk the boundary of regions built from unit triangles and add up
the exterior turning.

Regions here live on the triangular lattice: each cell is an upward or
downward unit triangle addressed by (i, j).  Walking a boundary loop
counterclockwise, each vertex turns by a multiple of 60 degrees; in
units of 60 degrees the possible steps are -2, -1, +1, +2.  For any
simply connected region the steps on the outer loop always sum to +6
(one full turn), however wiggly the outline is -- and that forces the
outline to contain one of two local patterns: two adjacent convex
corners, or a convex-reflex-convex triple with specific turns.  Those
patterns are what make cut-and-paste arguments on such regions tick.

This script builds a few regions (a big triangle, a parallelogram-ish
blob, and one with a hole), prints each loop's turning sequence, and
finds the guaranteed pattern on the outer loop.

Usage:
    python3 boundary_turning.py [--out DIR]
"""

import argparse
import os

from equicut.boundary import (
    Cell,
    boundary_loops,
    find_boundary_pattern,
    is_simply_connected,
    standard_cells,
)
from equicut.svgout import lattice_region_svg

REGIONS = [
    ("triangle-n3", sorted(standard_cells(3))),
    ("rhombus", [Cell(0, 0, True), Cell(0, 0, False),
                 Cell(1, 0, True), Cell(1, 0, False)]),
    ("zigzag", [Cell(0, 0, True), Cell(0, 0, False), Cell(0, 1, True),
                Cell(1, 0, True), Cell(1, 0, False), Cell(2, 0, True)]),
    ("holed", [c for c in sorted(standard_cells(4))
               if c != Cell(1, 1, True)]),
]


def show(name, cells, out_dir):
    loops = boundary_loops(cells)
    simply = is_simply_connected(cells)
    print(f"== {name}: {len(cells)} cells, {len(loops)} loop(s), "
          f"simply connected: {simply}")
    for k, loop in enumerate(loops):
        kind = "outer" if loop.total_turning() > 0 else "hole"
        turns = " ".join(f"{t:+d}" for t in loop.turns)
        print(f"  {kind} loop: turning {loop.total_turning():+d}  [{turns}]")
    pattern = find_boundary_pattern(loops[0])
    if pattern is None:
        print("  no convex-corner pattern on the outer loop")
    else:
        print(f"  outer-loop pattern: {pattern.kind.value} at "
              f"vertices {pattern.vertices}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{name}.svg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lattice_region_svg(cells))
        print(f"  wrote {path}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="DIR", help="write SVG files here")
    args = parser.parse_args()
    for name, cells in REGIONS:
        show(name, cells, args.out)
    print("Outer loops of simply connected regions always turn by +6.")


if __name__ == "__main__":
    main()
