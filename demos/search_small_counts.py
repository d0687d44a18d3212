#!/usr/bin/env python3
"""Exhaustively search for dissections of a triangle into m congruent
triangular tiles, for small m.

For each (region, m) pair the search places one similar tile of the right
area at a time, always at the uncovered corner with the smallest angle, so
every dissection is found exactly once.  Three sound rules cut branches
that cannot complete.  One of them is a length rule: an uncovered edge
between two convex corners must be a sum of whole tile sides.  A non-square
m often fails it at the root, so the search there expands no node at all;
the last column gives the node count with that rule switched off.  Small
piece counts are already interesting:

  * m=2 works only when the region is isoceles or right (cut along an
    axis of symmetry or an altitude);
  * m=3 works for the equilateral (three tiles around the center) and
    for the 30-60-90 triangle, which tiles itself;
  * m=4 always works (midpoint subdivision), and the right isoceles has
    a second, non-standard 4-piece dissection;
  * m=5 works for the right triangle with legs 1 and 2.

Usage:
    python3 search_small_counts.py [--out DIR]
"""

import argparse
import os
from fractions import Fraction

from equicut.dissect import canonical_triangle, is_standard
from equicut.exact import sqrt_adjoin
from equicut.search import SearchSpec, search_dissections, similar_tile
from equicut.svgout import dissection_svg

TRIANGLES = [
    ("equilateral", canonical_triangle(1, 1)),
    ("right-isoceles", canonical_triangle(sqrt_adjoin(Fraction(1, 2)),
                                          sqrt_adjoin(Fraction(1, 2)))),
    ("30-60-90", canonical_triangle(sqrt_adjoin(Fraction(3, 4)),
                                    Fraction(1, 2))),
    ("legs-1-2", canonical_triangle(sqrt_adjoin(Fraction(4, 5)),
                                    sqrt_adjoin(Fraction(1, 5)))),
    ("scalene-7/8-3/4", canonical_triangle(Fraction(7, 8), Fraction(3, 4))),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="DIR", help="write SVGs of the finds")
    args = parser.parse_args()

    print(f"{'region':<18}{'m':>3}  {'found':>5}  {'nodes':>6}  "
          f"{'no length rule':>14}  notes")
    print("-" * 72)
    for name, region in TRIANGLES:
        for m in (2, 3, 4, 5):
            spec = SearchSpec(region=region, tile=similar_tile(region, m), m=m)
            out = search_dissections(spec)
            spec.prune_lengths = False
            without = search_dissections(spec)
            notes = []
            if not out.complete:
                notes.append("truncated")
            if any(not is_standard(d) for d in out.dissections):
                notes.append("non-standard present")
            print(f"{name:<18}{m:>3}  {len(out.dissections):>5}  "
                  f"{out.nodes:>6}  {without.nodes:>14}  {', '.join(notes)}")

            if args.out and out.dissections:
                os.makedirs(args.out, exist_ok=True)
                for k, d in enumerate(out.dissections):
                    path = os.path.join(args.out, f"{name.split('-')[0]}_m{m}_{k}.svg")
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(dissection_svg(d))
        print("-" * 72)


if __name__ == "__main__":
    main()
