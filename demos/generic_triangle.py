#!/usr/bin/env python3
"""Walk one generic triangle through the paper's theorem.

The theorem: a triangle whose angles and sides satisfy no linear relation
with small integer coefficients cuts into m congruent triangles only when
m = n^2, and then only into the standard dissection (a grid of n^2 copies
of itself).  This script takes the triangle with sides

    a = 1/2*sqrt(1 + sqrt(2)),  b = 1/2*sqrt(1 + sqrt(3)),  c = 1

and checks each part with exact arithmetic:

  1. certification: no relation c1*alpha + c2*beta + c3*pi = 0 among the
     angles up to height 12, and none among a, b, 1, sqrt(2), sqrt(3),
     sqrt(5) up to height 8 (what ``equicut analyze`` reports).  Relations
     of larger height are not ruled out;
  2. the sweep: an exhaustive search with the similar tile (the region
     shrunk by 1/sqrt(m)) for every m = 2..16.  Tiles of other shapes are
     not searched.  The length rule cuts every non-square m at the root;
  3. the results: one dissection at each square m, and it is standard.

Usage:
    python3 generic_triangle.py
"""

from equicut.dissect import canonical_triangle, is_standard, verify_dissection
from equicut.literals import format_number, parse_number
from equicut.relations import find_angle_relation, find_side_relation
from equicut.search import SearchSpec, search_dissections, similar_tile
from equicut.trispace import angles_from_sides

A = "1/2*sqrt(1 + sqrt(2))"
B = "1/2*sqrt(1 + sqrt(3))"


def main():
    a, b = parse_number(A), parse_number(B)
    region = canonical_triangle(a, b)
    print(f"region sides: ({format_number(a)}, {format_number(b)}, 1)")
    vertices = ", ".join(f"({format_number(p.x)}, {format_number(p.y)})" for p in region.vertices)
    print(f"region vertices: {vertices}")
    print()

    print("1. certification")
    alpha, beta, _ = angles_from_sides(a, b)
    angles = find_angle_relation(alpha, beta, 12)
    sides = find_side_relation(a, b, 8, (1, 2, 3, 5))
    print(f"   angles (alpha, beta, pi): {angles.status.value} at height {angles.height}, "
          f"certified at {angles.precision_bits} bits")
    print(f"   sides ({', '.join(sides.columns)}): {sides.status.value} at height {sides.height}")
    print()

    print("2. similar-tile search, m = 2..16")
    print(f"   {'m':>3}  {'nodes':>5}  {'found':>5}  {'complete':>8}  notes")
    found = {}
    for m in range(2, 17):
        out = search_dissections(SearchSpec(region=region, tile=similar_tile(region, m), m=m))
        if out.nodes == 0 and out.stats["cuts"]["lengths"]:
            note = "cut at the root: a side is no sum of tile sides"
        else:
            note = f"{out.stats['cuts']['lengths']} length cuts"
        print(f"   {m:>3}  {out.nodes:>5}  {len(out.dissections):>5}  {str(out.complete):>8}  {note}")
        if out.dissections:
            found[m] = out.dissections
    print()

    print("3. the results")
    for m, dissections in found.items():
        (d,) = dissections
        print(f"   m = {m}: {len(dissections)} dissection, standard: {is_standard(d)}, "
              f"verified: {verify_dissection(d).ok}")
    first = found[4][0]
    print("   the pieces at m = 4:")
    for piece in first.pieces:
        print("     " + ", ".join(f"({format_number(p.x)}, {format_number(p.y)})" for p in piece.vertices))


if __name__ == "__main__":
    main()
