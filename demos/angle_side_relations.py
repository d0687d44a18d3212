#!/usr/bin/env python3
"""Hunt for hidden integer relations among a triangle's angles and sides.

A triangle with sides (a, b, 1) is "special" in two independent ways:

  Sigma1: its angles satisfy c1*alpha + c2*beta + c3*pi = 0 with small
          integers (c1, c2) != (0, 0), i.e. the angles are commensurable;
  Sigma2: its sides satisfy q1*a + q2*b + sum n_d*sqrt(d) = 0 with small
          integers (q1, q2) != (0, 0) over a fixed squarefree basis, i.e.
          the sides are linearly dependent on {1, sqrt(2), sqrt(3), sqrt(5)}.

Famous right triangles hit Sigma1 at tiny heights.  A generic triangle
hits neither: the finder then certifies, with interval arithmetic at a
stated precision, that no relation of bounded height exists.

The surprise here is the innocent-looking scalene triangle with sides
(1, 7/8, 3/4).  Its angles are secretly commensurable:

    3*alpha + 4*beta = 2*pi   exactly,

because cos(alpha) = 17/32 and cos(beta) = 11/16 give, via the triple-
and quadruple-angle formulas, cos(3*alpha) = cos(4*beta) = -8143/8192
with opposite sines.  The finder spots the candidate (3, 4, -2) at
height 12 without being told anything.

Usage:
    python3 angle_side_relations.py [--samples N] [--seed S]
"""

import argparse
import random
from fractions import Fraction

from equicut.exact import sqrt_adjoin
from equicut.relations import (
    RelationStatus,
    find_angle_relation,
    find_side_relation,
)
from equicut.trispace import angles_from_sides, sample_side_fractions

NAMED = [
    ("equilateral", 1, 1),
    ("right-isoceles", sqrt_adjoin(Fraction(1, 2)), sqrt_adjoin(Fraction(1, 2))),
    ("30-60-90", sqrt_adjoin(Fraction(3, 4)), Fraction(1, 2)),
    ("scalene-7/8-3/4", Fraction(7, 8), Fraction(3, 4)),
]


def describe(result):
    if result.status == RelationStatus.FOUND_CERTIFIED:
        w = result.witnesses[0]
        return f"certified relation {tuple(w)}"
    if result.status == RelationStatus.FOUND_CANDIDATE:
        return f"candidate relation {result.candidates[0]}"
    if result.status == RelationStatus.NONE_UP_TO_HEIGHT:
        return (f"no relation up to height {result.height} "
                f"(certified at {result.precision_bits} bits)")
    return "undecided"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("named triangles, angle relations up to height 12:")
    for name, a, b in NAMED:
        alpha, beta, _ = angles_from_sides(a, b)
        res = find_angle_relation(alpha, beta, height=12)
        print(f"  {name:<18} {describe(res)}")
    print()

    print("named triangles, side relations up to height 8 over {1,2,3,5}:")
    for name, a, b in NAMED:
        res = find_side_relation(a, b, height=8)
        print(f"  {name:<18} {describe(res)}")
    print()

    rng = random.Random(args.seed)
    hits = undecided = 0
    for _ in range(args.samples):
        a, b = sample_side_fractions(rng)
        alpha, beta, _ = angles_from_sides(a, b)
        res = find_angle_relation(alpha, beta, height=12)
        if res.status in (RelationStatus.FOUND_CERTIFIED,
                          RelationStatus.FOUND_CANDIDATE):
            hits += 1
        elif res.status == RelationStatus.UNDECIDED:
            undecided += 1
    print(f"{args.samples} random triangles: {hits} with an angle relation, "
          f"{undecided} undecided, rest certified relation-free.")
    print("Randomly sampled triangles are generic: special ones have measure zero.")


if __name__ == "__main__":
    main()
