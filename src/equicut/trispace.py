"""Triangle parameter spaces, conversion maps, and seeded samplers.

Triangles are normalized two ways:

* side form -- side lengths (a, b, 1); the pair (a, b) lives in the open
  region cut out by the strict triangle inequalities.
* angle form -- angles (alpha, beta, pi - alpha - beta) with alpha, beta > 0
  and alpha + beta < pi.

Sides convert to angles by the law of cosines: the cosines are exact, and
each angle is a rigorous ``acos`` enclosure that keeps its exact cosine.
Angles (u*pi, v*pi) are kept as the rational pair (u, v).  Samplers draw
dyadic rationals with 53 random bits per coordinate from a caller-seeded
generator and reject points outside the open region, so results are
reproducible and every accepted sample satisfies its constraints exactly.

Sampled side pairs are returned at the *numeric* tier (``NumericReal``): a
random triangle plays the role of a generic real point, so downstream
relation detection treats it by refinement rather than by field membership.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Union

from .exact import TowerReal, exactify
from .intervals import NumericReal, acos_numeric, pi_interval

__all__ = [
    "angles_from_sides",
    "cosines_from_sides",
    "in_side_sample_region",
    "is_valid_angle_fractions",
    "is_valid_side_pair",
    "pi_numeric",
    "sample_angle_fractions",
    "sample_side_fractions",
    "sample_side_triangle",
]

ExactValue = Union[TowerReal, Fraction, int]

_SAMPLE_BITS = 53


def pi_numeric() -> NumericReal:
    """pi, enclosed by ``pi_interval``, as the angle whose exact cosine is -1."""
    return NumericReal(lambda bits: pi_interval(bits), cosine=TowerReal.from_rational(-1))


def is_valid_side_pair(a: ExactValue, b: ExactValue) -> bool:
    """Strict triangle inequalities for sides (a, b, 1)."""
    a, b = exactify(a), exactify(b)
    return (
        a.sign() > 0
        and b.sign() > 0
        and (a + b - 1).sign() > 0
        and (a + 1 - b).sign() > 0
        and (b + 1 - a).sign() > 0
    )


def in_side_sample_region(a: Fraction, b: Fraction) -> bool:
    """The sampler's target region: the open unit box above the diagonal.

    Inside it the third side 1 is strictly the longest, and all triangle
    inequalities hold automatically.
    """
    return 0 < a < 1 and 0 < b < 1 and a + b > 1


def is_valid_angle_fractions(u: Fraction, v: Fraction) -> bool:
    """Validity of angles (u*pi, v*pi): strictly positive, summing below pi."""
    return u > 0 and v > 0 and u + v < 1


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.getrandbits(_SAMPLE_BITS), 1 << _SAMPLE_BITS)


def sample_side_fractions(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Draw (a, b) uniformly from the side sample region (exact dyadics)."""
    while True:
        a, b = _dyadic(rng), _dyadic(rng)
        if in_side_sample_region(a, b):
            return a, b


def sample_side_triangle(rng: random.Random) -> tuple[NumericReal, NumericReal]:
    a, b = sample_side_fractions(rng)
    return NumericReal.from_exact(a), NumericReal.from_exact(b)


def sample_angle_fractions(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Draw (u, v) with angles (u*pi, v*pi) uniform over valid triangles."""
    while True:
        u, v = _dyadic(rng), _dyadic(rng)
        if is_valid_angle_fractions(u, v):
            return u, v


def cosines_from_sides(
    a: ExactValue, b: ExactValue
) -> tuple[TowerReal, TowerReal, TowerReal]:
    """Exact cosines of the angles opposite sides a, b and 1 respectively,
    by the law of cosines."""
    a, b = exactify(a), exactify(b)
    if not is_valid_side_pair(a, b):
        raise ValueError("side pair violates the triangle inequalities")
    cos_a = (b * b + 1 - a * a) / (2 * b)
    cos_b = (a * a + 1 - b * b) / (2 * a)
    cos_c = (a * a + b * b - 1) / (2 * a * b)
    return cos_a, cos_b, cos_c


def angles_from_sides(
    a: ExactValue, b: ExactValue
) -> tuple[NumericReal, NumericReal, NumericReal]:
    """Angles opposite a, b, 1 as rigorously refinable numeric reals, each
    carrying its exact cosine from ``cosines_from_sides``."""
    cosines = cosines_from_sides(a, b)
    angles = [acos_numeric(NumericReal.from_exact(c)) for c in cosines]
    # equal angles share one value, so each precision is enclosed once
    return tuple(angles[cosines.index(c)] for c in cosines)

