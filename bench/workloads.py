"""The benchmark's four workloads: search, verify, relations, kernel.

A workload turns a seed into one *round*: a fixed list of operations, each
one call of a public equicut entry point.  A run repeats whole rounds, so
every run attempts the same operations in the same proportions, whatever
its seed or length.  The seed picks the order of a round and the sampled
numbers in it.  It never picks the shape or size of an operation, so the
cost of a round does not depend on it.

Each operation also says how to fingerprint its output (cheap and exact;
every repeat of an operation must match its first answer) and how to check
that first answer with the independent oracles in ``oracles.py``.  Each
workload's ``selftest`` feeds its checks deliberately wrong outputs and
returns the ones that were wrongly accepted.

Program calls go through module attributes (``equicut.cli.main``) rather
than names bound at import, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import equicut
import equicut.cli
import mpmath

import oracles

# name: (a**2, b**2, kind, legs) for the triangle with sides (a, b, 1).
TRIANGLES = {
    "equilateral": (Fraction(1), Fraction(1), "other", None),
    "right-isoceles": (Fraction(1, 2), Fraction(1, 2), "right", (1, 1)),
    "30-60-90": (Fraction(3, 4), Fraction(1, 4), "30-60-90", None),
    "scalene-7/8,3/4": (Fraction(49, 64), Fraction(9, 16), "other", None),
    "legs-1:2": (Fraction(4, 5), Fraction(1, 5), "right", (1, 2)),
}

# Piece counts searched with the similar tile.  Square m yield results that
# the search re-verifies; non-square m need the deeper 1/sqrt(m) tower.
# 30-60-90 at m = 9 (986 nodes, about 20 s) is left out: one instance would
# outlast a whole run.  The round is kept near 5 s so a run holds several.
SEARCH_COUNTS = {
    "equilateral": (2, 3, 4, 5, 9),
    "right-isoceles": (2, 3, 4, 8),
    "30-60-90": (2, 3, 4),
    "scalene-7/8,3/4": (2, 3, 4, 5),
    "legs-1:2": (2, 3, 4, 5),
}

# Standard-dissection order per triangle.  The two triangles whose
# coordinates need only one square root verify about three times faster,
# so they get a larger n and every file costs about the same.
VERIFY_ORDER = {
    "equilateral": 8,
    "right-isoceles": 12,
    "30-60-90": 8,
    "scalene-7/8,3/4": 8,
    "legs-1:2": 12,
}
# Each triangle's standard file is verified beside one corrupted copy; the
# kind of corruption is fixed per triangle, so a round's cost does not
# depend on the seed.
VERIFY_CORRUPTION = {
    "equilateral": "moved",
    "right-isoceles": "deleted",
    "30-60-90": "shrunk",
    "scalene-7/8,3/4": "deleted",
    "legs-1:2": "moved",
}

ANGLE_HEIGHT = 12
SIDE_HEIGHT = 8
SIDE_BASIS = (1, 2, 3, 5)
FAILING_BASIS = (1, 2, 3, 5, 7)
SAMPLED_ANGLE_OPS = 30  # the typical relation answer: a fast, sampled angle call
SAMPLED_SIDE_OPS = 5


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    fingerprint: Callable[[object], object]
    check: Callable[[object], list]
    # (exception type, text its message contains) for an operation that
    # fails every time; any other exception is a check failure.
    expect_error: Optional[tuple] = None


@dataclass
class Workload:
    ops: list
    selftest: Callable[[dict], list]
    close: Callable[[], None] = lambda: None


def exact_sides(a2: Fraction, b2: Fraction):
    return equicut.sqrt_adjoin(a2), equicut.sqrt_adjoin(b2)


def float_region(a2: Fraction, b2: Fraction):
    """The canonical placement (0,0), (1,0), apex, computed in floats."""
    x = (1 + float(b2) - float(a2)) / 2
    return [(0.0, 0.0), (1.0, 0.0), (x, (float(b2) - x * x) ** 0.5)]


def _rejects(problems: list, what: str, check, output) -> None:
    """Record ``what`` when ``check`` accepts the deliberately wrong output."""
    if not check(output):
        problems.append(what)


# ---------------------------------------------------------------------------
# search


def search_op(name: str, m: int) -> Op:
    a2, b2, kind, legs = TRIANGLES[name]
    region = equicut.canonical_triangle(*exact_sides(a2, b2))
    tile = equicut.similar_tile(region, m)
    region_f = float_region(a2, b2)
    tile_f = [s / m**0.5 for s in (float(a2) ** 0.5, float(b2) ** 0.5, 1.0)]

    def call():
        return equicut.search_dissections(equicut.SearchSpec(region=region, tile=tile, m=m))

    def fingerprint(out):
        pieces = tuple(
            tuple((v.x.raw, v.y.raw) for v in p.vertices)
            for d in out.dissections
            for p in d.pieces
        )
        return out.complete, out.nodes, out.note, len(out.dissections), pieces

    def check(out):
        problems = []
        if not out.complete:
            problems.append("search did not complete")
        if bool(out.dissections) != oracles.rep_tile_exists(kind, legs, m):
            problems.append(
                f"{len(out.dissections)} results, but the classification says "
                f"a dissection {'exists' if not out.dissections else 'cannot exist'}"
            )
        for d in out.dissections:
            pieces = [[(float(v.x), float(v.y)) for v in p.vertices] for p in d.pieces]
            problems += oracles.dissection_problems(region_f, pieces, m, tile_f)
        return problems

    return Op(f"search {name} m={m}", call, fingerprint, check)


def search(seed: int, workdir: Path) -> Workload:
    ops = [search_op(name, m) for name, counts in SEARCH_COUNTS.items() for m in counts]
    random.Random(seed).shuffle(ops)

    def selftest(first: dict) -> list:
        problems = []
        by_label = {ops[i].label: (ops[i], out) for i, out in first.items()}
        op4, out4 = by_label["search right-isoceles m=4"]
        op2, _ = by_label["search equilateral m=2"]
        d = out4.dissections[0]
        moved = list(d.pieces)
        p = moved[0]
        moved[0] = equicut.Triangle(
            equicut.Pt(p.va.x + Fraction(1, 1000), p.va.y), p.vb, p.vc
        )
        rep = dataclasses.replace
        _rejects(problems, "search: a piece moved by 1/1000", op4.check,
                 rep(out4, dissections=[rep(d, pieces=tuple(moved))]))
        _rejects(problems, "search: a piece deleted", op4.check,
                 rep(out4, dissections=[rep(d, pieces=d.pieces[1:])]))
        _rejects(problems, "search: an incomplete search", op4.check, rep(out4, complete=False))
        _rejects(problems, "search: results where none can exist", op2.check, out4)
        _rejects(problems, "search: no results where one must exist", op4.check,
                 rep(out4, dissections=[]))
        return problems

    return Workload(ops, selftest)


# ---------------------------------------------------------------------------
# verify


def _moved(d, rng: random.Random):
    """Move a random vertex of a random piece by 1/1000 in a direction that
    changes the piece's area, so the areas can no longer add up."""
    idx, k = rng.randrange(d.piece_count), rng.randrange(3)
    verts = list(d.pieces[idx].vertices)
    a, b = (verts[j] for j in range(3) if j != k)
    delta = Fraction(1, 1000)
    v = verts[k]
    if not (b - a).y.is_zero():
        verts[k] = equicut.Pt(v.x + delta, v.y)
    else:
        verts[k] = equicut.Pt(v.x, v.y + delta)
    pieces = list(d.pieces)
    pieces[idx] = equicut.Triangle(*verts)
    return equicut.Dissection(d.region, pieces)


def _deleted(d, rng: random.Random):
    idx = rng.randrange(d.piece_count)
    return equicut.Dissection(d.region, d.pieces[:idx] + d.pieces[idx + 1 :])


def _shrunk(d, rng: random.Random):
    """Replace a random piece by its half-size copy about its centroid."""
    idx = rng.randrange(d.piece_count)
    verts = d.pieces[idx].vertices
    cx = (verts[0].x + verts[1].x + verts[2].x) / 3
    cy = (verts[0].y + verts[1].y + verts[2].y) / 3
    half = Fraction(1, 2)
    small = equicut.Triangle(*(equicut.Pt(cx + (v.x - cx) * half, cy + (v.y - cy) * half) for v in verts))
    pieces = list(d.pieces)
    pieces[idx] = small
    return equicut.Dissection(d.region, pieces)


CORRUPTIONS = {"moved": _moved, "deleted": _deleted, "shrunk": _shrunk}


def _verify_op(label: str, path: Path, expected: int) -> Op:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = equicut.cli.main(["verify", str(path)])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        word = "valid:" if expected == 0 else "invalid:"
        problems = []
        if code != expected:
            problems.append(f"exit code {code}, the file was built with exit code {expected}")
        if not text.startswith(word):
            problems.append(f"report does not start with {word!r}")
        return problems

    return Op(label, call, lambda out: out, check)


def verify(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, (a2, b2, _, _) in TRIANGLES.items():
        n = VERIFY_ORDER[name]
        std = equicut.standard_from_region(equicut.canonical_triangle(*exact_sides(a2, b2)), n)
        kind = VERIFY_CORRUPTION[name]
        files = {"standard": (std, 0), kind: (CORRUPTIONS[kind](std, rng), 1)}
        for variant, (d, expected) in files.items():
            path = workdir / f"{name.replace('/', '_').replace(':', '_')}_n{n}_{variant}.json"
            path.write_text(equicut.dissection_to_json_str(d))
            ops.append(_verify_op(f"verify {name} n={n} {variant}", path, expected))
    rng.shuffle(ops)

    def selftest(first: dict) -> list:
        problems = []
        for i, (code, text) in first.items():
            _rejects(problems, f"verify: flipped exit code for {ops[i].label}", ops[i].check,
                     (1 - code, text))
        return problems

    def close():
        for op_path in workdir.glob("*.json"):
            op_path.unlink()

    return Workload(ops, selftest, close)


# ---------------------------------------------------------------------------
# relations


def _relation_fingerprint(out):
    members = tuple(sorted((k, v.terms) for k, v in out.memberships.items()))
    return (
        out.status,
        tuple(out.witnesses),
        tuple(out.candidates),
        tuple(out.unresolved),
        members,
        out.precision_bits,
    )


def _relation_check(values_of, height: int, exact: bool, keep=None, sides=None, basis=()):
    """Check a RelationResult against the brute-force relation set of the
    mpmath values that ``values_of()`` returns.  ``sides`` (exact inputs
    only) maps each side name to its squared length; the side must be
    reported as a member of the field spanned by the square roots of the
    squarefree ``basis`` exactly when it lies in it.  The oracle runs on
    the first check, after the timed phase."""
    S = equicut.RelationStatus
    cache = {}

    def check(out):
        if not cache:
            cache["values"] = values_of()
            cache["expected"] = oracles.relations_by_brute_force(cache["values"], height, keep)
        values, expected = cache["values"], cache["expected"]
        problems = []
        reported = list(out.witnesses) + list(out.candidates) + list(out.unresolved)
        for vec in reported:
            if not oracles.vanishes(vec, values):
                problems.append(f"reported relation {vec} does not vanish")
        if set(reported) != expected or len(reported) != len(expected):
            problems.append(
                f"{len(reported)} relations reported, brute force finds {len(expected)}"
            )
        if out.unresolved:
            problems.append("relations left unresolved")
        found = sorted(out.memberships)
        if sides is not None:
            want = sorted(
                name for name, x2 in sides.items()
                if oracles.squarefree_part(x2.numerator * x2.denominator) in basis
            )
            if found != want:
                problems.append(f"memberships for {found}, expected {want}")
            for name, member in out.memberships.items():
                side = values[0 if name == "a" else 1]
                if abs(oracles.radical_sum(member.terms) - side) > oracles.ZERO_TOL:
                    problems.append(f"membership of {name} does not evaluate to the side")
        elif found:
            problems.append("memberships reported for numeric sides")
        if exact and (expected or out.memberships):
            want_status = S.FOUND_CERTIFIED
        elif expected:
            want_status = S.FOUND_CANDIDATE
        else:
            want_status = S.NONE_UP_TO_HEIGHT
        if out.status != want_status:
            problems.append(f"status {out.status.value}, expected {want_status.value}")
        return problems

    return check


def _angle_op(label: str, a, b, a2: Fraction, b2: Fraction) -> Op:
    def call():
        alpha, beta, _ = equicut.angles_from_sides(a, b)
        return equicut.find_angle_relation(alpha, beta, ANGLE_HEIGHT)

    check = _relation_check(lambda: oracles.angle_values(a2, b2), ANGLE_HEIGHT, exact=False)
    return Op(label, call, _relation_fingerprint, check)


def _side_op(label, a, b, a2, b2, basis=SIDE_BASIS, exact=True, expect_error=None) -> Op:
    def call():
        return equicut.find_side_relation(a, b, SIDE_HEIGHT, basis)

    norm = sorted({oracles.squarefree_part(d) for d in basis})

    check = _relation_check(
        lambda: oracles.side_values(a2, b2, norm), SIDE_HEIGHT, exact,
        keep=lambda c: c[0] != 0 or c[1] != 0,
        sides={"a": a2, "b": b2} if exact else None, basis=norm,
    )
    return Op(label, call, _relation_fingerprint, check, expect_error)


def _sample_sides(rng: random.Random):
    """(a, b) uniform over 0 < a, b < 1 < a + b, as 53-bit dyadic rationals."""
    while True:
        a = Fraction(rng.getrandbits(53), 1 << 53)
        b = Fraction(rng.getrandbits(53), 1 << 53)
        if 0 < a < 1 and 0 < b < 1 and a + b > 1:
            return a, b


def relations(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for name, (a2, b2, _, _) in TRIANGLES.items():
        a, b = exact_sides(a2, b2)
        ops.append(_angle_op(f"angles {name}", a, b, a2, b2))
        ops.append(_side_op(f"sides {name}", a, b, a2, b2))
    for k in range(SAMPLED_ANGLE_OPS):
        a, b = _sample_sides(rng)
        ops.append(_angle_op(f"angles sampled {k}", a, b, a * a, b * b))
        if k < SAMPLED_SIDE_OPS:
            num_a, num_b = equicut.NumericReal.from_exact(a), equicut.NumericReal.from_exact(b)
            ops.append(_side_op(f"sides sampled {k}", num_a, num_b, a * a, b * b, exact=False))
    # Fails today: 17**7 combinations exceed the sweep's cap, so
    # relations._sweep raises ValueError before it starts.
    a2, b2, _, _ = TRIANGLES["scalene-7/8,3/4"]
    ops.append(
        _side_op("sides scalene-7/8,3/4 basis 1,2,3,5,7", *exact_sides(a2, b2), a2, b2,
                 basis=FAILING_BASIS,
                 expect_error=(ValueError, "combination space too large"))
    )
    rng.shuffle(ops)

    def selftest(first: dict) -> list:
        problems = []
        by_label = {ops[i].label: (ops[i], out) for i, out in first.items()}
        op, out = by_label["angles equilateral"]
        rep = dataclasses.replace
        first_vec = out.candidates[0]
        _rejects(problems, "relations: a candidate dropped", op.check,
                 rep(out, candidates=out.candidates[1:]))
        _rejects(problems, "relations: a candidate that does not vanish", op.check,
                 rep(out, candidates=[(first_vec[0] + 1,) + first_vec[1:]] + out.candidates[1:]))
        _rejects(problems, "relations: no relation claimed for the equilateral", op.check,
                 rep(out, candidates=[], status=equicut.RelationStatus.NONE_UP_TO_HEIGHT))
        op, out = by_label["angles sampled 0"]
        _rejects(problems, "relations: a relation claimed for a sampled triangle", op.check,
                 rep(out, candidates=[(1, -1, 0)], status=equicut.RelationStatus.FOUND_CANDIDATE))
        op, out = by_label["sides scalene-7/8,3/4"]
        wrong = dict(out.memberships)
        wrong["a"] = equicut.KElement.from_rational(Fraction(7, 9))
        _rejects(problems, "relations: a wrong side membership", op.check, rep(out, memberships=wrong))
        return problems

    return Workload(ops, selftest)


# ---------------------------------------------------------------------------
# kernel

# Tower shapes.  A shape lists, for each tower, the radicands in the order
# they are adjoined and whether the tower ends with a nested sqrt(v*v + 1).
# "shared" triples are built in one FieldBuilder, so every operation stays
# in one context; the others are built apart, and their differing radicand
# orders send each operation through TowerReal._merge and
# FieldBuilder.embed.
KERNEL_TRIPLES = [
    # (count per round, shared, ((radicands, nested) for x, y, z))
    (4, True, (((2, 3), 0), ((2, 3), 0), ((2, 3), 0))),
    (4, True, (((5, 7), 0), ((5, 7), 0), ((5, 7), 0))),
    (8, True, (((2, 3), 1), ((2, 3), 0), ((2, 3), 0))),
    (8, True, (((5, 7), 1), ((5, 7), 0), ((5, 7), 0))),
    (3, False, (((2, 3), 0), ((3, 2), 0), ((2, 3), 0))),
    (2, False, (((2, 3, 5), 0), ((5, 3, 2), 0), ((3, 5, 2), 0))),
    (3, False, (((2,), 1), ((3,), 0), ((2, 3), 0))),
    (3, False, (((2, 3), 1), ((3, 2), 0), ((2,), 0))),
    (2, False, (((2, 3), 1), ((3, 2), 1), ((2, 3), 0))),
    (3, False, (((2,), 1), ((2,), 1), ((3,), 0))),
]
# (count per round, (radicands, nested)) for literal round trips.
KERNEL_LITERALS = [(3, ((2, 3, 5), 0)), (3, ((2, 3), 1)), (2, ((3,), 1))]
# Fast operations (literals and flat shared triples) balance the merging
# triples, so the median answer is a nested shared triple.


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 9))


def _recipe(rng: random.Random, radicands, nested):
    return _coeff(rng), tuple((_coeff(rng), r) for r in radicands), bool(nested)


def build_tower(recipe, builder=None):
    """The tower a recipe describes, built by equicut's own arithmetic."""
    c0, terms, nested = recipe
    sqrt = builder.sqrt if builder is not None else equicut.sqrt_adjoin
    v = equicut.TowerReal.from_rational(c0)
    for c, r in terms:
        v = v + c * sqrt(r)
    if nested:
        v = v + sqrt(v * v + 1)
    return v


def _values_fingerprint(values):
    return tuple((v.ctx.radicands, v.raw) for v in values)


def _identity_op(label: str, recipes, shared: bool) -> Op:
    builder = equicut.FieldBuilder() if shared else None
    x, y, z = (build_tower(r, builder) for r in recipes)

    def call():
        s = (x + y) + z
        p = x * y
        d = x * (y + z)
        q = (x + y) * (x - y)
        flags = (
            s == x + (y + z),
            p == y * x,
            d == x * y + x * z,
            q == x * x - y * y,
            x - x == 0,
            x / x == 1,
        )
        return flags, (s, p, d, q)

    def check(out):
        flags, values = out
        X, Y, Z = (oracles.recipe_value(r) for r in recipes)
        with mpmath.workdps(oracles.DIGITS + 10):
            wanted = (X + Y + Z, X * Y, X * (Y + Z), (X + Y) * (X - Y))
        problems = [f"identity {k} fails" for k, ok in enumerate(flags) if ok is not True]
        for k, (v, want) in enumerate(zip(values, wanted)):
            if not oracles.encloses(v.enclosure(160), want):
                problems.append(f"value {k} does not match the recipe")
        return problems

    def fingerprint(out):
        return out[0], _values_fingerprint(out[1])

    return Op(label, call, fingerprint, check)


def _literal_op(label: str, recipe) -> Op:
    value = build_tower(recipe)

    def call():
        text = equicut.format_number(value)
        parsed = equicut.parse_number(text)
        return text, equicut.format_number(parsed), parsed == value, parsed

    def check(out):
        text, again, same, parsed = out
        want = oracles.recipe_value(recipe)
        problems = []
        if again != text:
            problems.append("formatting the parsed value changed the literal")
        if same is not True:
            problems.append("the parsed value differs from the original")
        if abs(oracles.literal_value(text) - want) > oracles.ZERO_TOL:
            problems.append(f"literal {text!r} does not evaluate to the recipe")
        if not oracles.encloses(parsed.enclosure(160), want):
            problems.append("the parsed value does not match the recipe")
        return problems

    def fingerprint(out):
        return out[0], out[1], out[2], _values_fingerprint([out[3]])

    return Op(label, call, fingerprint, check)


def kernel(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for count, shared, shape in KERNEL_TRIPLES:
        kind = "shared" if shared else "merge"
        tag = " ".join(f"{''.join(map(str, r))}{'n' if n else ''}" for r, n in shape)
        for k in range(count):
            recipes = [_recipe(rng, r, n) for r, n in shape]
            ops.append(_identity_op(f"identities {kind} {tag} #{k}", recipes, shared))
    for count, (radicands, nested) in KERNEL_LITERALS:
        tag = f"{''.join(map(str, radicands))}{'n' if nested else ''}"
        for k in range(count):
            ops.append(_literal_op(f"literal {tag} #{k}", _recipe(rng, radicands, nested)))
    rng.shuffle(ops)

    def selftest(first: dict) -> list:
        problems = []
        for i, out in first.items():
            op = ops[i]
            if op.label.startswith("identities"):
                flags, values = out
                _rejects(problems, f"kernel: a failed identity in {op.label}", op.check,
                         ((False,) + flags[1:], values))
                off = (values[0] + Fraction(1, 10**30),) + values[1:]
                _rejects(problems, f"kernel: a value off by 1e-30 in {op.label}", op.check,
                         (flags, off))
            else:
                text, again, same, parsed = out
                wrong = "1/7 + " + text
                _rejects(problems, f"kernel: a wrong literal in {op.label}", op.check,
                         (wrong, wrong, same, parsed))
        return problems

    return Workload(ops, selftest)


WORKLOADS = {"search": search, "verify": verify, "relations": relations, "kernel": kernel}
