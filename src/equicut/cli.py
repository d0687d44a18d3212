"""Command-line interface.

Subcommands
-----------
analyze   commensurability report for a triangle's angles and sides
standard  write the lattice dissection of a triangle into n^2 pieces
verify    check a dissection JSON file exactly
search    exhaustively search for dissections into m congruent tiles
boundary  boundary loops, turning, and corner pattern of a lattice region
sample    empirical hit rate of relation-admitting triangles

Exit codes: 0 success, 1 falsified check, 2 usage or input error.
``analyze --precision``, an integer from 1 to ``MAX_WORK_BITS``, sets the
starting interval precision of the relation searches, and a start below 64
runs at 64; any other value is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .boundary import (
    Cell,
    boundary_loops,
    find_boundary_pattern,
    is_simply_connected,
)
from .dissect import (
    canonical_triangle,
    dissection_from_json,
    dissection_to_json_str,
    is_standard,
    standard_from_region,
    verify_dissection,
)
from .exact import MAX_WORK_BITS, RefinementLimitError, SquarefreeBoundError
from .literals import ParseError, format_k_element, format_number, parse_number
from .relations import (
    DEFAULT_ANGLE_HEIGHT,
    DEFAULT_SIDE_BASIS,
    DEFAULT_SIDE_HEIGHT,
    RelationStatus,
    find_angle_relation,
    find_angle_relation_pi_fractions,
    find_side_relation,
)
from .search import search_for_count
from .svgout import dissection_svg, lattice_region_svg
from .trispace import (
    angles_from_sides,
    sample_angle_fractions,
    sample_side_triangle,
)

_STATUS_LABEL = {
    RelationStatus.FOUND_CERTIFIED: "FoundCertified",
    RelationStatus.FOUND_CANDIDATE: "FoundCandidate",
    RelationStatus.NONE_UP_TO_HEIGHT: "NoneUpToHeight",
    RelationStatus.UNDECIDED: "Undecided",
}


class _UsageError(Exception):
    pass


def _parse_literal(text: str):
    try:
        return parse_number(text)
    except ValueError as exc:  # ParseError, or a value such as sqrt(-1)
        raise _UsageError(f"bad number literal {text!r}: {exc}") from exc


def _parse_region(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError("--region expects two comma-separated side literals a,b")
    a, b = (_parse_literal(p.strip()) for p in parts)
    try:
        return canonical_triangle(a, b), a, b
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_tile(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError("--tile expects three comma-separated side literals")
    sides = tuple(_parse_literal(p.strip()) for p in parts)
    if any(s.sign() <= 0 for s in sides):
        raise _UsageError(f"--tile sides must be positive, got {text!r}")
    return sides


def _witness_str(coeffs) -> str:
    return "(" + ", ".join(str(c) for c in coeffs) + ")"


def _relation_lines(tag: str, result) -> List[str]:
    lines = [f"{tag}: {_STATUS_LABEL[result.status]} (height {result.height})"]
    over = ", ".join(result.columns)
    for label, plural, vectors in (
        ("witness", "witnesses", result.witnesses),
        ("candidate", "candidates", result.candidates),
    ):
        for w in vectors[:3]:
            lines.append(f"  {label} {_witness_str(w)} over ({over})")
        if len(vectors) > 3:
            lines.append(f"  ... and {len(vectors) - 3} more {plural}")
    for name, member in result.memberships.items():
        lines.append(f"  membership {name} = {format_k_element(member)}")
    if result.precision_bits:
        lines.append(f"  interval precision: {result.precision_bits} bits")
    return lines


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    _, a, b = _parse_region(args.region)
    if args.height is not None and args.height < 1:
        raise _UsageError("--height must be at least 1")
    if args.basis and min(args.basis) < 1:
        raise _UsageError("--basis entries must be at least 1")
    if args.precision is not None and not 1 <= args.precision <= MAX_WORK_BITS:
        raise _UsageError(f"--precision must be between 1 and {MAX_WORK_BITS}")
    alpha, beta, _ = angles_from_sides(a, b)
    angle_height = args.height if args.height is not None else DEFAULT_ANGLE_HEIGHT
    side_height = args.height if args.height is not None else DEFAULT_SIDE_HEIGHT
    basis = tuple(args.basis) if args.basis else DEFAULT_SIDE_BASIS

    try:
        sigma1 = find_angle_relation(alpha, beta, angle_height, start_bits=args.precision)
        sigma2 = find_side_relation(a, b, side_height, basis, start_bits=args.precision)
    except (ValueError, RefinementLimitError) as exc:
        # ValueError: SearchSpaceError or SquarefreeBoundError
        raise _UsageError(str(exc)) from exc
    if args.json:
        sides = [format_number(a), format_number(b), "1"]
        report = {"region": sides, "sigma1": sigma1.to_dict(), "sigma2": sigma2.to_dict()}
        print(json.dumps(report, indent=2))
    else:
        print(f"region sides: ({format_number(a)}, {format_number(b)}, 1)")
        for tag, result in (("Sigma1 (angles)", sigma1), ("Sigma2 (sides)", sigma2)):
            print("\n".join(_relation_lines(tag, result)))
    if args.stats:
        for name, result in (("sigma1", sigma1), ("sigma2", sigma2)):
            print(json.dumps({"relation": name, **result.stats}))
    return 0


# ---------------------------------------------------------------------------
# standard


def _svg_text(dissection) -> str:
    try:
        return dissection_svg(dissection)
    except (OverflowError, ValueError) as exc:  # ValueError: a NaN view box
        raise _UsageError("cannot draw SVG: the drawing exceeds the float range") from exc


def _cmd_standard(args) -> int:
    region, _, _ = _parse_region(args.region)
    if args.n < 1:
        raise _UsageError("n must be at least 1")
    dissection = standard_from_region(region, args.n)
    print(f"standard dissection: n = {args.n}, {dissection.piece_count} pieces")
    if args.out:
        out = Path(args.out)
        stem = f"standard_n{args.n}"
        json_path = out / f"{stem}.json"
        svg = _svg_text(dissection)
        try:
            out.mkdir(parents=True, exist_ok=True)
            json_path.write_text(dissection_to_json_str(dissection))
            (out / f"{stem}.svg").write_text(svg)
        except OSError as exc:
            raise _UsageError(f"cannot write output: {exc}") from exc
        reloaded = dissection_from_json(json_path.read_text())
        if not verify_dissection(reloaded).ok:
            print("written file failed re-verification", file=sys.stderr)
            return 1
        print(f"wrote {out / (stem + '.json')} and {out / (stem + '.svg')}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    path = Path(args.file)
    try:
        data = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        dissection = dissection_from_json(data)
    except (ValueError, ParseError) as exc:
        raise _UsageError(f"bad dissection file: {exc}") from exc
    result = verify_dissection(dissection)
    if result.ok:
        standard = " (standard)" if is_standard(dissection) else ""
        print(f"valid: {dissection.piece_count} pieces{standard}")
    else:
        print(f"invalid: {len(result.failures)} failure(s)")
        for failure in result.failures:
            which = ",".join(str(i) for i in failure.pieces)
            print(f"  [{failure.kind.value}] pieces {which}: {failure.detail}")
    if args.stats:
        print(json.dumps(result.stats))
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# search

_BUDGET_FLAG = {"nodes": "--max-nodes", "results": "--max-results", "time": "--time-budget"}


def _cmd_search(args) -> int:
    region, _, _ = _parse_region(args.region)
    for flag, value in (("--pieces", args.pieces), ("--max-nodes", args.max_nodes),
                        ("--max-results", args.max_results)):
        if value is not None and value < 1:
            raise _UsageError(f"{flag} must be at least 1")
    if args.time_budget is not None and not args.time_budget > 0:
        raise _UsageError("--time-budget must be positive")
    extra = [_parse_tile(t) for t in args.tile or []]
    try:
        report = search_for_count(
            region, args.pieces, extra_tiles=extra, allow_reflections=not args.no_reflections,
            symmetry_quotient=args.quotient_symmetry, max_nodes=args.max_nodes,
            max_results=args.max_results, time_budget=args.time_budget,
        )
    except SquarefreeBoundError as exc:  # e.g. sqrt(1/m) for an m it cannot factor
        raise _UsageError(str(exc)) from exc

    out_dir: Optional[Path] = None
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot create {out_dir}: {exc}") from exc
    first_index = {}  # id(outcome) -> the index of the first tile with it
    for t_idx, tile_report in enumerate(report.reports):
        outcome = tile_report.outcome
        sides = ", ".join(format_number(s) for s in tile_report.sides)
        status = "complete"
        if not outcome.complete:
            status = f"truncated by {_BUDGET_FLAG[outcome.stats['truncated_by']]}"
        print(
            f"tile[{t_idx}] ({tile_report.kind}) sides ({sides}): "
            f"{len(outcome.dissections)} dissection(s), {status}, "
            f"{outcome.nodes} nodes"
        )
        if outcome.note:
            print(f"  note: {outcome.note}")
        if args.stats:
            print(json.dumps({"tile": t_idx, **outcome.stats}))
        first = first_index.setdefault(id(outcome), t_idx)
        if first != t_idx:
            print(f"  note: same tile as tile[{first}]; its results are counted once")
            continue
        for d_idx, dissection in enumerate(outcome.dissections):
            tag = " standard" if is_standard(dissection) else ""
            print(f"  result {t_idx}.{d_idx}:{tag} {dissection.piece_count} pieces")
            if out_dir is not None:
                stem = f"result_{t_idx}_{d_idx}"
                svg = _svg_text(dissection)
                try:
                    (out_dir / f"{stem}.json").write_text(dissection_to_json_str(dissection))
                    (out_dir / f"{stem}.svg").write_text(svg)
                except OSError as exc:
                    raise _UsageError(f"cannot write output: {exc}") from exc
    print(f"total: {report.total_dissections} dissection(s)")
    return 0


# ---------------------------------------------------------------------------
# boundary


def _parse_region_file(text: str) -> List[Cell]:
    cells = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("up", "down"):
            raise _UsageError(f"line {line_no}: expected 'row col up|down', got {raw!r}")
        try:
            row, col = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise _UsageError(f"line {line_no}: bad integers in {raw!r}") from exc
        cells.append(Cell(col, row, parts[2] == "up"))
    if not cells:
        raise _UsageError("region file contains no cells")
    if len(set(cells)) != len(cells):
        raise _UsageError("region file repeats a cell")
    return cells


def _cmd_boundary(args) -> int:
    path = Path(args.file)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    cells = _parse_region_file(text)
    loops = boundary_loops(cells)
    print(
        f"{len(cells)} cells, {len(loops)} boundary loop(s), "
        f"simply connected: {is_simply_connected(cells)}"
    )
    ok = True
    for idx, loop in enumerate(loops):
        turning = loop.total_turning()  # +6 around cells, -6 around a hole
        print(f"loop {idx} ({'outer' if turning > 0 else 'hole'}): turning {turning:+d}")
        for v, turn in zip(loop.vertices, loop.turns):
            angle_class = "convex" if turn > 0 else "reflex"
            print(f"  vertex {v}: turn {turn:+d} ({angle_class})")
        pattern = find_boundary_pattern(loop)
        if pattern is None:
            print("  pattern: none")
            if turning > 0:
                ok = False
        else:
            verts = ", ".join(str(v) for v in pattern.vertices)
            print(f"  pattern: {pattern.kind.value} at {verts}")
    if args.out:
        try:
            Path(args.out).write_text(lattice_region_svg(cells))
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise _UsageError("--count must be at least 1")
    rng = random.Random(args.seed)
    hits = 0
    undecided = 0
    for _ in range(args.count):
        try:
            if args.mode == "sides":
                a, b = sample_side_triangle(rng)
                result = find_side_relation(a, b)
            else:
                u, v = sample_angle_fractions(rng)
                result = find_angle_relation_pi_fractions(u, v)
        except (ValueError, RefinementLimitError) as exc:
            # ValueError: SearchSpaceError or SquarefreeBoundError
            raise _UsageError(str(exc)) from exc
        if result.status in (RelationStatus.FOUND_CERTIFIED, RelationStatus.FOUND_CANDIDATE):
            hits += 1
        elif result.status is RelationStatus.UNDECIDED:
            undecided += 1
    label = "Sigma2" if args.mode == "sides" else "Sigma1"
    rate = f"{hits}/{args.count} ({hits / args.count:.3f})"
    print(f"{label} hit rate: {rate}, undecided: {undecided}")
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicut",
        description="Exact dissections of a triangle into congruent triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="angle/side commensurability report for a triangle")
    p.add_argument("--region", required=True, help="sides a,b as number literals (third side 1)")
    p.add_argument("--height", type=int, default=None, help="relation height bound")
    p.add_argument(
        "--basis",
        type=lambda s: [int(x) for x in s.split(",")],
        default=None,
        help="comma-separated radicands for the side field (default "
        + ",".join(map(str, DEFAULT_SIDE_BASIS)) + ")",
    )
    p.add_argument("--precision", type=int, default=None, help="starting interval bits")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--stats", action="store_true", help="print each relation call's counters as JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("standard", help="generate the n^2-piece lattice dissection")
    p.add_argument("--region", required=True, help="sides a,b as number literals")
    p.add_argument("-n", type=int, required=True, help="subdivision order")
    p.add_argument("--out", help="directory for JSON + SVG output")
    p.set_defaults(func=_cmd_standard)

    p = sub.add_parser("verify", help="verify a dissection JSON file")
    p.add_argument("file", help="dissection JSON file")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the verifier's counters as one JSON line",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for dissections into congruent tiles")
    p.add_argument("--region", required=True, help="sides a,b as number literals")
    p.add_argument("--pieces", type=int, required=True, help="piece count m")
    p.add_argument("--tile", action="append", help="extra tile side triple s1,s2,s3 (repeatable)")
    p.add_argument(
        "--no-reflections",
        action="store_true",
        help="use only one handedness of the tile",
    )
    p.add_argument(
        "--quotient-symmetry",
        action="store_true",
        help="deduplicate results by the region symmetry group",
    )
    p.add_argument("--max-nodes", type=int, default=None, help="node budget")
    p.add_argument(
        "--max-results", type=int, default=None, help="stop after N dissections per tile"
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per tile",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print each tile's search counters as one JSON line",
    )
    p.add_argument("--out", help="directory for JSON + SVG of every result")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("boundary", help="boundary analysis of a lattice region")
    p.add_argument("file", help="region file: lines of 'row col up|down'")
    p.add_argument("--out", help="SVG output path")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("sample", help="empirical relation hit rate over sampled triangles")
    p.add_argument("--count", type=int, default=100, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument(
        "--mode",
        choices=("sides", "angles"),
        default="sides",
        help="sample side pairs (Sigma2) or angle pairs (Sigma1)",
    )
    p.set_defaults(func=_cmd_sample)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
