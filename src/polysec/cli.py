"""Command line front end.

Subcommands: validate, extend, verify, slack, factorize, fuzz, svg.
Exit codes: 0 success, 1 domain error, 2 usage error, 3 internal
certification failure.  Errors are reported as one JSON object on stderr.
All output is deterministic given (input, flags, seed); fuzz timing goes to
stderr so reports stay byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys
import time
from pathlib import Path

from . import __version__
from .compose import lower_bound_3d, ngon_3d_extension, ngon_extension
from .errors import CertificationFailure, DomainError, ParseError, PolysecError
from .errors import NoExtension, NotInPolytope
from .heptagon import heptagon_extension, invariant_sum
from .hexagon import hexagon_extension5, hexagon_ic
from .jsonio import (
    dumps,
    factorization_to_obj,
    loads,
    polygon_from_obj,
    polygon_to_obj,
    sectioned_from_obj,
    sectioned_to_obj,
    slack_to_obj,
)
from .polygon import Polygon
from .randgen import random_convex_polygon, random_point_config
from .sections import SectionedPolytope, certify, extreme_points, verify_section
from .slack import factorize_from_section, slack_matrix
from .svg import render_polygon_svg


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _parse_json(raw: bytes):
    try:
        return loads(raw.decode())
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _read_json(path: str):
    return _parse_json(_read_bytes(path))


def _load_polygon(path: str) -> Polygon:
    return polygon_from_obj(_read_json(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc}") from exc


def cmd_validate(args) -> int:
    polygon = _load_polygon(args.path)
    sys.stdout.write(dumps(polygon_to_obj(polygon)))
    return 0


def _extend(polygon: Polygon, mode: str) -> tuple[SectionedPolytope, int]:
    n = polygon.n
    if n < 6:
        raise DomainError(f"extensions are constructed for n >= 6, got {n}")
    if n == 6:
        decision = hexagon_ic(polygon)
        if decision.ic == 5:
            return hexagon_extension5(polygon), 5
        flat = [(x, y, 0) for x, y in polygon.vertices]
        return certify(SectionedPolytope(3, flat, polygon)), 6
    if n == 7:
        return heptagon_extension(polygon), 6
    if mode == "3d":
        return ngon_3d_extension(polygon), n - 1
    return ngon_extension(polygon), -((6 * n) // -7)  # "auto" and "join"


def cmd_extend(args) -> int:
    polygon = _load_polygon(args.path)
    result, bound = _extend(polygon, args.mode)
    payload = dumps(sectioned_to_obj(result))
    summary = dumps(
        {
            "dim": result.dim,
            "vertices": len(result.vertices),
            "extreme_points": len(extreme_points(result.vertices, result.dim)),
            "vertex_bound": bound,
            "lower_bound_3d": lower_bound_3d(polygon.n),
        }
    )
    if args.out is None:
        sys.stdout.write(payload)
        sys.stderr.write(summary)
    else:
        _emit(payload, args.out)
        sys.stdout.write(summary)
    return 0


def cmd_verify(args) -> int:
    s = sectioned_from_obj(_read_json(args.path))
    ok = verify_section(s)
    if ok:
        sys.stdout.write("PASS\n")
        return 0
    sys.stdout.write("FAIL: recomputed section does not match the claimed polygon\n")
    return 1


def cmd_slack(args) -> int:
    polygon = _load_polygon(args.path)
    sys.stdout.write(dumps(slack_to_obj(slack_matrix(polygon))))
    return 0


def cmd_factorize(args) -> int:
    polygon = _load_polygon(args.path)
    raw = _read_bytes(args.extension)
    s = sectioned_from_obj(_parse_json(raw))
    try:
        fact = factorize_from_section(polygon, s)  # the proof of the claim; checks R * C = S once
    except (NoExtension, NotInPolytope) as exc:
        raise DomainError("extension file fails verification") from exc
    digest = hashlib.sha256(raw).hexdigest()
    sys.stdout.write(dumps(factorization_to_obj(fact, digest)))
    return 0


def _fuzz_invariant(rng: random.Random, count: int, emit) -> None:
    for index in range(count):
        pts = random_point_config(rng, 7)
        sums = invariant_sum(pts)
        ok = (
            sums.total == 0
            and sums.sum_ab == sums.sum_gh
            and sums.sum_ef == sums.sum_cd
        )
        emit({"index": index, "ok": ok})
        if not ok:
            raise CertificationFailure(f"determinant identity failed on {pts!r}")


def _fuzz_heptagon(rng: random.Random, count: int, emit) -> None:
    for index in range(count):
        polygon = random_convex_polygon(rng, 7)
        ext = heptagon_extension(polygon)
        n_ext = len(extreme_points(ext.vertices, 3))
        ok = n_ext <= 6
        emit({"index": index, "ok": ok, "extreme_points": n_ext})
        if not ok:
            raise CertificationFailure(f"heptagon pipeline failed on {polygon!r}")


def _fuzz_ngon(rng: random.Random, count: int, emit) -> None:
    for index in range(count):
        n = rng.randrange(8, 15)
        polygon = random_convex_polygon(rng, n)
        ext = ngon_extension(polygon)
        bound = -((6 * n) // -7)
        ok = len(ext.vertices) <= bound and ext.dim == 2 + n // 7
        emit({"index": index, "n": n, "ok": ok, "vertices": len(ext.vertices)})
        if not ok:
            raise CertificationFailure(f"n-gon pipeline failed on {polygon!r}")


def cmd_fuzz(args) -> int:
    targets = {
        "invariant": _fuzz_invariant,
        "heptagon": _fuzz_heptagon,
        "ngon": _fuzz_ngon,
    }
    rng = random.Random(args.seed)
    start = time.monotonic()

    def emit(record: dict) -> None:
        record = {"target": args.target, "seed": args.seed, **record}
        sys.stdout.write(dumps(record))

    targets[args.target](rng, args.count, emit)
    sys.stdout.write(
        dumps({"target": args.target, "seed": args.seed, "count": args.count, "failures": 0})
    )
    sys.stderr.write(f"elapsed: {time.monotonic() - start:.3f}s\n")
    return 0


def cmd_svg(args) -> int:
    polygon = _load_polygon(args.path)
    _emit(render_polygon_svg(polygon, std_lines=args.std_lines, labels=args.labels), args.out)
    return 0


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysec",
        description="Small polytope extensions of convex polygons, exactly certified.",
    )
    parser.add_argument("--version", action="version", version=f"polysec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="canonicalize a polygon JSON file")
    p.add_argument("path")

    p = sub.add_parser("extend", help="construct a certified extension")
    p.add_argument("path")
    p.add_argument("--mode", choices=("auto", "3d", "join"), default="auto")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="re-verify a sectioned polytope file")
    p.add_argument("path")

    p = sub.add_parser("slack", help="slack matrix of a polygon")
    p.add_argument("path")

    p = sub.add_parser("factorize", help="nonnegative slack factorization from an extension")
    p.add_argument("path")
    p.add_argument("extension")

    p = sub.add_parser("fuzz", help="seeded property fuzzing")
    p.add_argument("target", choices=("invariant", "heptagon", "ngon"))
    p.add_argument("--count", type=_nonnegative_int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("svg", help="render a polygon (with standardization lines) to SVG")
    p.add_argument("path")
    p.add_argument("--std-lines", action="store_true")
    p.add_argument("--labels", action="store_true")
    p.add_argument("--out", default=None)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; the parser is built on the first call and reused.

    The command is looked up by name at call time, so a cmd_* rebound in
    this module (a test double, a tracing wrapper) is the one that runs.
    """
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except PolysecError as exc:  # a ParseError is a DomainError
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1 if isinstance(exc, DomainError) else 3


if __name__ == "__main__":
    sys.exit(main())
