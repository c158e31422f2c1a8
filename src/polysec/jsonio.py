"""JSON serialization: rationals travel as "p/q" strings everywhere."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .errors import ParseError
from .exactgeom import _ZERO, format_scalar, parse_scalar
from .polygon import Polygon, validate
from .sections import SectionedPolytope
from .slack import SlackFactorization, SlackMatrix

__all__ = [
    "polygon_to_obj",
    "polygon_from_obj",
    "sectioned_to_obj",
    "sectioned_from_obj",
    "matrix_to_obj",
    "slack_to_obj",
    "factorization_to_obj",
    "dumps",
    "loads",
]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    """Decode JSON; a float literal stays its own text, so that parse_scalar
    reads it exactly."""
    try:
        return json.loads(text, parse_float=str)
    # ValueError covers JSONDecodeError and integers past the interpreter's
    # digit limit; RecursionError covers nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def polygon_to_obj(polygon: Polygon) -> dict:
    return {
        "vertices": [[format_scalar(x), format_scalar(y)]
                     for x, y in polygon.vertices]
    }


def _parse_pairs(raw) -> list[tuple[Fraction, Fraction]]:
    if not isinstance(raw, list):
        raise ParseError("vertices must be an array")
    out = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"vertex {item!r} must be an [x, y] pair")
        out.append((parse_scalar(item[0]), parse_scalar(item[1])))
    return out


def polygon_from_obj(obj) -> Polygon:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ParseError("polygon JSON needs a 'vertices' field")
    return validate(_parse_pairs(obj["vertices"]))


def sectioned_to_obj(s: SectionedPolytope) -> dict:
    return {
        "dim": s.dim,
        "vertices": [[format_scalar(c) for c in v] for v in s.vertices],
        "claimed": {"vertices": [[format_scalar(x), format_scalar(y)]
                                 for x, y in s.claimed.vertices]},
        "certified": bool(s.certified),
    }


def sectioned_from_obj(obj) -> SectionedPolytope:
    if not isinstance(obj, dict):
        raise ParseError("sectioned polytope JSON must be an object")
    for field in ("dim", "vertices", "claimed"):
        if field not in obj:
            raise ParseError(f"missing field {field!r}")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise ParseError(f"bad dimension {dim!r}")
    if not isinstance(obj["vertices"], list):
        raise ParseError("vertices must be an array")
    vertices = []
    for raw in obj["vertices"]:
        if not isinstance(raw, list) or len(raw) != dim:
            raise ParseError(f"vertex {raw!r} must have {dim} coordinates")
        # a dense file is mostly "0": the shared zero, with no call
        vertices.append(tuple([_ZERO if c == "0" else parse_scalar(c) for c in raw]))
    claimed_obj = obj["claimed"]
    if not isinstance(claimed_obj, dict) or "vertices" not in claimed_obj:
        raise ParseError("claimed section needs a 'vertices' field")
    return SectionedPolytope(dim, vertices, validate(_parse_pairs(claimed_obj["vertices"])))


def matrix_to_obj(matrix: Sequence[Sequence[Fraction]]) -> dict:
    rows = [[format_scalar(v) for v in row] for row in matrix]
    return {"shape": [len(rows), len(rows[0]) if rows else 0], "entries": rows}


def slack_to_obj(sm: SlackMatrix) -> dict:
    return matrix_to_obj(sm.entries)


def factorization_to_obj(fact: SlackFactorization, extension_sha256: str) -> dict:
    return {
        "r": fact.inner_dim,
        "R": matrix_to_obj(fact.r_factor),
        "C": matrix_to_obj(fact.c_factor),
        "extension_sha256": extension_sha256,
    }
