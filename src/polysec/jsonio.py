"""JSON serialization: rationals travel as "p/q" strings everywhere.

Rows in, rows out.  Texts are read straight into integer rows
(exactgeom._row), with no Fraction: the [x, y] pairs of a polygon or of an
extension's claim into lifts (_parse_pairs, the one pair reader), which
the Polygon constructor validates and stores in canonical order, and an
extension's vertices into rows from their texts other than "0", handed to
the one SectionedPolytope constructor.
Each array is read with one pass over its shape that collects the texts
(for a vertex, by index, those other than "0"), one exactgeom._ratios
call, which reads them all as the one text reader exactgeom._ratio reads
each, and then one row per vertex: exactgeom._pair_row of each pair, and
exactgeom._row of a vertex's texts written into a copy of one row of
zeros, made only once a vertex of dim texts has been read, so that memory
follows the file and not the dim it states.  A shape defect first reads
the texts before it, so the first defect in file order is the one
reported.  Polygons and extensions are written from the same rows,
Polygon.lifts and SectionedPolytope.rows, each coordinate X/W by
exactgeom._format_ratio, with no Fraction either, and so are matrices,
from rows of integer pairs (p, q): the slack matrix and the factors R
and C from the pairs the slack layer holds (slack module docstring).
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import ParseError
from .exactgeom import Triple, _format_ratio, _pair_row, _ratios, _row
from .polygon import Polygon
from .sections import SectionedPolytope
from .slack import SlackFactorization

__all__ = [
    "polygon_to_obj",
    "polygon_from_obj",
    "sectioned_to_obj",
    "sectioned_from_obj",
    "matrix_to_obj",
    "factorization_to_obj",
    "dumps",
    "loads",
]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    """Decode JSON; a float literal stays its own text, so that
    exactgeom._ratio reads it exactly."""
    try:
        return json.loads(text, parse_float=str)
    # ValueError covers JSONDecodeError and integers past the interpreter's
    # digit limit; RecursionError covers nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def polygon_to_obj(polygon: Polygon) -> dict:
    return {"vertices": [[_format_ratio(x, w), _format_ratio(y, w)] for x, y, w in polygon.lifts]}


def _parse_pairs(raw) -> list[Triple]:
    """The lift (exactgeom._pair_row) of each [x, y] pair of a vertex array."""
    if not isinstance(raw, list):
        raise ParseError("vertices must be an array")
    texts = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            _ratios(texts)  # a bad text before this item is the first error
            raise ParseError(f"vertex {item!r} must be an [x, y] pair")
        texts += item
    ratios = _ratios(texts)
    return list(map(_pair_row, ratios[::2], ratios[1::2]))


def polygon_from_obj(obj) -> Polygon:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ParseError("polygon JSON needs a 'vertices' field")
    return Polygon(_parse_pairs(obj["vertices"]))


def sectioned_to_obj(s: SectionedPolytope) -> dict:
    return {
        "dim": s.dim,
        "vertices": [[_format_ratio(c, row[-1]) if c else "0" for c in row[:-1]] for row in s.rows],
        "claimed": polygon_to_obj(s.claimed),
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
    texts, supports, indices = [], [], range(dim)
    for raw in obj["vertices"]:
        if not isinstance(raw, list) or len(raw) != dim:
            _ratios(texts)  # a bad text before this vertex is the first error
            raise ParseError(f"vertex {raw!r} must have {dim} coordinates")
        # the texts other than "0": a row is made from them and written into
        # their places
        support = [k for k in indices if raw[k] != "0"]
        texts += [raw[k] for k in support]
        supports.append(support)
    ratios = _ratios(texts)
    rows, end, zeros = [], 0, [0] * (dim + 1) if supports else []
    for support in supports:
        start, end = end, end + len(support)
        values = _row(ratios[start:end])
        row = zeros[:]
        for k, v in zip(support, values):
            row[k] = v
        row[-1] = values[-1]
        rows.append(tuple(row))
    claimed_obj = obj["claimed"]
    if not isinstance(claimed_obj, dict) or "vertices" not in claimed_obj:
        raise ParseError("claimed section needs a 'vertices' field")
    claimed = Polygon(_parse_pairs(claimed_obj["vertices"]))
    return SectionedPolytope(dim, rows, claimed)


def matrix_to_obj(matrix: Sequence[Sequence[tuple[int, int]]]) -> dict:
    """The shape and the texts of a matrix given as rows of integer pairs
    (p, q), q > 0, each p/q written in lowest terms by _format_ratio."""
    rows = [[_format_ratio(p, q) for p, q in row] for row in matrix]
    return {"shape": [len(rows), len(rows[0]) if rows else 0], "entries": rows}


def factorization_to_obj(fact: SlackFactorization, extension_sha256: str) -> dict:
    return {
        "r": fact.inner_dim,
        "R": matrix_to_obj(fact.r_pairs),
        "C": matrix_to_obj(fact.c_pairs),
        "extension_sha256": extension_sha256,
    }
