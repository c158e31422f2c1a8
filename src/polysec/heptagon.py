"""Heptagons as sections of 3-polytopes with six vertices.

The pipeline: every heptagon has at least one standardization line that
misses it; one projective map, fixed by that line and three vertices
(polygon.frame_map), sends it to infinity and yields a standard heptagon,
which carries an explicit 6-vertex extension; pulling the extension back
gives a certified 6-vertex extension of the original heptagon.

All of it runs in integers.  The polynomial core, build_standard_extension,
maps the parameters and K, integer pairs (N, D), D > 0, to homogeneous
rows with +, - and * only, so the tests also run it on polynomial symbols
and prove that its nine segment crossings are the seven standard vertices
and the points (a, b + lam) and (c + mu, d) inside the heptagon.  The
normalization divides each row by its gcd; heptagon_vertices pulls the
rows back, and only heptagon_extension returns a SectionedPolytope.

Crossing classification is purely algebraic, through products of vertex
determinants; a brute-force edge-intersection oracle is kept in the test
suite only.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from .errors import CertificationFailure, DegenerateConstruction, NoneFound, NotHeptagon
from .exactgeom import Triple, _by_value, _primitive_ints, det3, join, meet
from .linalg import Pair
from .polygon import Polygon, ProjMap2, _convex_cycle, _lift_keys, frame_map
from .sections import Row, SectionedPolytope, bounded_pullback, certify

__all__ = [
    "StdPoints",
    "Crossing",
    "StandardHeptagon",
    "DetOctuple",
    "std_points",
    "classify_line",
    "find_noncrossing",
    "standardize",
    "build_standard_extension",
    "heptagon_vertices",
    "heptagon_extension",
]


def _require_heptagon(polygon: Polygon) -> None:
    if polygon.n != 7:
        raise NotHeptagon(f"expected a heptagon, got {polygon.n} vertices")


class Crossing(enum.Enum):
    NON_CROSSING = "non-crossing"
    PLUS_CROSSING = "+-crossing"
    MINUS_CROSSING = "--crossing"


class StdPoints(NamedTuple):
    """The i-th standardization construction: p_i^+, p_i^-, and their join."""

    plus: Triple
    minus: Triple
    line: Triple


class DetOctuple(NamedTuple):
    """The eight determinant abbreviations attached to index i of a 7-tuple,
    each det3 of three integer lifts (_octuple)."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int


def std_points(polygon: Polygon, i: int) -> StdPoints:
    """Standardization points p_i^+ = (i+1,i+2)v(i,i+3), p_i^- = (i-1,i-2)v(i,i-3)."""
    _require_heptagon(polygon)
    p = polygon.vertex

    def line(a: int, b: int) -> Triple:
        return join(p(i + a), p(i + b))

    plus = meet(line(1, 2), line(0, 3))
    minus = meet(line(-1, -2), line(0, -3))
    if plus == minus:
        raise DegenerateConstruction(f"p_{i}^+ equals p_{i}^- on {polygon!r}")
    return StdPoints(plus=plus, minus=minus, line=join(plus, minus))


def _octuple(rows: Sequence, i: int) -> DetOctuple:
    """Determinant octuple at index i of seven homogeneous rows; e = b and
    h = c by definition, so six determinants are computed."""

    def d(x: int, y: int, z: int):
        return det3(rows[(i + x) % 7], rows[(i + y) % 7], rows[(i + z) % 7])

    b = d(2, 1, 0)
    c = d(-1, -2, 0)
    return DetOctuple(
        a=d(-1, -2, -3), b=b, c=c, d=d(2, 1, -3),
        e=b, f=d(-1, -2, 3), g=d(2, 1, 3), h=c,
    )


def classify_line(polygon: Polygon, i: int) -> Crossing:
    """Classify the i-th standardization line; ties (= 0) count as crossing.

    The signs of a*b - c*d (+-crossing) and g*h - e*f (--crossing) decide.
    Both products of a difference take each of the same six vertices
    once, so a vertex scaled by a positive factor scales them alike:
    Polygon.lifts give the signs of the unit lifts.
    """
    _require_heptagon(polygon)
    o = _octuple(polygon.lifts, i)
    plus_expr = o.a * o.b - o.c * o.d
    minus_expr = o.g * o.h - o.e * o.f
    if plus_expr >= 0 and minus_expr >= 0:
        raise DegenerateConstruction(
            f"index {i} classifies as both +-crossing and --crossing on {polygon!r}"
        )
    if plus_expr >= 0:
        return Crossing.PLUS_CROSSING
    if minus_expr >= 0:
        return Crossing.MINUS_CROSSING
    return Crossing.NON_CROSSING


def find_noncrossing(polygon: Polygon) -> int:
    """Smallest index whose standardization line misses the heptagon."""
    _require_heptagon(polygon)
    for i in range(7):
        if classify_line(polygon, i) is Crossing.NON_CROSSING:
            return i
    raise NoneFound(
        "no non-crossing standardization line; this refutes a theorem -- "
        f"reproducible input: {list(polygon.vertices)!r}"
    )


class StandardHeptagon(NamedTuple):
    """The heptagon (0,0), (c,d), (c,d+mu), (0,1), (1,0), (a+lam,b), (a,b),
    in index order 0..6 (indices -1, -2, -3 are 6, 5, 4), with b, c < 0 <
    a, d, lam, mu, each an integer pair (N, D), D > 0 (_read_standard)."""

    a: Pair
    b: Pair
    c: Pair
    d: Pair
    lam: Pair
    mu: Pair


def standardize(polygon: Polygon) -> tuple[StandardHeptagon, ProjMap2]:
    """Projective standardization of a heptagon.

    One map, built from its frame (frame_map): it sends the first
    non-crossing standardization line to infinity and (p_i, p_{i-3},
    p_{i+3}) to ((0,0), (1,0), (0,1)).  Three points and a line fix a
    projective map, so this is the map the construction needs; its images
    give the parameters (_read_standard).
    """
    i = find_noncrossing(polygon)
    p = polygon.vertex
    total = frame_map(p(i), p(i - 3), p(i + 3), std_points(polygon, i).line)
    return _read_standard(total.apply([p(i + k) for k in range(7)])), total


def _read_standard(images: Sequence[Triple]) -> StandardHeptagon:
    """The parameters read off the images of the vertices in index order,
    of positive weight as frame_map gives p_0 one: a, b of p_-1, c, d of
    p_1, lam and mu as differences.  CertificationFailure unless their
    numerators have the signs, the images turn as a strictly convex
    clockwise heptagon, and they are its vertices: p_0, p_3, p_-3 at (0,0),
    (0,1), (1,0), and the edges (p_1, p_2) and (p_-1, p_-2) parallel to the
    axes, as p_i^+ and p_i^- at infinity make them, by cross-multiplication."""
    (x0, y0, _), (x1, y1, w1), (x2, y2, w2), (x3, y3, w3), (x4, y4, w4), (x5, y5, w5), (x6, y6, w6) = images
    std = StandardHeptagon(a=(x6, w6), b=(y6, w6), c=(x1, w1), d=(y1, w1),
                           lam=(x5 * w6 - x6 * w5, w5 * w6), mu=(y2 * w1 - y1 * w2, w1 * w2))
    if not (y6 < 0 and x1 < 0):
        raise CertificationFailure(f"need b, c < 0, got b={std.b}, c={std.c}")
    if not (x6 > 0 and y1 > 0 and std.lam[0] > 0 and std.mu[0] > 0):
        raise CertificationFailure(
            f"need a, d, lam, mu > 0, got {std.a}, {std.d}, {std.lam}, {std.mu}"
        )
    if _convex_cycle(images, _lift_keys(images)) != -1:
        raise CertificationFailure("vertex list is not a strictly convex clockwise heptagon")
    if (x0, y0, x3, y4, y3, x4, x1 * w2, y5 * w6) != (0, 0, 0, 0, w3, w4, x2 * w1, y6 * w5):
        raise CertificationFailure("standardized vertices disagree with the parameters")
    return std


def default_extension_k(std: StandardHeptagon) -> Pair:
    """K = max(lam, mu, 2) = max(lam - 1, mu - 1, 1) + 1, a pair."""
    return max(std.lam, std.mu, (2, 1), key=_by_value)


def build_standard_extension(std: StandardHeptagon, k: Pair) -> list[Row]:
    """The rows (X, Y, Z, W), not divided by their gcd, of the six vertices
    (0, 0, 1), (0, 0, -K), (1+K, 0, -K), (0, 1+K, -K),
    (a (1+K), b (1+K), lam K) / (1 + K - lam) and
    (c (1+K), d (1+K), mu K) / (1 + K - mu) at K = k: the polynomial core
    (module docstring).  For K > lam - 1, mu - 1, 0 every W is positive.
    Nothing is certified; heptagon_extension certifies the pulled-back
    polytope.
    """
    (an, ad), (bn, bd), (cn, cd), (dn, dd), (ln, ld), (mn, md) = std
    kn, kd = k
    k1 = kd + kn  # (1 + K) kd
    return [
        (0, 0, 1, 1),
        (0, 0, -kn, kd),
        (k1, 0, -kn, kd),
        (0, k1, -kn, kd),
        (an * k1 * bd * ld, bn * k1 * ad * ld, ln * kn * ad * bd, (k1 * ld - ln * kd) * ad * bd),
        (cn * k1 * dd * md, dn * k1 * cd * md, mn * kn * cd * dd, (k1 * md - mn * kd) * cd * dd),
    ]


def heptagon_vertices(polygon: Polygon) -> list[Row]:
    """The rows of the six vertices of a 3-polytope whose section on H is
    the heptagon.

    The rows of the standard extension at the default K, each divided by
    its gcd, are pulled back once; an H-fixing shear bounds the pullback
    when the canonical lift alone would not, and bounded_pullback explains
    why such a shear always exists.  The pullback carries the standard
    heptagon back to the input.  Nothing is certified here.
    """
    std, total = standardize(polygon)
    rows = [_primitive_ints(row) for row in build_standard_extension(std, default_extension_k(std))]
    return bounded_pullback(rows, total.inverse())


def heptagon_extension(polygon: Polygon) -> SectionedPolytope:
    """Certified 3-dimensional extension of a heptagon with at most 6 vertices:
    heptagon_vertices, claiming the input heptagon, certified once."""
    return certify(SectionedPolytope(3, heptagon_vertices(polygon), polygon))
