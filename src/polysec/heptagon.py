"""Heptagons as sections of 3-polytopes with six vertices.

The pipeline: every heptagon has at least one standardization line that
misses it; one projective map, fixed by that line and three vertices
(polygon.frame_map), sends it to infinity and yields a standard heptagon,
which carries an explicit 6-vertex extension; pulling the extension back
gives a certified 6-vertex extension of the original heptagon.  The
construction helpers (standardize, build_standard_extension,
heptagon_vertices) return plain values and vertex lists; only
heptagon_extension returns a certified SectionedPolytope.

Crossing classification is purely algebraic, through products of vertex
determinants; a brute-force edge-intersection oracle is kept in the test
suite only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificationFailure, DegenerateConstruction, NoneFound, NotHeptagon
from .exactgeom import Triple, det3, join, meet
from .polygon import Polygon, ProjMap2, _convex_cycle, _lift, _lift_keys, frame_map
from .sections import AmbientPoint, SectionedPolytope, bounded_pullback, certify

__all__ = [
    "StdPoints",
    "Crossing",
    "StandardHeptagon",
    "DetOctuple",
    "InvariantSums",
    "std_points",
    "classify_line",
    "find_noncrossing",
    "det_octuple",
    "invariant_sum",
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


@dataclass(frozen=True)
class StdPoints:
    """The i-th standardization construction: p_i^+, p_i^-, and their join."""

    plus: Triple
    minus: Triple
    line: Triple


@dataclass(frozen=True)
class DetOctuple:
    """The eight determinant abbreviations attached to index i of a 7-tuple."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction
    g: Fraction
    h: Fraction


@dataclass(frozen=True)
class InvariantSums:
    total: Fraction
    sum_ab: Fraction
    sum_cd: Fraction
    sum_ef: Fraction
    sum_gh: Fraction


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


def det_octuple(points: Sequence, i: int) -> DetOctuple:
    """Determinant octuple at index i, evaluated on the w = 1 lifts of
    seven affine points.

    The identities below are affine statements: they hold for the unit lifts,
    not for arbitrary rescalings of individual points.
    """
    if len(points) != 7:
        raise ValueError("need exactly 7 points")
    return _octuple([(Fraction(x), Fraction(y), Fraction(1)) for x, y in points], i)


def invariant_sum(points: Sequence) -> InvariantSums:
    """The cyclic determinant identity sum(AB - CD + EF - GH) over a 7-tuple.

    Returns the total together with the four partial sums, so the two
    half-identities sum(AB) = sum(GH) and sum(EF) = sum(CD) are exposed.
    The total is identically zero for every configuration of 7 finite
    points, convex or not.
    """
    sums = [Fraction(0)] * 4
    for i in range(7):
        o = det_octuple(points, i)
        sums[0] += o.a * o.b
        sums[1] += o.c * o.d
        sums[2] += o.e * o.f
        sums[3] += o.g * o.h
    sum_ab, sum_cd, sum_ef, sum_gh = sums
    return InvariantSums(
        total=sum_ab - sum_cd + sum_ef - sum_gh,
        sum_ab=sum_ab, sum_cd=sum_cd, sum_ef=sum_ef, sum_gh=sum_gh,
    )


@dataclass(frozen=True)
class StandardHeptagon:
    """Heptagon with p_0 = (0,0), p_3 = (0,1), p_-3 = (1,0), the edge
    (p_1, p_2) vertical and the edge (p_-1, p_-2) horizontal.

    Parameters satisfy b, c < 0 < a, d, lam, mu, and the vertex list is a
    convex clockwise heptagon; the constructor certifies all of it.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    lam: Fraction
    mu: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "lam", "mu"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (self.b < 0 and self.c < 0):
            raise CertificationFailure(f"need b, c < 0, got b={self.b}, c={self.c}")
        if not (self.a > 0 and self.d > 0 and self.lam > 0 and self.mu > 0):
            raise CertificationFailure(
                f"need a, d, lam, mu > 0, got {self.a}, {self.d}, {self.lam}, {self.mu}"
            )
        lifts = [_lift(p) for p in self.vertex_list()]
        if _convex_cycle(lifts, _lift_keys(lifts)) != -1:
            raise CertificationFailure("vertex list is not a strictly convex clockwise heptagon")

    def vertex_list(self) -> list[tuple[Fraction, Fraction]]:
        """Vertices in index order 0..6 (indices -1, -2, -3 are 6, 5, 4)."""
        a, b, c, d, lam, mu = self.a, self.b, self.c, self.d, self.lam, self.mu
        return [
            (Fraction(0), Fraction(0)),
            (c, d),
            (c, d + mu),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
            (a + lam, b),
            (a, b),
        ]


def standardize(polygon: Polygon) -> tuple[StandardHeptagon, ProjMap2]:
    """Projective standardization of a heptagon.

    One map, built from its frame (frame_map): it sends the first
    non-crossing standardization line to infinity and (p_i, p_{i-3},
    p_{i+3}) to ((0,0), (1,0), (0,1)).  Three points and a line fix a
    projective map, so this is the map the construction needs.  The two
    parallelism conditions hold in the image because p_i^+ and p_i^- were
    sent to infinity; they hold exactly when the image equals the vertex
    list of the parameters read from it, which is checked, and the
    parameter sign constraints are certified by the StandardHeptagon
    constructor.
    """
    i = find_noncrossing(polygon)
    p = polygon.vertex
    total = frame_map(p(i), p(i - 3), p(i + 3), std_points(polygon, i).line)
    v, _ = total.apply_affine([polygon.vertices[(i + k) % 7] for k in range(7)])
    std = StandardHeptagon(
        a=v[6][0], b=v[6][1], c=v[1][0], d=v[1][1],
        lam=v[5][0] - v[6][0], mu=v[2][1] - v[1][1],
    )
    if std.vertex_list() != v:
        raise CertificationFailure("standardized vertices disagree with the parameters")
    return std, total


def default_extension_k(std: StandardHeptagon) -> Fraction:
    """K = max(lam - 1, mu - 1, 1) + 1, which exceeds lam - 1, mu - 1 and 0."""
    return max(std.lam - 1, std.mu - 1, Fraction(1)) + 1


def build_standard_extension(std: StandardHeptagon) -> list[AmbientPoint]:
    """The six vertices of the explicit extension of a standard heptagon.

    Three vertices sit at height -K, K = default_extension_k(std), the
    remaining three strictly above the plane; the nine segment crossings
    reproduce the seven vertices plus the two interior points (a, b+lam) and
    (c+mu, d).  Nothing is certified; heptagon_extension certifies the
    pulled-back polytope.
    """
    a, b, c, d, lam, mu = std.a, std.b, std.c, std.d, std.lam, std.mu
    k = default_extension_k(std)
    s_lam = (1 + k) - lam
    s_mu = (1 + k) - mu
    return [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(0), -k),
        (1 + k, Fraction(0), -k),
        (Fraction(0), 1 + k, -k),
        (a * (1 + k) / s_lam, b * (1 + k) / s_lam, lam * k / s_lam),
        (c * (1 + k) / s_mu, d * (1 + k) / s_mu, mu * k / s_mu),
    ]


def heptagon_vertices(polygon: Polygon) -> list[AmbientPoint]:
    """The six vertices of a 3-polytope whose section on H is the heptagon.

    The vertices of the standard extension at the default K are pulled back
    once; an H-fixing shear bounds the pullback when the canonical lift
    alone would not, and bounded_pullback explains why such a shear always
    exists.  The pullback carries the standard heptagon back to the input.
    Nothing is certified here.
    """
    std, total = standardize(polygon)
    return bounded_pullback(build_standard_extension(std), total.inverse())


def heptagon_extension(polygon: Polygon) -> SectionedPolytope:
    """Certified 3-dimensional extension of a heptagon with at most 6 vertices:
    heptagon_vertices, claiming the input heptagon, certified once."""
    return certify(SectionedPolytope(3, heptagon_vertices(polygon), polygon))
