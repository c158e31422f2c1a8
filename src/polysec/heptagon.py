"""Heptagons as sections of 3-polytopes with six vertices.

The pipeline: every heptagon has at least one standardization line that
misses it; sending that line to infinity (plus an affine normalization)
yields a standard heptagon, which carries an explicit 6-vertex extension;
pulling the extension back gives a certified 6-vertex extension of the
original heptagon.

Crossing classification is purely algebraic, through products of vertex
determinants; a brute-force edge-intersection oracle is kept in the test
suite only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BadK,
    CertificationFailure,
    DegenerateConstruction,
    NoneFound,
    NotHeptagon,
)
from .exactgeom import ProjLine, ProjPoint, det3, join, meet
from .polygon import Polygon, ProjMap2, affine_through_three, map_line_to_infinity, validate
from .sections import SectionedPolytope, bounded_pullback, certify

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

    index: int
    plus: ProjPoint
    minus: ProjPoint
    line: ProjLine


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

    def line(a: int, b: int) -> ProjLine:
        return join(p(i + a), p(i + b))

    plus = meet(line(1, 2), line(0, 3))
    minus = meet(line(-1, -2), line(0, -3))
    if plus == minus:
        raise DegenerateConstruction(f"p_{i}^+ equals p_{i}^- on {polygon!r}")
    return StdPoints(index=i % 7, plus=plus, minus=minus, line=join(plus, minus))


def _crossing_expressions(polygon: Polygon, i: int) -> tuple:
    """The two sign expressions deciding +-/- crossing for index i.

    Each is a difference of determinant products over the same six vertices,
    so the sign is independent of the homogeneous representatives.
    """
    p = polygon.vertex

    def d(x: int, y: int, z: int):
        return det3(p(i + x), p(i + y), p(i + z))

    a = d(-1, -2, -3)
    b = d(2, 1, 0)
    c = d(-1, -2, 0)
    dd = d(2, 1, -3)
    f = d(-1, -2, 3)
    g = d(2, 1, 3)
    plus_expr = a * b - c * dd
    minus_expr = g * c - b * f  # e = b and h = c by definition
    return plus_expr, minus_expr


def classify_line(polygon: Polygon, i: int) -> Crossing:
    """Classify the i-th standardization line; ties (= 0) count as crossing."""
    _require_heptagon(polygon)
    plus_expr, minus_expr = _crossing_expressions(polygon, i)
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
        f"reproducible input: {polygon.affine_vertices()!r}"
    )


def _affine_lifts(points: Sequence) -> list[tuple[Fraction, Fraction, Fraction]]:
    lifts = []
    for p in points:
        if isinstance(p, ProjPoint):
            x, y = p.dehomogenize()
        else:
            x, y = Fraction(p[0]), Fraction(p[1])
        lifts.append((x, y, Fraction(1)))
    return lifts


def det_octuple(points: Sequence, i: int) -> DetOctuple:
    """Determinant octuple at index i, evaluated on the w = 1 affine lifts.

    The identities below are affine statements: they hold for the unit lifts,
    not for arbitrary rescalings of individual points.
    """
    if len(points) != 7:
        raise ValueError("need exactly 7 points")
    lifts = _affine_lifts(points)

    def d(x: int, y: int, z: int) -> Fraction:
        return det3(lifts[(i + x) % 7], lifts[(i + y) % 7], lifts[(i + z) % 7])

    b = d(2, 1, 0)
    c = d(-1, -2, 0)
    return DetOctuple(
        a=d(-1, -2, -3), b=b, c=c, d=d(2, 1, -3),
        e=b, f=d(-1, -2, 3), g=d(2, 1, 3), h=c,
    )


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
    convex clockwise heptagon; the constructor certifies all of it and keeps
    the validated polygon.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    lam: Fraction
    mu: Fraction
    _polygon: Polygon = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "lam", "mu"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (self.b < 0 and self.c < 0):
            raise CertificationFailure(f"need b, c < 0, got b={self.b}, c={self.c}")
        if not (self.a > 0 and self.d > 0 and self.lam > 0 and self.mu > 0):
            raise CertificationFailure(
                f"need a, d, lam, mu > 0, got {self.a}, {self.d}, {self.lam}, {self.mu}"
            )
        if not (1 - self.a - self.b - self.lam > 0 and 1 - self.c - self.d - self.mu > 0):
            raise CertificationFailure("convexity margins violated")
        pts = [ProjPoint.from_affine(x, y) for x, y in self.vertex_list()]
        for i in range(7):
            if det3(pts[(i + 2) % 7], pts[(i + 1) % 7], pts[i]) <= 0:
                raise CertificationFailure("vertex list is not convex clockwise")
        # full validation, raises on any remaining defect
        object.__setattr__(self, "_polygon", validate(self.vertex_list()))

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

    def polygon(self) -> Polygon:
        return self._polygon


def standardize(polygon: Polygon) -> tuple[StandardHeptagon, ProjMap2]:
    """Projective standardization of a heptagon.

    Sends the first non-crossing standardization line to infinity, then
    applies the affine map taking (p_i, p_{i+3}, p_{i-3}) to
    ((0,0), (0,1), (1,0)).  The two parallelism conditions hold in the image
    because p_i^+ and p_i^- were sent to infinity; the parameter sign
    constraints are certified by the StandardHeptagon constructor.
    """
    _require_heptagon(polygon)
    i = find_noncrossing(polygon)
    sp = std_points(polygon, i)
    to_infinity = map_line_to_infinity(sp.line, polygon)

    def image(k: int) -> tuple[Fraction, Fraction]:
        raw = to_infinity.apply_raw(polygon.vertex(i + k))
        if raw[2] == 0:
            raise DegenerateConstruction("standardization sent a vertex to infinity")
        return (Fraction(raw[0], raw[2]), Fraction(raw[1], raw[2]))

    anchor = affine_through_three(
        (image(0), image(3), image(4)),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
    )
    total = anchor.compose(to_infinity)
    v = []
    for k in range(7):
        raw = total.apply_raw(polygon.vertex(i + k))
        if raw[2] == 0:
            raise DegenerateConstruction("standardization sent a vertex to infinity")
        v.append((Fraction(raw[0], raw[2]), Fraction(raw[1], raw[2])))
    if v[1][0] != v[2][0] or v[5][1] != v[6][1]:
        raise CertificationFailure("parallelism conditions failed after standardization")
    std = StandardHeptagon(
        a=v[6][0], b=v[6][1], c=v[1][0], d=v[1][1],
        lam=v[5][0] - v[6][0], mu=v[2][1] - v[1][1],
    )
    if std.vertex_list() != v:
        raise CertificationFailure("standardized vertices disagree with the parameters")
    return std, total


def default_extension_k(std: StandardHeptagon) -> Fraction:
    return max(std.lam - 1, std.mu - 1, Fraction(1)) + 1


def build_standard_extension(std: StandardHeptagon, k: Optional[Fraction] = None) -> SectionedPolytope:
    """The explicit six-vertex extension of a standard heptagon.

    Three vertices sit at height -K, the remaining three strictly above the
    plane; the nine segment crossings reproduce the seven vertices plus the
    two interior points (a, b+lam) and (c+mu, d).
    """
    a, b, c, d, lam, mu = std.a, std.b, std.c, std.d, std.lam, std.mu
    k = default_extension_k(std) if k is None else Fraction(k)
    if not (k > lam - 1 and k > mu - 1 and k > 0):
        raise BadK(f"need K > max(lam-1, mu-1, 0), got {k}")
    s_lam = (1 + k) - lam
    s_mu = (1 + k) - mu
    vertices = [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(0), -k),
        (1 + k, Fraction(0), -k),
        (Fraction(0), 1 + k, -k),
        (a * (1 + k) / s_lam, b * (1 + k) / s_lam, lam * k / s_lam),
        (c * (1 + k) / s_mu, d * (1 + k) / s_mu, mu * k / s_mu),
    ]
    return certify(SectionedPolytope(3, vertices, std.polygon()))


def heptagon_extension(polygon: Polygon) -> SectionedPolytope:
    """Certified 3-dimensional extension of a heptagon with at most 6 vertices.

    The standard extension at the default K is pulled back once; an H-fixing
    shear bounds the pullback when the canonical lift alone would not, and
    bounded_pullback explains why such a shear always exists.
    """
    _require_heptagon(polygon)
    std, total = standardize(polygon)
    result = bounded_pullback(build_standard_extension(std), total.inverse())
    if not result.certified:
        raise CertificationFailure(f"pullback lost the section certificate: {result!r}")
    if result.claimed_polygon() != polygon:
        raise CertificationFailure("pulled-back section does not match the input heptagon")
    return result
