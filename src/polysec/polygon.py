"""Convex polygons with clockwise cyclic labeling, and planar maps.

A Polygon stores its vertices as affine pairs of Fractions, the one
planar coordinate of the package.  The canonical labeling, the order of
canonical_hull that validate() ends in, is clockwise (the triangle
(p_{i+2}, p_{i+1}, p_i) is positively oriented for every i) with the
lexicographically smallest vertex at index 0.  Operations that need a
specific index alignment take their own index parameter instead of
relying on the canonical rotation.

Points are ordered by exact integer keys.  When every denominator of a
set of rationals is below 2^(s/2), the key (a << s) // b of x = a/b is
floor(x 2^s), and two distinct values a1/b1 != a2/b2 differ by at least
1/(b1 b2) > 2^-s, so their keys differ and keep their order, while equal
values give equal keys.  Sorting and deduplication compare ints only.

Orientation is an integer determinant sign.  An affine point (x, y) is
lifted to the integer triple (x.num y.den, y.num x.den, x.den y.den),
whose weight is positive, so the sign of the 3x3 determinant of three
lifts is the sign of their turn.  convex_hull_2d lifts each distinct point
once and runs the monotone chain on those signs, and no Fraction is
compared or hashed.

validate accepts in linear time, with no sort and no hull, when the n
cyclic turns have one strict sign and, from the smallest key, the keys
rise strictly to the largest and then fall strictly.  Proof: the rising
chain is lexicographically monotone, so its edge directions lie in one
half-open half-turn, and turning one way they rotate monotonically in it:
the chain is a strictly convex or concave graph, vertical end edges
allowed, strictly on one side of the chord from the minimum to the
maximum.  The falling chain runs back turning the same way, so it lies
strictly on the other side.  Together they bound a strictly convex polygon
with the input points as vertices, each once, in cyclic order.  Every such
polygon passes both tests, so the hull only names a rejected input's defect.

Planar maps are projective (ProjMap2), and act on affine points in one
place, ProjMap2.apply_affine, which refuses points on or across the line
the map sends to infinity.  Polygon.vertex serves the projective kernel
(exactgeom) the same vertices as integer homogeneous triples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DegenerateTriple,
    DuplicateVertex,
    ImageNotConvex,
    LineMeetsPolygon,
    MapsVertexToInfinity,
    NotConvex,
    TooFewVertices,
)
from .exactgeom import ProjLine, ProjPoint, _primitive_ints, det3

AffinePair = tuple[Fraction, Fraction]

__all__ = ["Polygon", "ProjMap2", "validate", "map_line_to_infinity",
           "affine_through_three", "convex_hull_2d", "canonical_hull"]


def _fraction(c) -> Fraction:
    """c as a Fraction; a Fraction is kept, as converting it again costs
    an abstract-base-class check."""
    return c if type(c) is Fraction else Fraction(c)


def _lift(p: AffinePair) -> tuple[int, int, int]:
    """The integer homogeneous triple (x.num y.den, y.num x.den, x.den y.den)
    of an affine rational point; its weight is positive."""
    x, y = p
    return x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator


def _turn(a: tuple[int, int, int], b: tuple[int, int, int], c: tuple[int, int, int]) -> int:
    """Sign of the turn through three lifts: 1 counterclockwise, -1 clockwise,
    0 collinear.  The weights are positive, so the sign of the integer
    determinant is the sign of the rational one."""
    d = det3(a, b, c)
    return (d > 0) - (d < 0)


def _orient(a: AffinePair, b: AffinePair, c: AffinePair) -> int:
    """Sign of the turn (a, b, c) of affine points: positive when it turns
    counterclockwise."""
    return _turn(_lift(a), _lift(b), _lift(c))


def _sort_keys(points: Sequence[AffinePair]) -> list[tuple[int, int]]:
    """The exact integer key pair of every point: (a << s) // b for each
    coordinate a/b, with s twice the largest denominator bit length, so
    that every denominator is below 2^(s/2) (module docstring)."""
    s = 2 * max((c.denominator for p in points for c in p), default=1).bit_length()
    return [((x.numerator << s) // x.denominator, (y.numerator << s) // y.denominator)
            for x, y in points]


def convex_hull_2d(points: Iterable[AffinePair]) -> list[AffinePair]:
    """Strict convex hull (collinear boundary points dropped), counterclockwise.

    The points are sorted and deduplicated on their exact integer keys
    (_sort_keys: floor(x 2^s) and floor(y 2^s) with every denominator below
    2^(s/2), so distinct values, at least 2^-s apart, never share a key);
    the monotone chain then runs over the distinct points, each lifted once
    to integers, on integer determinant signs.  The first hull vertex is the
    lexicographically smallest point.  The hull holds the given pair objects
    themselves, the first given of equal points.
    """
    pts = list(points)
    keys = _sort_keys(pts)
    order = sorted(range(len(pts)), key=keys.__getitem__)
    pts = [pts[k] for pos, k in enumerate(order) if pos == 0 or keys[k] != keys[order[pos - 1]]]
    n = len(pts)
    if n <= 2:
        return pts
    lifts = [_lift(p) for p in pts]
    hull: list[int] = []
    for chain in (range(n), range(n - 1, -1, -1)):
        base = len(hull)
        for k in chain:
            while len(hull) >= base + 2 and _turn(lifts[hull[-2]], lifts[hull[-1]], lifts[k]) <= 0:
                hull.pop()
            hull.append(k)
        hull.pop()  # each half ends where the other begins
    return [pts[k] for k in hull]


def canonical_hull(points: Iterable[AffinePair]) -> tuple[AffinePair, ...]:
    """The strict convex hull in canonical order: the lexicographically
    smallest point first, then clockwise.  One point gives (p,), two the
    sorted pair, and three or more the vertices of the canonical Polygon."""
    hull = convex_hull_2d(points)
    return tuple(hull[:1] + hull[:0:-1])


class Polygon:
    """Strictly convex polygon, affine vertices cyclically clockwise labeled."""

    __slots__ = ("vertices", "_points")

    def __init__(self, vertices: Sequence[AffinePair]):
        self.vertices = tuple(vertices)
        self._points = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> ProjPoint:
        """Vertex i, cyclically, as a projective point for the projective
        kernel; the points are built once, on first use."""
        if self._points is None:
            self._points = tuple(ProjPoint.from_affine(x, y) for x, y in self.vertices)
        return self._points[i % len(self._points)]

    def edge_inequality(self, i: int) -> tuple[AffinePair, Fraction]:
        """Outward normal a and offset b of edge (i, i+1): a . x <= b on the polygon.

        For clockwise labels the outward normal is the edge vector rotated by
        +90 degrees.
        """
        n = len(self.vertices)
        x0, y0 = self.vertices[i % n]
        x1, y1 = self.vertices[(i + 1) % n]
        a = (-(y1 - y0), x1 - x0)
        return a, a[0] * x0 + a[1] * y0

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        coords = ", ".join(f"({x},{y})" for x, y in self.vertices)
        return f"Polygon[{coords}]"


def validate(points: Iterable[Sequence]) -> Polygon:
    """Build the canonical Polygon from affine rational pairs.

    Accepts exactly the strictly convex polygons in cyclic order, in linear
    time (module docstring), and returns the input pairs rotated to the
    lexicographic minimum, reversed when they turn counterclockwise.
    Rejects repeated points (DuplicateVertex), collinear or interior points,
    and convex-position points out of cyclic order (NotConvex).
    """
    pts = [(_fraction(p[0]), _fraction(p[1])) for p in points]
    n = len(pts)
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    keys = _sort_keys(pts)
    lifts = [_lift(p) for p in pts]
    turns = {_turn(lifts[k - 2], lifts[k - 1], lifts[k]) for k in range(n)}
    rises = [keys[k - 1] < keys[k] for k in range(n)]
    if len(turns) == 1 and 0 not in turns and sum(rises[k - 1] != rises[k] for k in range(n)) == 2:
        m = keys.index(min(keys))
        if turns == {-1}:
            return Polygon(pts[m:] + pts[:m])
        return Polygon([pts[m - k] for k in range(n)])
    # the keys are exact: equal keys are equal points
    if len(set(keys)) != n:
        raise DuplicateVertex("duplicate vertices in input")
    if len(convex_hull_2d(pts)) != n:
        raise NotConvex("input contains collinear or interior points")
    raise NotConvex("vertex order does not trace the convex hull")


class ProjMap2:
    """Invertible projective map of the plane, a 3x3 integer matrix up to scale."""

    __slots__ = ("m",)

    def __init__(self, rows: Sequence[Sequence]):
        ints = _primitive_ints([v for row in rows for v in row])
        self.m = tuple(tuple(ints[k:k + 3]) for k in (0, 3, 6))
        if self.det == 0:
            raise DegenerateTriple("projective map must be invertible")

    @property
    def det(self) -> int:
        return det3(self.m[0], self.m[1], self.m[2])

    @classmethod
    def identity(cls) -> "ProjMap2":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def apply(self, p: ProjPoint) -> ProjPoint:
        x, y, w = p.h
        return ProjPoint(*(r[0] * x + r[1] * y + r[2] * w for r in self.m))

    def apply_affine(self, points: Sequence[Sequence]) -> tuple[list[AffinePair], list[Fraction]]:
        """Affine images of points (x, y, ...), only x and y read, and the
        weight w = m[2] . (x, y, 1) of each; the image is
        (m[0] . (x, y, 1), m[1] . (x, y, 1)) / w.

        The horizon, the line the map sends to infinity, must leave all
        points strictly on one side: MapsVertexToInfinity for a point on it,
        ImageNotConvex when it separates two of them.
        """
        (a, b, c), (d, e, f), (g, h, i) = self.m
        weights = [Fraction(g * p[0] + h * p[1] + i) for p in points]
        if any(w == 0 for w in weights):
            raise MapsVertexToInfinity("a point maps to the line at infinity")
        if not (all(w > 0 for w in weights) or all(w < 0 for w in weights)):
            raise ImageNotConvex("the line sent to infinity separates the points")
        images = [((a * p[0] + b * p[1] + c) / w, (d * p[0] + e * p[1] + f) / w)
                  for p, w in zip(points, weights)]
        return images, weights

    def compose(self, inner: "ProjMap2") -> "ProjMap2":
        """self after inner: (self.compose(inner))(p) = self(inner(p))."""
        a, b = self.m, inner.m
        rows = [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        return ProjMap2(rows)

    def inverse(self) -> "ProjMap2":
        (a, b, c), (d, e, f), (g, h, i) = self.m
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        return ProjMap2(adj)

    def __repr__(self):
        return f"ProjMap2{self.m}"


def map_line_to_infinity(line: ProjLine, polygon: Polygon) -> ProjMap2:
    """An invertible map sending the given line to the line at infinity.

    The third row is proportional to the line's coordinates, with the sign
    chosen so every polygon vertex maps to w > 0; the other two rows are the
    standard basis rows away from the line's pivot coordinate.  Requires the
    line to miss the polygon.
    """
    sides = {line.side(polygon.vertex(k)) for k in range(polygon.n)}
    if 0 in sides or len(sides) != 1:
        raise LineMeetsPolygon(f"line {line!r} meets the polygon")
    sign = sides.pop()
    l = tuple(sign * v for v in line.h)
    pivot = next(k for k in range(3) if l[k] != 0)
    basis_rows = [row for k, row in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))) if k != pivot]
    return ProjMap2((basis_rows[0], basis_rows[1], l))


def affine_through_three(src: Sequence, dst: Sequence) -> ProjMap2:
    """The unique affine map carrying three independent points to three others."""
    s = [(Fraction(p[0]), Fraction(p[1])) for p in src]
    d = [(Fraction(p[0]), Fraction(p[1])) for p in dst]
    if len(s) != 3 or len(d) != 3:
        raise DegenerateTriple("need exactly three source and target points")
    if _orient(*s) == 0:
        raise DegenerateTriple("source points are collinear")
    if _orient(*d) == 0:
        raise DegenerateTriple("target points are collinear")
    # solve two 3x3 systems for the rows (m11 m12 m13), (m21 m22 m23)
    rows = []
    for coord in range(2):
        rows.append(_solve3(s, [d[k][coord] for k in range(3)]))
    return ProjMap2((rows[0], rows[1], (0, 0, 1)))


def _solve3(pts: Sequence[AffinePair], rhs: Sequence[Fraction]) -> tuple:
    """Solve sum(m1*x_k + m2*y_k + m3) = rhs_k by Cramer's rule."""
    a = [[pts[k][0], pts[k][1], Fraction(1)] for k in range(3)]
    det = det3(a[0], a[1], a[2])
    out = []
    for col in range(3):
        mod = [list(row) for row in a]
        for k in range(3):
            mod[k][col] = rhs[k]
        out.append(det3(mod[0], mod[1], mod[2]) / det)
    return tuple(out)
