"""Convex polygons with clockwise cyclic labeling, and planar maps.

A Polygon stores the integer lift of each vertex (Polygon.lifts), its one
form, which every package path reads: a claim read from a file goes
straight into lifts (jsonio, _validate_lifts), and is written back from
them; the matching of verify, the LP path and the constructions form no
Fraction vertex.  Its affine pairs of Fractions (Polygon.vertices) are
derived from the lifts on first read, for library users, svg drawing and
messages.  The canonical labeling, the
order that convex_hull_2d returns and validate() ends in, is clockwise
(the triangle (p_{i+2}, p_{i+1}, p_i) is positively oriented for every i)
with the lexicographically smallest vertex at index 0.  Operations that
need a specific index alignment take their own index parameter instead of
relying on the canonical rotation.

Orientation is an integer determinant sign.  An affine point (x, y) is
lifted to its row (exactgeom._row), the canonical triple (xW, yW, W) with
W > 0 the lcm of the denominators, so the sign of the 3x3 determinant of
three lifts is the sign of their turn.

Points are ordered by exact integer keys, read off the lifts (_lift_keys).
A lift (X, Y, W) is the point (X/W, Y/W).  When every weight of a set of
lifts is below 2^(s/2), the key (X << s) // W of X/W is floor(x 2^s), and
two distinct values X1/W1 != X2/W2 differ by at least 1/(W1 W2) > 2^-s,
so their keys differ and keep their order, while equal values give equal
keys.  Only the weights of the two keys compared enter: W1 W2 < 2^s is
enough for that pair, which lets sections' matching compare a claim with
points of larger weights at a smaller shift.  Sorting and deduplication
compare ints only.  convex_hull_2d lifts each point once, sorts on the
keys and runs the monotone chain on the turn signs, and no Fraction is
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

Planar maps are projective (ProjMap2), integer rows.  frame_map builds
each normalization map from its frame, three points sent to (0, 0), (1, 0)
and (0, 1) and a line sent to infinity, in one step.  Maps act on lifts in one
place, ProjMap2.apply, which refuses points on or across the line the map
sends to infinity.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    DegenerateTriple,
    DuplicateVertex,
    ImageNotConvex,
    MapsVertexToInfinity,
    NotConvex,
    TooFewVertices,
)
from .exactgeom import Triple, _dot, _primitive_ints, _row, det3, join

AffinePair = tuple[Fraction, Fraction]

__all__ = ["Polygon", "ProjMap2", "validate", "frame_map", "convex_hull_2d"]


def _fraction(c) -> Fraction:
    """c as a Fraction; a Fraction is kept, as converting it again costs
    an abstract-base-class check."""
    return c if type(c) is Fraction else Fraction(c)


def _turn(a: tuple[int, int, int], b: tuple[int, int, int], c: tuple[int, int, int]) -> int:
    """Sign of the turn through three lifts: 1 counterclockwise, -1 clockwise,
    0 collinear.  The weights are positive, so the sign of the integer
    determinant is the sign of the rational one."""
    d = det3(a, b, c)
    return (d > 0) - (d < 0)


def _lift_keys(lifts: Sequence[tuple[int, int, int]], s: Optional[int] = None) -> list[tuple[int, int]]:
    """The exact integer key pair of every lifted point: (X << s) // W and
    (Y << s) // W, with s by default twice the largest weight bit length,
    so that every weight is below 2^(s/2) (module docstring).  A caller
    that compares only some pairs of keys may pass a smaller s that is
    at least the sum of the bit lengths of the two weights of each pair."""
    if s is None:
        s = 2 * max((w for _, _, w in lifts), default=1).bit_length()
    return [((x << s) // w, (y << s) // w) for x, y, w in lifts]


def _convex_cycle(lifts: Sequence[tuple[int, int, int]], keys: Sequence[tuple[int, int]]) -> int:
    """The turn sign, -1 clockwise or 1 counterclockwise, of points that in
    their given cyclic order are the vertices of a strictly convex polygon,
    each once; 0 for any other points (fewer than three included).  Linear
    (module docstring): the cyclic turns of the lifts have one strict sign,
    and from the smallest exact key (_lift_keys) the keys rise strictly to
    the largest and then fall strictly."""
    n = len(lifts)
    turns = {_turn(lifts[k - 2], lifts[k - 1], lifts[k]) for k in range(n)}
    rises = [keys[k - 1] < keys[k] for k in range(n)]
    if len(turns) == 1 and sum(rises[k - 1] != rises[k] for k in range(n)) == 2:
        return turns.pop()
    return 0


def _encloses(lifts: Sequence[tuple[int, int, int]], keys: Sequence[tuple[int, int]],
              point_lifts: Sequence[tuple[int, int, int]], point_keys: Sequence[tuple[int, int]]) -> bool:
    """Whether every given point lies in the closed strictly convex polygon
    whose vertices run clockwise from the smallest key (_convex_cycle gives
    -1, and keys[0] is the minimum); all keys are of one _lift_keys call.

    The keys rise along the upper chain, from vertex 0 to the largest key
    at vertex m, and fall along the lower chain back to vertex 0.  Only the
    upper chain can start with a vertical edge (up from vertex 0), and only
    the lower one (down from vertex m).  A point between the smallest and
    the largest x lies in the polygon exactly when it is on or right of the
    non-vertical edge of each chain over its x, that is at or below the
    upper chain and at or above the lower one.  Those edges are found by
    bisection on the x keys, so each point costs two turns.
    """
    m = keys.index(max(keys))
    lower = [0, *range(len(keys) - 1, m - 1, -1)]
    upper_x = [key[0] for key in keys[:m + 1]]
    lower_x = [keys[k][0] for k in lower]
    for p, (x, _) in zip(point_lifts, point_keys):
        if not upper_x[0] <= x <= upper_x[-1]:
            return False
        j = min(bisect_right(upper_x, x), m)
        i = max(bisect_left(lower_x, x), 1)
        if _turn(lifts[j - 1], lifts[j], p) > 0 or _turn(lifts[lower[i]], lifts[lower[i - 1]], p) > 0:
            return False
    return True


def _hull_order(lifts: Sequence[tuple[int, int, int]], keys: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the strict convex hull of the lifted points in canonical
    order, the first given of equal points; keys from one _lift_keys call.

    The points are sorted and deduplicated on their exact keys (distinct
    values, at least 2^-s apart, never share a key); the monotone chain then
    runs over the distinct points on integer determinant signs, turning
    clockwise.
    """
    order = sorted(range(len(lifts)), key=keys.__getitem__)
    order = [k for pos, k in enumerate(order) if pos == 0 or keys[k] != keys[order[pos - 1]]]
    if len(order) <= 2:
        return order
    hull: list[int] = []
    for chain in (order, order[::-1]):
        base = len(hull)
        for k in chain:
            while len(hull) >= base + 2 and _turn(lifts[hull[-2]], lifts[hull[-1]], lifts[k]) >= 0:
                hull.pop()
            hull.append(k)
        hull.pop()  # each half ends where the other begins
    return hull


def convex_hull_2d(points: Iterable[AffinePair]) -> tuple[AffinePair, ...]:
    """Strict convex hull (collinear boundary points dropped) in canonical
    order: the lexicographically smallest point first, then clockwise.  One
    point gives (p,), two the sorted pair, and three or more the vertices
    of the canonical Polygon.

    Each point is lifted once to integers and ordered on the exact integer
    keys of its lift (_lift_keys), with no Fraction compared (_hull_order).
    The hull holds the given pair objects themselves, the first given of
    equal points.
    """
    pts = list(points)
    lifts = [_row([x.as_integer_ratio(), y.as_integer_ratio()]) for x, y in pts]
    return tuple(pts[k] for k in _hull_order(lifts, _lift_keys(lifts)))


class Polygon:
    """Strictly convex polygon, cyclically clockwise labeled, held as the
    rows of its vertices: lifts[i] (exactgeom._row), the one stored form.
    vertices[i] is the affine pair (Fraction(X, W), Fraction(Y, W)) of
    lifts[i], derived on first read for library users, not read by JSON
    output or the LP path.  validate or _validate_lifts builds every
    Polygon."""

    __slots__ = ("lifts", "_vertices")

    def __init__(self, lifts: Sequence[Triple]):
        self.lifts, self._vertices = tuple(lifts), None

    @property
    def vertices(self) -> tuple[AffinePair, ...]:
        if self._vertices is None:
            self._vertices = tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in self.lifts)
        return self._vertices

    @property
    def n(self) -> int:
        return len(self.lifts)

    def vertex(self, i: int) -> Triple:
        """Vertex i, cyclically, as its canonical integer triple for the
        projective kernel."""
        return self.lifts[i % len(self.lifts)]

    def __eq__(self, other):
        # lifts are canonical: equal points have equal lifts
        return isinstance(other, Polygon) and self.lifts == other.lifts

    def __hash__(self):
        return hash(self.lifts)

    def __repr__(self):
        coords = ", ".join(f"({x},{y})" for x, y in self.vertices)
        return f"Polygon[{coords}]"


def validate(points: Iterable[Sequence]) -> Polygon:
    """Build the canonical Polygon from affine rational pairs.

    Accepts exactly the strictly convex polygons in cyclic order, in linear
    time (module docstring), and returns the lifts of the input pairs
    (_validate_lifts), rotated to the lexicographic minimum, reversed when
    they turn counterclockwise.
    Rejects repeated points (DuplicateVertex), collinear or interior points,
    and convex-position points out of cyclic order (NotConvex).
    """
    return _validate_lifts([_row([_fraction(p[0]).as_integer_ratio(), _fraction(p[1]).as_integer_ratio()])
                            for p in points])


def _validate_lifts(lifts: Sequence[Triple]) -> Polygon:
    """validate on the lifts of the points (exactgeom._row), with the same
    errors, in the same linear time."""
    n = len(lifts)
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    keys = _lift_keys(lifts)
    turn = _convex_cycle(lifts, keys)
    if turn:
        m = keys.index(min(keys))
        return Polygon([lifts[(m - turn * k) % n] for k in range(n)])
    # the keys are exact: equal keys are equal points
    if len(set(keys)) != n:
        raise DuplicateVertex("duplicate vertices in input")
    if len(_hull_order(lifts, keys)) != n:
        raise NotConvex("input contains collinear or interior points")
    raise NotConvex("vertex order does not trace the convex hull")


def _primitive_matrix(rows: Sequence[Sequence[int]]) -> tuple[Triple, Triple, Triple]:
    """The rows of a 3x3 integer matrix divided by the gcd of its entries."""
    ints = _primitive_ints([v for row in rows for v in row])
    return tuple(tuple(ints[k:k + 3]) for k in (0, 3, 6))


class ProjMap2:
    """Invertible projective map of the plane, a 3x3 integer matrix up to scale."""

    __slots__ = ("m",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.m = _primitive_matrix(rows)
        if self.det == 0:
            raise DegenerateTriple("projective map must be invertible")

    @property
    def det(self) -> int:
        return det3(self.m[0], self.m[1], self.m[2])

    def apply(self, points: Sequence[Sequence[int]]) -> list[Triple]:
        """The image m . P of each lift P = (X, Y, W), W > 0, not reduced;
        its weight m[2] . P has the sign of the weight m[2] . (x, y, 1) of
        the affine point (x, y) = (X/W, Y/W).

        The horizon, the line the map sends to infinity, must leave all
        points strictly on one side: MapsVertexToInfinity for a point on it,
        ImageNotConvex when it separates two of them.
        """
        m0, m1, m2 = self.m
        images = [(_dot(m0, p), _dot(m1, p), _dot(m2, p)) for p in points]
        if any(w == 0 for _, _, w in images):
            raise MapsVertexToInfinity("a point maps to the line at infinity")
        if not (all(w > 0 for _, _, w in images) or all(w < 0 for _, _, w in images)):
            raise ImageNotConvex("the line sent to infinity separates the points")
        return images

    def inverse(self) -> "ProjMap2":
        """The inverse map: the adjugate of m divided by its gcd.  The
        adjugate of an invertible matrix has determinant det^2 != 0, so
        __init__'s test is not repeated.  The gcd stays: the scale of the
        matrix reaches the shear slope of bounded_pullback, a Fourier-Motzkin
        midpoint (linalg._fourier_motzkin_pairs) that is not scale-invariant."""
        (a, b, c), (d, e, f), (g, h, i) = self.m
        inverse = object.__new__(ProjMap2)
        inverse.m = _primitive_matrix((
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        ))
        return inverse

    def __repr__(self):
        return f"ProjMap2{self.m}"


def frame_map(origin: Triple, x_unit: Triple, y_unit: Triple, horizon: Triple) -> ProjMap2:
    """The map sending origin, x_unit and y_unit to (0, 0), (1, 0) and (0, 1),
    and the horizon to the line at infinity.

    Three points and a line are eight conditions, so the frame fixes the
    map up to scale.  Its rows are the line through origin and y_unit (the
    image's x), the line through origin and x_unit (its y) and the horizon
    (its weight), each scaled by dot products so that x_unit and y_unit
    land at x = w and y = w; the sign gives origin a positive weight, so
    of all representatives only a negated origin changes the matrix, to
    its negative.  A collinear frame, equal units included, or a frame
    point on the horizon gives a singular matrix (DegenerateTriple); a unit
    equal to the origin a degenerate join (DegenerateJoin).
    """
    ly, lx = join(origin, y_unit), join(origin, x_unit)
    at_x, at_y = _dot(ly, x_unit), _dot(lx, y_unit)
    s3 = at_x * at_y
    sign = -1 if s3 * _dot(horizon, origin) < 0 else 1
    s1 = sign * _dot(horizon, x_unit) * at_y
    s2 = sign * _dot(horizon, y_unit) * at_x
    return ProjMap2(([s1 * v for v in ly], [s2 * v for v in lx], [sign * s3 * v for v in horizon]))
