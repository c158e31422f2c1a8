"""Exact polytope-section certification engine.

The flat H is always the canonical coordinate flat: a point of the ambient
d-space lies on H when its coordinates 3..d all vanish.  The off-H support
of a point is the set of those coordinates that are nonzero.  P is the
convex hull of the given vertices, and its section is the part of P on H.

Support lemma, exact in any dimension: if u and v have different off-H
supports, the segment [u, v] meets H at most at an endpoint that already
lies on H.  Say u_j != 0 = v_j; then (1-t) u_j = 0 forces t = 1, the
endpoint v.  So only segments between vertices of one nonempty support can
cross H anywhere else, at most MAX_PAIR_TESTS pairs (past it, ScaleExceeded
before the first test).  Within a support every support coordinate is
nonzero at both ends, so a pair crosses H exactly when the first support
coordinates have opposite signs, the only pairs tested (_section_points),
and the support coordinates are proportional.

Each vertex is held as its row (SectionedPolytope.rows, exactgeom._row):
the primitive integer (X, Y, Z_3, ..., Z_d, W), W > 0 the lcm of the
denominators of x, y and the support coordinates, 0 off them, the one
stored form: a file is read straight into rows (jsonio), every
construction builds them, and every layer reads them, the LP path and
JSON output too; the Fraction vertices (SectionedPolytope.vertices) are
derived from them on first read, for library users only.  Equal points
have equal rows, the keys of repeated vertices.
A planar point is the row of (x, y), the form of Polygon.lifts: a vertex
on H is (X, Y, W) of its row, primitive already, and rows u, v of one
support, first support coordinate j, cross H when Z_u,j and Z_v,j have
opposite signs and Z_u,k Z_v,j = Z_v,k Z_u,j on the rest of the support (W
cancels), at |Z_v,j| (X_u, Y_u, W_u) + |Z_u,j| (X_v, Y_v, W_v) divided by
its gcd (_segment_flat_crossing).  No Fraction is formed or hashed.  Every
reader takes the points, after the vertices on H, from _section_points.

The hull of the vertices on H and of these crossings lies in the section.
It is the whole section when every vertex has at most one nonzero
coordinate off H, as in 3-D and in every join this package builds.  Write
a point of the section as a convex combination of vertices and split the
terms by support {j}: only that block touches coordinate j, so its terms
sum to zero there, and the block's normalized part is a point on H of the
3-polytope conv(block).  A plane section of a 3-polytope is the hull of its
vertices on the plane and its edge crossings, so that point is in the hull
of the block's crossings.  SectionedPolytope.blocks, the block
decomposition computed at construction, decides whether a file takes this
path (and serves slack): for each vertex the index j of its one nonzero
coordinate off H, None on H; or None when some vertex has two.  It also
gives the supports crossed, so the off-H coordinates are scanned once.

The same split decides extreme points block by block (extreme_points).
Call the vertices on H the plane block, and call the planar points of a
block its own vertices for the plane block and its crossings for block k.
A vertex g of block j is not extreme exactly when its projection to
(x, y, z_j), or to (x, y) when g is on H, lies in the hull of the
projections of the other vertices of block j and of the planar points of
every other block, placed at z_j = 0.  If g is a convex combination of
the other vertices, split the terms by block: the part from a block
k != j sums to zero in coordinate k, where g is zero, so its normalized
part lies in conv(block k) on H, the hull of its crossings; the part from
the plane block is planar already; and the rest are vertices of block j,
which with g are zero off (x, y, z_j).  Conversely every planar point of
another block is a convex combination of that block's vertices, none of
them g, so a combination of the projections lifts to a convex
combination of the other vertices, which equals g because both are zero
off the projected coordinates.  A crossing equal to a vertex g on H rightly
makes g not extreme: g lies inside a segment between two other vertices.

On this path verify_section matches the claim's lifts (Polygon.lifts, the
form a claim is read into) against the points, with no hull and no
Fraction.  The claim is a Polygon, strictly convex and clockwise from the
lexicographic minimum at index 0 (its constructor validates), which
nothing here tests again.  The claim passes when (1) every claimed vertex
is one of the points; and (2) every other point lies in the closed claimed
polygon (polygon._encloses: two turns per point, at the edges over its x
that a bisection on the exact sort keys finds).  The keys are one
polygon._lift_keys call at the shift s = c + max(c, p), for claimed
weights below 2^c and weights of the other points below 2^p: (2) compares
claimed keys with claimed keys, exact for s >= 2c, and a point's key with
claimed keys, exact for s >= c + p; no two other points are compared, so
the default shift, twice the largest weight, is not needed (on a 140-gon
join c is 62 bits and p 212).  Then the hull of the points is the claimed
polygon: (2) puts the points inside it and (1) its vertices among them,
and the vertices of a strictly convex polygon are the vertices of its
hull, so the claim is the hull vertex for vertex, in canonical
order.  Conversely the hull of the points, when it is a polygon, passes
both.  compute_section, which hulls the points, is the reference the tests
compare this with.  A section of one point or a segment, where
compute_section gives fewer than three points, matches no claim: the three
or more vertices of a Polygon are not collinear.

Any other vertex set is certified by exact linear programs over the rows
of at most 64 distinct vertices (_distinct_rows): each claimed vertex,
placed on H, is a convex combination of the vertices, so the claim lies in
the section; and each edge inequality of the claim extends to P
(edge_extension), so the section lies in the claim.  By LP duality both
hold when the claim is the section.  The combination of a claimed vertex on H or at a crossing is
read off with no LP (_claim_columns).  slack factorizes every file
through the same two routines.

Only verify_section sets the certificate flag.  pullback, shear_fixing_flat
and bounded_pullback map rows to rows only, in integers: each fixes H as a
set, so the section of the image is the planar image of the section, and
the caller states that claim and certifies it.
"""

from __future__ import annotations

from fractions import Fraction
from bisect import bisect
from itertools import compress
from math import gcd
from typing import Optional, Sequence

from .errors import (
    CertificationFailure,
    EmptySection,
    ImageNotConvex,
    MapsVertexToInfinity,
    PullbackUnbounded,
    ScaleExceeded,
)
from .exactgeom import _ZERO, Triple, _dot, _primitive_ints, _row, cross
from .linalg import _fourier_motzkin_pairs, _nonnegative_combination, feasible_nonnegative_solution
from .polygon import (
    AffinePair,
    Polygon,
    ProjMap2,
    _encloses,
    _lift_keys,
    convex_hull_2d,
)

AmbientPoint = tuple[Fraction, ...]
Row = tuple[int, ...]  # (X, Y, Z_3, ..., Z_d, W), module docstring

__all__ = [
    "SectionedPolytope",
    "compute_section",
    "verify_section",
    "certify",
    "edge_extension",
    "shear_fixing_flat",
    "bounded_pullback",
    "extreme_points",
    "pullback",
]


class SectionedPolytope:
    """A polytope given by the rows of its vertices (module docstring), with
    a claimed planar section on H, a Polygon.

    A row is dim + 1 integers with W > 0, else ValueError (a negative W
    would flip every turn sign that the matching reads), and primitive by
    the caller's contract (exactgeom._row); each is stored as a tuple, the
    key of repeated vertices.  blocks is computed here.  vertices, the
    Fraction view derived on first read, is for library users: no package
    path reads it.  Only verify_section sets the certificate flag.
    """

    __slots__ = ("dim", "_vertices", "rows", "claimed", "certified", "blocks")

    def __init__(self, dim: int, rows: Sequence[Row], claimed: Polygon):
        if dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not isinstance(claimed, Polygon):
            raise TypeError(f"cannot interpret {claimed!r} as a planar section")
        self.dim, self.rows, self.claimed, self.certified, self._vertices = dim, tuple(map(tuple, rows)), claimed, False, None
        if any(len(row) != dim + 1 or row[-1] <= 0 for row in self.rows):
            raise ValueError(f"a vertex row is not {dim + 1} integers with W > 0")
        supports = [_support(row) for row in self.rows]
        self.blocks = (None if any(len(support) > 1 for support in supports)
                       else tuple(support[0] if support else None for support in supports))

    @property
    def vertices(self) -> tuple[AmbientPoint, ...]:
        """Fraction(X_k, W) of each row, the shared zero where X_k = 0."""
        if self._vertices is None:
            self._vertices = tuple(tuple([Fraction(c, row[-1]) if c else _ZERO for c in row[:-1]])
                                   for row in self.rows)
        return self._vertices

    def __repr__(self):
        return (f"SectionedPolytope(dim={self.dim}, vertices={len(self.rows)}, "
                f"certified={self.certified})")


def _segment_flat_crossing(u: Row, v: Row, support: tuple[int, ...]) -> Optional[Triple]:
    """Row of the planar point where segment [u, v] meets H, if it meets
    H at one point, for the rows of two vertices of the same nonempty
    off-H support (module docstring)."""
    j = support[0]
    a, b = u[j], v[j]
    if (a > 0) == (b > 0) or len(support) > 1 and any(u[k] * b != v[k] * a for k in support[1:]):
        return None
    p, q = abs(b), abs(a)
    x, y, w = p * u[0] + q * v[0], p * u[1] + q * v[1], p * u[-1] + q * v[-1]
    g = gcd(x, y, w)
    return x // g, y // g, w // g


def _support(row: Row) -> tuple[int, ...]:
    """The off-H support of a row: indices of its nonzero coordinates 3..d."""
    return tuple(compress(range(2, len(row) - 1), row[2:-1]))


MAX_PAIR_TESTS = 100_000  # about 2 s of crossing tests; package files make a few hundred


def _section_points(rows: Sequence[Row], supports: Sequence[tuple[int, ...]]):
    """The section's points (module docstring) as rows of (x, y), the form
    of Polygon.lifts; supports[k] is the off-H support of rows[k].

    Yields (k, None, lift) for each vertex k on H, in index order, then the
    unique crossings of H by segments between vertices of one nonempty
    support, (i, j, lift) in lexicographic (i, j) order, i < j; by the
    support lemma no other segment crosses H except at an endpoint on H.
    Only pairs whose first support coordinates have opposite signs are
    tested: a same-sign pair cannot cross.  Equal rows are equal vertices,
    crossed at their first index only (a later copy adds no crossing point,
    and no earlier pair).  ScaleExceeded, before any crossing test, past
    MAX_PAIR_TESTS pairs of distinct vertices of one support.
    """
    for k, (row, support) in enumerate(zip(rows, supports)):
        if not support:
            yield k, None, (row[0], row[1], row[-1])
    groups = {}
    for k, (row, support) in enumerate(zip(rows, supports)):
        if support:
            groups.setdefault(support, {}).setdefault(row, k)
    pairs = sum(len(members) * (len(members) - 1) // 2 for members in groups.values())
    if pairs > MAX_PAIR_TESTS:
        raise ScaleExceeded(f"{pairs} vertex pairs to cross with the flat")
    later = [()] * len(rows)
    for members in groups.values():
        sides = ([], [])  # by the sign of the first support coordinate, in index order
        for k in members.values():
            sides[rows[k][supports[k][0]] > 0].append(k)
        for side, other in (sides, sides[::-1]):
            for k in side:
                later[k] = other[bisect(other, k):]
    for i, partners in enumerate(later):
        for j in partners:
            point = _segment_flat_crossing(rows[i], rows[j], supports[i])
            if point is not None:
                yield i, j, point


def _section_columns(rows: Sequence[Row]) -> dict[Triple, dict]:
    """Sparse convex column of every point that a generator (of rows rows)
    or a generator segment contributes to the section, keyed by its lift.

    One entry per point of _section_points, the first kept, in integer
    pairs in lowest terms: (1, 1) for a generator on H, and for the crossing
    of generators i and j, of rows u and v, |Z_v,j| W_u and |Z_u,j| W_v
    over their sum, as unreduced pairs slow the product check.
    """
    supports = [_support(row) for row in rows]
    columns = {}
    for i, j, point in _section_points(rows, supports):
        if j is None:
            columns.setdefault(point, {i: (1, 1)})
        elif point not in columns:
            first = supports[i][0]
            p, q = _primitive_ints((abs(rows[j][first]) * rows[i][-1], abs(rows[i][first]) * rows[j][-1]))
            columns[point] = {i: (p, p + q), j: (q, p + q)}
    return columns


def _claim_columns(s: SectionedPolytope, distinct: dict[Row, int]) -> Optional[list[dict]]:
    """Sparse convex column over the generators (distinct, of s.rows) of each
    claimed vertex on H: its lift looked up in _section_columns, else one
    exact LP on integer columns (linalg._nonnegative_combination) of the
    row (X, Y, 0, ..., 0, W) of the lift against the generator rows, mu
    giving the weight pairs (N_k W_k, D_k W), mu_k = N_k / D_k; None
    outside their hull, with no point formed when there is no generator."""
    gens = list(distinct)
    columns = _section_columns(gens)
    out = []
    for lift in s.claimed.lifts:
        column = columns.get(lift)
        if column is None and gens:
            x, y, w = lift
            mu = _nonnegative_combination((x, y, *[0] * (s.dim - 2), w), gens)
            column = None if mu is None else {k: (n * g[-1], d * w) for k, (g, (n, d))
                                              in enumerate(zip(gens, (m.as_integer_ratio() for m in mu)))}
        if column is None:
            return None
        out.append(column)
    return out


def compute_section(vertices: Sequence[Sequence], dim: int) -> tuple[AffinePair, ...]:
    """Hull of the vertices on H and of the crossings of H by vertex segments,
    in canonical order (convex_hull_2d): one point, a sorted pair, or the
    vertices of the canonical Polygon.

    Coordinates are Fractions or ints.  The hull lies in the section of
    conv(vertices) by H and is all of it when no vertex has two nonzero
    coordinates off H.  verify_section matches a claim against the same
    points with no hull (module docstring); this is its reference.
    """
    if any(len(v) != dim for v in vertices):
        raise ValueError("vertex dimension mismatch")
    rows = [_row([c.as_integer_ratio() for c in v]) for v in vertices]
    hull = convex_hull_2d((Fraction(x, w), Fraction(y, w))
                          for _, _, (x, y, w) in _section_points(rows, list(map(_support, rows))))
    if not hull:
        raise EmptySection("the flat does not meet the polytope")
    return hull


def edge_extension(polygon: Polygon, i: int, rows: Sequence[Row]) -> Optional[list[Fraction]]:
    """Extend the inequality of edge (i, i+1) to the hull of the generators,
    given by their rows (X, Y, Z_3, ..., Z_d, W).

    With L_i the lifts of the polygon's vertices and l = cross(L_i, L_i+1),
    as in slack._edge_values, the planar slack of edge i at a generator g
    is -l . (X, Y, W) / (W_i W_i+1 W).  Returns c with that slack plus
    c . z >= 0 at every generator, z = (Z_3, ..., Z_d)/W, or None when there
    is none: one exact LP (feasible_nonnegative_solution) in mu+, mu- and
    a slack per generator, (mu+ - mu-) . z + slack_g = -(planar slack),
    with c = mu- - mu+.  Its entries are the affine values Z/W and the
    planar slacks, Fractions, as a row scaled to integers could pivot
    otherwise (linalg module docstring).
    """
    p, q = polygon.lifts[i], polygon.lifts[(i + 1) % polygon.n]
    edge, m = cross(p, q), p[2] * q[2]
    matrix, rhs = [], []
    for k, row in enumerate(rows):
        z = [Fraction(c, row[-1]) for c in row[2:-1]]
        matrix.append([*z, *(-c for c in z), *(int(k == j) for j in range(len(rows)))])
        rhs.append(Fraction(-_dot(edge, (row[0], row[1], row[-1])), m * row[-1]))
    x = feasible_nonnegative_solution(matrix, rhs)
    if x is None:
        return None
    free = len(rows[0]) - 3
    return [b - a for a, b in zip(x[:free], x[free:2 * free])]


def _claim_is_section(s: SectionedPolytope) -> bool:
    """Whether the claimed polygon is the section of the hull of s.rows, by exact LPs.

    Each claimed vertex, placed on H, is a convex combination of the
    distinct rows (_claim_columns), and each edge inequality extends to
    the polytope (edge_extension).
    """
    distinct = _distinct_rows(s.rows, s.dim)
    gens = list(distinct)
    return (_claim_columns(s, distinct) is not None
            and all(edge_extension(s.claimed, i, gens) is not None for i in range(s.claimed.n)))


def _claim_matches_crossings(s: SectionedPolytope) -> bool:
    """Whether the claimed polygon is the hull of the vertices on H and of
    the crossings, for a file with blocks, matched on lifts with no hull
    (module docstring).  The supports crossed are read off s.blocks."""
    supports = [() if j is None else (j,) for j in s.blocks]
    points = {point for _, _, point in _section_points(s.rows, supports)}
    claim = s.claimed.lifts
    if not points.issuperset(claim):
        return False
    # one set of exact sort keys, the claim's first, at the shift of the
    # module docstring
    others = list(points.difference(claim))
    c, p = (max((w for _, _, w in part), default=1).bit_length() for part in (claim, others))
    order, n = _lift_keys([*claim, *others], c + max(c, p)), len(claim)
    return _encloses(claim, order[:n], others, order[n:])


def verify_section(s: SectionedPolytope) -> bool:
    """Check the claim against the section, exactly.

    With at most one nonzero coordinate off H per vertex (s.blocks is not
    None) the section is the hull of the vertices on H and of the
    crossings, and the claim must be that hull, canonical vertex for
    vertex: a Polygon whose vertices are among those points and which
    contains the rest (_claim_matches_crossings; module docstring).  Otherwise the claim is
    checked by exact LPs (_claim_is_section).  Sets (and returns) the
    certificate flag.
    """
    s.certified = _claim_matches_crossings(s) if s.blocks is not None else _claim_is_section(s)
    return s.certified


def certify(s: SectionedPolytope) -> SectionedPolytope:
    """verify_section, raising on failure.  Each construction pipeline ends in one call."""
    if not verify_section(s):
        raise CertificationFailure(
            f"section certificate failed for {s!r}; rows={s.rows!r}, "
            f"claimed={s.claimed!r}"
        )
    return s


def _distinct_rows(rows: Sequence[Row], dim: int) -> dict[Row, int]:
    """Each distinct row, in first-occurrence order, with the index of its
    last copy (equal rows, equal points), within the input bound: from
    dimension 4 on, more than 64 are refused with ScaleExceeded."""
    distinct = {row: k for k, row in enumerate(rows)}
    if dim >= 4 and len(distinct) > 64:
        raise ScaleExceeded(f"{len(distinct)} points in dimension {dim}")
    return distinct


def extreme_points(rows: Sequence[Row], dim: int) -> list[Row]:
    """The rows of the distinct vertices, in first-occurrence order, that
    are not convex combinations of the others, for the rows of a polytope
    (SectionedPolytope.rows).

    Duplicates are removed first (_distinct_rows, which also enforces the
    input bound, before any crossing or LP); then each distinct vertex is
    decided by one exact LP on integer columns, rows or planar rows with
    the weight last (linalg._nonnegative_combination).  When some vertex has
    two nonzero coordinates off H, the LP is over all the other vertices,
    in the full dimension.  Otherwise it is the block rule of the module
    docstring: a vertex of block j is tested in (x, y, z_j), a vertex on H
    in (x, y), against the other vertices of its block and the planar
    points of every other block (the vertices on H, or a block's
    crossings, from one _section_points enumeration; ScaleExceeded past
    MAX_PAIR_TESTS pairs).  With a single block there are no other blocks
    and no enumeration, and the LPs are those over all the other vertices.
    """
    rows = list(_distinct_rows(rows, dim))
    supports = [_support(row) for row in rows]
    if any(len(support) > 1 for support in supports):
        return [row for i, row in enumerate(rows)
                if _nonnegative_combination(row, rows[:i] + rows[i + 1:]) is None]
    blocks = [support[0] if support else None for support in supports]
    planar = {}
    if len(set(blocks)) > 1:
        for i, _, lift in _section_points(rows, supports):
            planar.setdefault(blocks[i], []).append(lift)
    out = []
    for i, (row, j) in enumerate(zip(rows, blocks)):
        # the block's own coordinates and W, and z_j = 0 at the other blocks' points
        axes, pad = ((0, 1, -1), ()) if j is None else ((0, 1, j, -1), (0,))
        gens = [tuple(r[k] for k in axes) for m, r in enumerate(rows) if m != i and blocks[m] == j]
        gens += [(x, y, *pad, w) for k, points in planar.items() if k != j for x, y, w in points]
        if _nonnegative_combination(tuple(row[k] for k in axes), gens) is None:
            out.append(row)
    return out


def pullback(rows: Sequence[Row], planar: ProjMap2) -> list[Row]:
    """The rows of vertices carried through the lift of a planar map to d-space.

    The lift applies the planar map to (x, y) and divides coordinates 3..d
    by the same weight w, so it carries H to itself: the row with lift
    P = (X, Y, W) goes to (m0 . P, m1 . P, Z_3, ..., Z_d, m2 . P)
    (ProjMap2.apply), negated when m2 . P < 0 and divided by its gcd.  Every
    vertex must land at a finite point with one sign of w, otherwise the
    image is unbounded and PullbackUnbounded is raised.
    """
    try:
        images = planar.apply([(row[0], row[1], row[-1]) for row in rows])
    except (MapsVertexToInfinity, ImageNotConvex) as exc:
        raise PullbackUnbounded(f"the pullback is unbounded: {exc}") from exc
    sign = -1 if images and images[0][2] < 0 else 1  # the weights have one sign
    return [tuple(_primitive_ints([sign * x, sign * y, *[sign * z for z in row[2:-1]], sign * w]))
            for (x, y, w), row in zip(images, rows)]


def shear_fixing_flat(rows: Sequence[Row], u: tuple) -> list[Row]:
    """Apply the affine shear (x, y, z) -> (x + u1 z, y + u2 z, z) to the
    rows (X, Y, Z, W) of 3-D vertices: for u1 = p1/q1 and u2 = p2/q2, ints,
    Fractions or integer pairs (p, q) with q > 0,
    (q X + p1 q2 Z, q Y + p2 q1 Z, q Z, q W) over its gcd, q = q1 q2.

    The shear fixes H pointwise, so the section carries over unchanged.
    """
    (p1, q1), (p2, q2) = [v if type(v) is tuple else v.as_integer_ratio() for v in u]
    q, a1, a2 = q1 * q2, p1 * q2, p2 * q1
    return [tuple(_primitive_ints([q * x + a1 * z, q * y + a2 * z, q * z, q * w])) for x, y, z, w in rows]


def bounded_pullback(rows: Sequence[Row], planar: ProjMap2) -> list[Row]:
    """Pullback of the rows of the vertices of a 3-dimensional extension:
    the plain lift when the weights h . P of their lifts P = (X, Y, W), h
    the horizon row of the planar map, have one strict sign, and otherwise
    a sheared one.  As W > 0, h . P has the sign of h . (x, y, 1), and the
    slope bounds -(h . P)/Z are those of the affine point, -h . (x, y, 1)/z.

    Any shear fixing H pointwise yields another valid extension of the same
    section, and shifts each vertex's horizon value by a slope rho times its
    height Z.  rho is the Fourier-Motzkin point (linalg._fourier_motzkin_pairs)
    of s (h . P + rho Z) >= 0 for the first sign s of 1, -1 at which every
    s (h . P + rho Z) > 0: the midpoint rule picks an interior point exactly
    when the open interval of such slopes is not empty, so the pullback is
    bounded whenever any H-invariant lift of the planar map can make it.

    In 3-D some slope always works when the planar map is finite on the
    section.  The horizon of the lifted map is the plane through the
    horizon line l of H that is vertical to H, and sheared lifts turn that
    plane about l; every plane through l other than H is reached this way.
    l misses the section, hence misses P.  Projecting along l sends l to a
    point outside the projected polygon of P, and a line through that point
    missing the polygon lifts to a plane through l missing P; that plane is
    not H, which meets P.  The feasible slope interval is therefore never
    empty.  PullbackUnbounded, should it still be raised, is an internal
    failure.  Like pullback, it maps rows only; the section of the image is
    the planar image of the section.
    """
    h1, h2, h3 = planar.m[2]
    values = [(h1 * x + h2 * y + h3 * w, z) for x, y, z, w in rows]  # (h . P, Z)
    if all(v > 0 for v, _ in values) or all(v < 0 for v, _ in values):
        return pullback(rows, planar)
    for s in (1, -1):
        # s (h . P + rho Z) >= 0 for every row, in the one variable rho
        point = _fourier_motzkin_pairs([(0, s * z, -s * v) if z else (None, 0, -s * v)
                                        for v, z in values], 1)
        if point is not None:
            rn, rd = point[0]
            if all(s * (v * rd + rn * z) > 0 for v, z in values):
                break
    else:
        raise PullbackUnbounded("no H-fixing shear bounds the pullback")
    # h1 = h2 = 0 gives the weights h3 W, of one strict sign: returned above
    h = h1 or h2
    slope = (rn, rd * h) if h > 0 else (-rn, -rd * h)  # rho / h
    u = (slope, (0, 1)) if h1 != 0 else ((0, 1), slope)
    return pullback(shear_fixing_flat(rows, u), planar)
