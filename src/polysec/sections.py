"""Exact polytope-section certification engine.

The flat H is always the canonical coordinate flat: a point of the ambient
d-space lies on H when its coordinates 3..d all vanish.  The off-H support
of a point is the set of those coordinates that are nonzero.  P is the
convex hull of the given vertices, and its section is the part of P on H.

Support lemma, exact in any dimension: if u and v have different off-H
supports, the segment [u, v] meets H at most at an endpoint that already
lies on H.  Say u_j != 0 = v_j; then (1-t) u_j = 0 forces t = 1, the
endpoint v.  So only segments between vertices of one nonempty support can
cross H anywhere else, and only those pairs are tested (_section_points),
at most MAX_PAIR_TESTS of them (past it, ScaleExceeded before the first
test).  Within a support every support coordinate is nonzero at both ends,
so a pair crosses H exactly when the first support coordinates have
opposite signs and the support coordinates are proportional.  Each vertex
off H is read once, into its integer key: the (numerator, denominator)
pairs of x, y and its support coordinates.  The crossings are tested and
computed on these keys (_segment_flat_crossing), which yields the planar
point only, as polygon._lift of its Fraction pair (one gcd per coordinate),
so equal points have equal lifts, and no Fraction is formed or hashed.
Every reader takes them, after the vertices on H, from _section_points;
only _section_columns forms the parameter t of a crossing.

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

On this path verify_section matches the claim's lifts (Polygon.lifts, made
by validate) against the points, with no hull.  The claim passes when (1)
it is strictly convex in canonical order: validate's linear test
(polygon._convex_cycle) turns clockwise, from the lexicographic minimum at
index 0; (2) every claimed vertex is one of the points; and (3) every
other point lies in the closed claimed polygon (polygon._encloses: two
turns per point, at the edges over its x that a bisection on the exact
sort keys finds).  Then the hull of the points is the claimed polygon:
(3) puts the points inside it and (2) its vertices among
them, and the vertices of a strictly convex polygon are the vertices of
its hull, so the claim is the hull vertex for vertex, in canonical order.
Conversely the hull of the points, when it is a polygon, passes all three.
compute_section, which hulls the points, is the reference the tests
compare this with.  A claim of fewer than three vertices is no polygon
and fails, where compute_section gives one point or a segment.

Any other vertex set is certified by exact linear programs over at most
64 distinct vertices (distinct_points): each claimed vertex, placed on H,
is a convex combination of the vertices, so the claim lies in the section;
and each edge inequality of the claim extends to P (edge_extension), so the
section lies in the claim.  By LP duality both hold when the claim is the
section.  The combination of a claimed vertex on H or at a crossing is
read off with no LP (_claim_columns).  slack factorizes every file
through the same two routines.

Only verify_section sets the certificate flag.  pullback, shear_fixing_flat
and bounded_pullback map vertex lists only: each fixes H as a set, so the
section of the image is the planar image of the section, and the caller
states that claim and certifies it.
"""

from __future__ import annotations

from fractions import Fraction
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
from .exactgeom import _ZERO, Triple
from .linalg import (
    convex_coefficients,
    feasible_nonnegative_solution,
    interval_point,
)
from .polygon import (
    AffinePair,
    Polygon,
    ProjMap2,
    _convex_cycle,
    _encloses,
    _lift,
    _lift_keys,
    convex_hull_2d,
)

AmbientPoint = tuple[Fraction, ...]

__all__ = [
    "SectionedPolytope",
    "compute_section",
    "verify_section",
    "certify",
    "edge_extension",
    "shear_fixing_flat",
    "bounded_pullback",
    "distinct_points",
    "extreme_points",
    "pullback",
]


class SectionedPolytope:
    """A vertex-described polytope with a claimed planar section on H, a Polygon.

    The certificate flag is only ever set by verify_section.  blocks, the
    block decomposition (module docstring), is computed at construction.
    """

    __slots__ = ("dim", "vertices", "claimed", "certified", "blocks")

    def __init__(self, dim: int, vertices: Sequence[Sequence], claimed: Polygon):
        if dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        self.dim = dim
        verts = []
        supports = []
        for v in vertices:
            v = tuple(v)
            # one C-level type test per vertex: only a vertex holding a
            # non-Fraction is converted
            if set(map(type, v)) != {Fraction}:
                v = tuple(c if type(c) is Fraction else Fraction(c) for c in v)
            if len(v) != dim:
                raise ValueError(f"vertex {v} does not have dimension {dim}")
            verts.append(v)
            supports.append(_support(v))
        self.vertices = tuple(verts)
        self.blocks = (None if any(len(support) > 1 for support in supports)
                       else tuple(support[0] if support else None for support in supports))
        if not isinstance(claimed, Polygon):
            raise TypeError(f"cannot interpret {claimed!r} as a planar section")
        self.claimed = claimed
        self.certified = False

    def __repr__(self):
        return (f"SectionedPolytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"certified={self.certified})")


def _segment_flat_crossing(u: tuple, v: tuple) -> Optional[Triple]:
    """Lift of the planar point where segment [u, v] meets H, if it meets
    H at one point, for two vertices of the same nonempty off-H support.

    u and v are the vertices' integer keys (_section_points): one
    (numerator, denominator) pair for each of x, y and the support
    coordinates, which are nonzero at both ends.  (1-t) u_j + t v_j = 0
    pins t = u_j / (u_j - v_j), which lies in [0, 1] exactly when u_j and
    v_j have opposite signs, and every support coordinate pins the same t
    exactly when (u_j, v_j) and (u_k, v_k) are proportional; both tests
    run on the integers.  t itself is not formed (only _section_columns
    needs it): with a = u_j, b = v_j, p = |a.num| b.den and
    q = |b.num| a.den (both positive), t = p / (p + q), 1 - t = q / (p + q)
    and x = (q u_x.num v_x.den + p v_x.num u_x.den) / ((p + q) u_x.den v_x.den),
    y likewise, each brought to lowest terms by one gcd; the denominators
    are positive, so the lift is polygon._lift of the Fractions.
    """
    (an, ad), (bn, bd) = u[2], v[2]
    if (an > 0) == (bn > 0):
        return None
    for k in range(3, len(u)):
        # a v_k == b u_k, cross-multiplied
        (cn, cd), (dn, dd) = u[k], v[k]
        if an * dn * bd * cd != bn * cn * ad * dd:
            return None
    p, q = (an * bd, -bn * ad) if an > 0 else (-an * bd, bn * ad)
    s = p + q
    (xn, xd), (yn, yd) = u[0], u[1]
    (zn, zd), (wn, wd) = v[0], v[1]
    x, x_den = q * xn * zd + p * zn * xd, s * xd * zd
    y, y_den = q * yn * wd + p * wn * yd, s * yd * wd
    g, h = gcd(x, x_den), gcd(y, y_den)
    x, x_den, y, y_den = x // g, x_den // g, y // h, y_den // h
    return x * y_den, y * x_den, x_den * y_den


def _support(v: Sequence) -> tuple[int, ...]:
    """The off-H support of v: indices of its nonzero coordinates 3..d."""
    # the shared zero of parsed files is settled without Fraction.__bool__
    return tuple(k for k, c in enumerate(v[2:], 2) if c is not _ZERO and c)


MAX_PAIR_TESTS = 100_000  # about 2 s of crossing tests; package files make a few hundred


def _section_points(vertices: Sequence[Sequence], supports: Sequence[tuple[int, ...]]):
    """The section's points (module docstring) as planar lifts
    (polygon._lift); supports[k] is the off-H support of vertices[k].

    Yields (k, None, lift) for each vertex k on H, in index order, then the
    unique crossings of H by segments between vertices of one nonempty
    support, (i, j, lift) in lexicographic (i, j) order, i < j; by the
    support lemma no other segment crosses H except at an endpoint on H.
    Each vertex off H is read once, into its integer key: the (numerator,
    denominator) pairs of x, y and its support coordinates, which within
    one support fix the vertex.  The keys find repeated vertices, crossed
    at their first index only (a later copy adds no crossing point, and no
    earlier pair), and are what _segment_flat_crossing crosses.
    ScaleExceeded, before any crossing test, past MAX_PAIR_TESTS pairs of
    distinct vertices.
    """
    for k, (v, support) in enumerate(zip(vertices, supports)):
        if not support:
            yield k, None, _lift(v[:2])
    groups = {}
    keys = [None] * len(vertices)
    for k, (v, support) in enumerate(zip(vertices, supports)):
        if support:
            # integer pairs hash without the modular inverse of a Fraction
            keys[k] = key = tuple((c.numerator, c.denominator)
                                  for c in (v[0], v[1], *(v[j] for j in support)))
            groups.setdefault(support, {}).setdefault(key, k)
    pairs = sum(len(members) * (len(members) - 1) // 2 for members in groups.values())
    if pairs > MAX_PAIR_TESTS:
        raise ScaleExceeded(f"{pairs} vertex pairs to cross with the flat")
    later = [()] * len(vertices)
    for members in groups.values():
        members = list(members.values())
        for pos, k in enumerate(members):
            later[k] = members[pos + 1:]
    for i, partners in enumerate(later):
        for j in partners:
            point = _segment_flat_crossing(keys[i], keys[j])
            if point is not None:
                yield i, j, point


def _section_columns(gens: Sequence[AmbientPoint]) -> dict[Triple, dict]:
    """Sparse convex column of every point that a generator or a generator
    segment contributes to the section, keyed by its lift.

    One entry per point of _section_points, the first kept: a unit column
    for a generator on H, and for the crossing of [gens[i], gens[j]] the
    weights 1 - t and t for t = a / (a - b) on the first support
    coordinate, a at gens[i] and b at gens[j].
    """
    supports = [_support(g) for g in gens]
    columns = {}
    for i, j, point in _section_points(gens, supports):
        if j is None:
            columns.setdefault(point, {i: Fraction(1)})
        elif point not in columns:
            first = supports[i][0]
            a, b = gens[i][first], gens[j][first]
            t = a / (a - b)
            columns[point] = {i: 1 - t, j: t}
    return columns


def _claim_columns(polygon: Polygon, gens: Sequence[AmbientPoint], dim: int) -> Optional[list[dict]]:
    """Sparse convex column over gens of each polygon vertex placed on H: its
    lift (Polygon.lifts) looked up in _section_columns, else one exact LP
    (convex_coefficients); None when a vertex is outside conv(gens)."""
    columns = _section_columns(gens)
    on_flat = (Fraction(0),) * (dim - 2)
    out = []
    for point, lift in zip(polygon.vertices, polygon.lifts):
        column = columns.get(lift)
        if column is None:
            weights = convex_coefficients((*point, *on_flat), gens)
            if weights is None:
                return None
            column = dict(enumerate(weights))
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
    supports = [_support(v) for v in vertices]
    hull = convex_hull_2d((Fraction(x, w), Fraction(y, w))
                          for _, _, (x, y, w) in _section_points(vertices, supports))
    if not hull:
        raise EmptySection("the flat does not meet the polytope")
    return hull


def edge_extension(polygon: Polygon, i: int, gens: Sequence[AmbientPoint]) -> Optional[list[Fraction]]:
    """Extend the inequality a . x <= b of edge (i, i+1) to conv(gens).

    Returns c with b - a . g[:2] + c . g[2:] >= 0 at every generator g, or
    None when there is none: one exact LP (feasible_nonnegative_solution)
    in mu+, mu- and a slack per generator,
    (mu+ - mu-) . g[2:] + slack_g = b - a . g[:2], with c = mu- - mu+.
    """
    (a1, a2), b = polygon.edge_inequality(i)
    matrix = [[*g[2:], *(-c for c in g[2:]), *(Fraction(int(k == m)) for k in range(len(gens)))]
              for m, g in enumerate(gens)]
    x = feasible_nonnegative_solution(matrix, [b - a1 * g[0] - a2 * g[1] for g in gens])
    if x is None:
        return None
    free = len(gens[0]) - 2
    return [q - p for p, q in zip(x[:free], x[free:2 * free])]


def _claim_is_section(s: SectionedPolytope) -> bool:
    """Whether the claimed polygon is the section of conv(s.vertices), by exact LPs.

    Each claimed vertex, placed on H, is a convex combination of the
    distinct vertices (_claim_columns), and each edge inequality extends to
    the polytope (edge_extension).
    """
    gens = distinct_points(s.vertices, s.dim)
    polygon = s.claimed
    return (_claim_columns(polygon, gens, s.dim) is not None
            and all(edge_extension(polygon, i, gens) is not None for i in range(polygon.n)))


def _claim_matches_crossings(s: SectionedPolytope) -> bool:
    """Whether the claimed polygon is the hull of the vertices on H and of
    the crossings, for a file with blocks, matched on lifts with no hull
    (module docstring).  The supports crossed are read off s.blocks."""
    supports = [() if j is None else (j,) for j in s.blocks]
    points = {point for _, _, point in _section_points(s.vertices, supports)}
    claim = s.claimed.lifts
    if not points.issuperset(claim):
        return False
    # the claim first, then the other points; one set of exact sort keys
    lifts = [*claim, *points.difference(claim)]
    order = _lift_keys(lifts)
    n = len(claim)
    claim_lifts, claim_order = lifts[:n], order[:n]
    if _convex_cycle(claim_lifts, claim_order) != -1 or min(claim_order) != claim_order[0]:
        return False
    return _encloses(claim_lifts, claim_order, lifts[n:], order[n:])


def verify_section(s: SectionedPolytope) -> bool:
    """Check the claim against the section, exactly.

    With at most one nonzero coordinate off H per vertex (s.blocks is not
    None) the section is the hull of the vertices on H and of the
    crossings, and the claim must be that hull, canonical vertex for
    vertex: a strictly convex polygon in canonical order whose vertices are
    among those points and which contains the rest
    (_claim_matches_crossings; module docstring).  Otherwise the claim is
    checked by exact LPs (_claim_is_section).  Sets (and returns) the
    certificate flag.
    """
    s.certified = _claim_matches_crossings(s) if s.blocks is not None else _claim_is_section(s)
    return s.certified


def certify(s: SectionedPolytope) -> SectionedPolytope:
    """verify_section, raising on failure.  Each construction pipeline ends in one call."""
    if not verify_section(s):
        raise CertificationFailure(
            f"section certificate failed for {s!r}; vertices={s.vertices!r}, "
            f"claimed={s.claimed!r}"
        )
    return s


def distinct_points(vertices: Sequence[Sequence], dim: int) -> list[AmbientPoint]:
    """The distinct points in first-occurrence order, within the input bound.

    From dimension 4 on at most 64 distinct points are accepted; past that
    the point set is refused with ScaleExceeded.
    """
    verts = list(dict.fromkeys(tuple(Fraction(c) for c in v) for v in vertices))
    if dim >= 4 and len(verts) > 64:
        raise ScaleExceeded(f"{len(verts)} points in dimension {dim}")
    return verts


def extreme_points(vertices: Sequence[Sequence], dim: int) -> list[AmbientPoint]:
    """The distinct vertices, in first-occurrence order, that are not convex
    combinations of the others.

    Duplicates are removed first (distinct_points, which also enforces the
    input bound, before any crossing or LP); then each distinct vertex is
    decided by one exact LP (convex_coefficients).  When some vertex has
    two nonzero coordinates off H, the LP is over all the other vertices,
    in the full dimension.  Otherwise it is the block rule of the module
    docstring: a vertex of block j is tested in (x, y, z_j), a vertex on H
    in (x, y), against the other vertices of its block and the planar
    points of every other block (the vertices on H, or a block's
    crossings, from one _section_points enumeration; ScaleExceeded past
    MAX_PAIR_TESTS pairs).  With a single block there are no other blocks
    and no enumeration, and the LPs are those over all the other vertices.
    """
    verts = distinct_points(vertices, dim)
    supports = [_support(v) for v in verts]
    if any(len(support) > 1 for support in supports):
        return [v for i, v in enumerate(verts)
                if convex_coefficients(v, verts[:i] + verts[i + 1:]) is None]
    blocks = [support[0] if support else None for support in supports]
    planar = {}
    if len(set(blocks)) > 1:
        for i, _, (x, y, w) in _section_points(verts, supports):
            planar.setdefault(blocks[i], []).append((Fraction(x, w), Fraction(y, w)))
    out = []
    for i, (v, j) in enumerate(zip(verts, blocks)):
        # the block's own coordinates, and the zero of z_j at the other blocks' points
        axes, pad = ((0, 1), ()) if j is None else ((0, 1, j), (_ZERO,))
        gens = [tuple(u[k] for k in axes) for m, u in enumerate(verts) if m != i and blocks[m] == j]
        gens += [(*p, *pad) for k, points in planar.items() if k != j for p in points]
        if convex_coefficients(tuple(v[k] for k in axes), gens) is None:
            out.append(v)
    return out


def pullback(vertices: Sequence[Sequence], planar: ProjMap2) -> list[AmbientPoint]:
    """The vertices carried through the lift of a planar map to d-space.

    The lift applies the planar map to (x, y) and divides coordinates 3..d
    by the same weight w (ProjMap2.apply_affine), so it carries H to itself.
    Every vertex must land at a finite point with one sign of w, otherwise
    the image is unbounded and PullbackUnbounded is raised.
    """
    try:
        images, weights = planar.apply_affine(vertices)
    except (MapsVertexToInfinity, ImageNotConvex) as exc:
        raise PullbackUnbounded(f"the pullback is unbounded: {exc}") from exc
    return [(*image, *(c / w for c in v[2:])) for image, w, v in zip(images, weights, vertices)]


def shear_fixing_flat(
    vertices: Sequence[Sequence], u: tuple[Fraction, Fraction]
) -> list[AmbientPoint]:
    """Apply the affine shear (x, y, z) -> (x + u1 z, y + u2 z, z) to 3-D vertices.

    The shear fixes H pointwise, so the section carries over unchanged.
    """
    u1, u2 = Fraction(u[0]), Fraction(u[1])
    return [(x + u1 * z, y + u2 * z, z) for x, y, z in vertices]


def _shear_slope_interval(weights, heights) -> Optional[tuple]:
    """Feasible slopes rho with weight_k + rho * height_k of one strict sign.

    Returns (lo, hi) with None for an unbounded end, or None if infeasible
    for both signs.
    """
    for sign in (1, -1):
        lo = hi = None
        ok = True
        for w, z in zip(weights, heights):
            o, zz = sign * w, sign * z
            if zz == 0:
                if o <= 0:
                    ok = False
                    break
                continue
            bound = Fraction(-o) / zz
            if zz > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if ok and not (lo is not None and hi is not None and lo >= hi):
            return (lo, hi)
    return None


def bounded_pullback(vertices: Sequence[Sequence], planar: ProjMap2) -> list[AmbientPoint]:
    """Pullback of the vertices of a 3-dimensional extension: the plain
    lift when the weights h . (x, y, 1) of the vertices, h the horizon row
    of the planar map, have one strict sign, and otherwise a sheared one.

    Any shear fixing H pointwise yields another valid extension of the same
    section, and shifts each vertex's horizon value by a slope times its
    height; choosing the slope inside its exact feasible interval makes the
    pulled-back polytope bounded whenever any H-invariant lift of the planar
    map can.

    In 3-D some slope always works when the planar map is finite on the
    section.  The horizon of the lifted map is the plane through the
    horizon line l of H that is vertical to H, and sheared lifts turn that
    plane about l; every plane through l other than H is reached this way.
    l misses the section, hence misses P.  Projecting along l sends l to a
    point outside the projected polygon of P, and a line through that point
    missing the polygon lifts to a plane through l missing P; that plane is
    not H, which meets P.  The feasible slope interval is therefore never
    empty.  PullbackUnbounded, should it still be raised, is an internal
    failure.  Like pullback, it maps vertices only; the section of the
    image is the planar image of the section.
    """
    h1, h2, h3 = planar.m[2]
    weights = [h1 * x + h2 * y + h3 for x, y, _ in vertices]
    if all(w > 0 for w in weights) or all(w < 0 for w in weights):
        return pullback(vertices, planar)
    interval = _shear_slope_interval(weights, [z for _, _, z in vertices])
    if interval is None:
        raise PullbackUnbounded("no H-fixing shear bounds the pullback")
    rho = interval_point(*interval)
    # h1 = h2 = 0 gives the weights h3, of one strict sign: returned above
    u = (rho / h1, Fraction(0)) if h1 != 0 else (Fraction(0), rho / h2)
    return pullback(shear_fixing_flat(vertices, u), planar)
