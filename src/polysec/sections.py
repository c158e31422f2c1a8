"""Exact polytope-section certification engine.

The flat H is always the canonical coordinate flat: a point of the ambient
d-space lies on H when its coordinates 3..d all vanish.  The off-H support
of a point is the set of those coordinates that are nonzero.  P is the
convex hull of the given vertices, and its section is the part of P on H.

Support lemma, exact in any dimension: if u and v have different off-H
supports, the segment [u, v] meets H at most at an endpoint that already
lies on H.  Say u_j != 0 = v_j; then (1-t) u_j = 0 forces t = 1, the
endpoint v.  So only segments between vertices of one nonempty support can
cross H anywhere else, and compute_section tests only those pairs, at most
MAX_PAIR_TESTS of them (past it, ScaleExceeded before the first test).
Within a support every support coordinate is nonzero at both ends, so a pair
crosses H exactly when the first support coordinates have opposite signs
and the support coordinates are proportional.  Each vertex is read once,
into its integer key: the (numerator, denominator) pairs of x, y and its
support coordinates.  The crossings are tested and computed on these keys
(_segment_flat_crossing), which yields the planar point only: only
_section_columns forms the parameter t of a crossing.

The hull of the vertices on H and of these crossings lies in the section;
compute_section hulls both point lists directly, with no convex column
and no Fraction hashed (the columns, keyed by point in _section_columns,
serve only _claim_columns: the LP check and factorize).
It is the whole section when every vertex has at most one nonzero
coordinate off H, as in 3-D and in every join this package builds.  Write
a point of the section as a convex combination of vertices and split the
terms by support {j}: only that block touches coordinate j, so its terms
sum to zero there, and the block's normalized part is a point on H of the
3-polytope conv(block).  A plane section of a 3-polytope is the hull of its
vertices on the plane and its edge crossings, so that point is in the hull
of the block's crossings.  verify_section compares this hull with the claim
vertex for vertex.  SectionedPolytope.blocks, the block decomposition
computed once per polytope, decides whether a file takes this path (and
serves slack): for each vertex the index j of its one nonzero coordinate
off H, None on H; or None when some vertex has two.

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
from typing import Optional, Sequence

from .errors import (
    CertificationFailure,
    EmptySection,
    ImageNotConvex,
    MapsVertexToInfinity,
    PullbackUnbounded,
    ScaleExceeded,
)
from .exactgeom import _ZERO
from .linalg import (
    convex_coefficients,
    feasible_nonnegative_solution,
    in_convex_hull,
    interval_point,
)
from .polygon import AffinePair, Polygon, ProjMap2, canonical_hull

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
    block decomposition (module docstring), is filled on first use.
    """

    __slots__ = ("dim", "vertices", "claimed", "certified", "blocks")

    def __init__(self, dim: int, vertices: Sequence[Sequence], claimed: Polygon):
        if dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        self.dim = dim
        verts = []
        for v in vertices:
            v = tuple(v)
            # one C-level type test per vertex: only a vertex holding a
            # non-Fraction is converted
            if set(map(type, v)) != {Fraction}:
                v = tuple(c if type(c) is Fraction else Fraction(c) for c in v)
            if len(v) != dim:
                raise ValueError(f"vertex {v} does not have dimension {dim}")
            verts.append(v)
        self.vertices = tuple(verts)
        if not isinstance(claimed, Polygon):
            raise TypeError(f"cannot interpret {claimed!r} as a planar section")
        self.claimed = claimed
        self.certified = False

    def __getattr__(self, name):
        # reached when lookup fails: for blocks, which __init__ leaves unset, once
        if name != "blocks":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        supports = [_support(v) for v in self.vertices]
        self.blocks = (None if any(len(support) > 1 for support in supports)
                       else tuple(support[0] if support else None for support in supports))
        return self.blocks

    def __repr__(self):
        return (f"SectionedPolytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"certified={self.certified})")


def _segment_flat_crossing(u: tuple, v: tuple) -> Optional[AffinePair]:
    """Planar point where segment [u, v] meets H, if it meets H at one
    point, for two vertices of the same nonempty off-H support.

    u and v are the vertices' integer keys (_flat_crossings): one
    (numerator, denominator) pair for each of x, y and the support
    coordinates, which are nonzero at both ends.  (1-t) u_j + t v_j = 0
    pins t = u_j / (u_j - v_j), which lies in [0, 1] exactly when u_j and
    v_j have opposite signs, and every support coordinate pins the same t
    exactly when (u_j, v_j) and (u_k, v_k) are proportional; both tests
    run on the integers.  t itself is not formed (only _section_columns
    needs it): with a = u_j, b = v_j, p = a.num b.den and q = -b.num a.den
    (nonzero, of one sign), t = p / (p + q), 1 - t = q / (p + q) and
    x = (q u_x.num v_x.den + p v_x.num u_x.den) / ((p + q) u_x.den v_x.den),
    y likewise, each one Fraction normalized once.
    """
    (an, ad), (bn, bd) = u[2], v[2]
    if (an > 0) == (bn > 0):
        return None
    for k in range(3, len(u)):
        # a v_k == b u_k, cross-multiplied
        (cn, cd), (dn, dd) = u[k], v[k]
        if an * dn * bd * cd != bn * cn * ad * dd:
            return None
    p = an * bd
    q = -bn * ad
    s = p + q
    (xn, xd), (yn, yd) = u[0], u[1]
    (zn, zd), (wn, wd) = v[0], v[1]
    return (Fraction(q * xn * zd + p * zn * xd, s * xd * zd),
            Fraction(q * yn * wd + p * wn * yd, s * yd * wd))


def _support(v: Sequence) -> tuple[int, ...]:
    """The off-H support of v: indices of its nonzero coordinates 3..d."""
    # the shared zero of parsed files is settled without Fraction.__bool__
    return tuple(k for k, c in enumerate(v[2:], 2) if c is not _ZERO and c)


MAX_PAIR_TESTS = 100_000  # about 2 s of crossing tests; package files make a few hundred


def _flat_crossings(vertices: Sequence[Sequence], supports: Sequence[tuple[int, ...]]):
    """Unique crossings of H by segments between vertices of one nonempty
    off-H support (supports[k] is that of vertices[k]); by the support
    lemma no other segment crosses H except at an endpoint on H.

    Yields (i, j, point) in lexicographic (i, j) order, i < j, with point
    the planar crossing of [vertices[i], vertices[j]].  Each vertex is read
    once, into its integer key: the (numerator, denominator) pairs of x, y
    and its support coordinates, which within one support fix the vertex.
    The keys find repeated vertices, crossed at their first index only (a
    later copy adds no crossing point, and no earlier pair), and are what
    _segment_flat_crossing crosses.  ScaleExceeded, before any test, past
    MAX_PAIR_TESTS pairs of distinct vertices.
    """
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


def _section_columns(gens: Sequence[AmbientPoint]) -> dict[AffinePair, dict]:
    """Sparse convex column of every point that a generator or a generator
    segment contributes to the section, keyed by its planar coordinates.

    Generators on H come first (a unit column), then the unique crossings
    of H by segments [gens[i], gens[j]] in lexicographic (i, j) order
    (_flat_crossings), with weights 1 - t and t for t = a / (a - b) on the
    first support coordinate, a at gens[i] and b at gens[j]; the first
    entry for a point is kept.
    """
    supports = [_support(g) for g in gens]
    columns = {}
    for k, g in enumerate(gens):
        if not supports[k]:
            columns.setdefault(tuple(g[:2]), {k: Fraction(1)})
    for i, j, point in _flat_crossings(gens, supports):
        if point not in columns:
            first = supports[i][0]
            a, b = gens[i][first], gens[j][first]
            t = a / (a - b)
            columns[point] = {i: 1 - t, j: t}
    return columns


def _claim_columns(points: Sequence[tuple[Fraction, Fraction]], gens: Sequence[AmbientPoint],
                   dim: int) -> Optional[list[dict]]:
    """Sparse convex column over gens of each point placed on H: looked up
    in _section_columns, else one exact LP (convex_coefficients); None when
    a point is outside conv(gens)."""
    columns = _section_columns(gens)
    on_flat = (Fraction(0),) * (dim - 2)
    out = []
    for point in points:
        column = columns.get(point)
        if column is None:
            weights = convex_coefficients((*point, *on_flat), gens)
            if weights is None:
                return None
            column = dict(enumerate(weights))
        out.append(column)
    return out


def compute_section(vertices: Sequence[Sequence], dim: int) -> tuple[AffinePair, ...]:
    """Hull of the vertices on H and of the crossings of H by vertex segments,
    in canonical_hull order: one point, a sorted pair, or the vertices of
    the canonical Polygon.

    Coordinates are Fractions or ints.  The hull lies in the section of
    conv(vertices) by H and is all of it when no vertex has two nonzero
    coordinates off H.
    """
    if any(len(v) != dim for v in vertices):
        raise ValueError("vertex dimension mismatch")
    supports = [_support(v) for v in vertices]
    points = [(v[0], v[1]) for v, support in zip(vertices, supports) if not support]
    points += [point for _, _, point in _flat_crossings(vertices, supports)]
    hull = canonical_hull(points)
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
    return (_claim_columns(polygon.vertices, gens, s.dim) is not None
            and all(edge_extension(polygon, i, gens) is not None for i in range(polygon.n)))


def verify_section(s: SectionedPolytope) -> bool:
    """Recompute the section and compare with the claim, exactly.

    With at most one nonzero coordinate off H per vertex (s.blocks is not
    None) the claim must equal compute_section; otherwise it is checked by
    _claim_is_section.  Sets (and returns) the certificate flag.
    """
    if s.blocks is not None:
        try:
            s.certified = compute_section(s.vertices, s.dim) == s.claimed.vertices
        except EmptySection:
            s.certified = False
    else:
        s.certified = _claim_is_section(s)
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
    """The vertices not expressible as convex combinations of the others.

    Duplicates are removed first (distinct_points, which also enforces the
    input bound); each survivor is tested by an exact linear feasibility
    solve.
    """
    verts = distinct_points(vertices, dim)
    out = []
    for i, v in enumerate(verts):
        others = [w for j, w in enumerate(verts) if j != i]
        if not in_convex_hull(v, others):
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


def _shear_slope_interval(vertices, horizon) -> Optional[tuple]:
    """Feasible slopes rho with (h . shadow_k) + rho * z_k of one strict sign.

    Returns (lo, hi) with None for an unbounded end, or None if infeasible
    for both signs.
    """
    h1, h2, h3 = horizon
    olds = [h1 * v[0] + h2 * v[1] + h3 for v in vertices]
    zs = [v[2] for v in vertices]
    for sign in (1, -1):
        lo = hi = None
        ok = True
        for old, z in zip(olds, zs):
            o, zz = sign * old, sign * z
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
    """Pullback of the vertices of a 3-dimensional extension, shearing
    first if necessary.

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
    if len(vertices[0]) != 3:
        return pullback(vertices, planar)
    horizon = planar.m[2]
    interval = _shear_slope_interval(vertices, horizon)
    if interval is None:
        raise PullbackUnbounded("no H-fixing shear bounds the pullback")
    lo, hi = interval
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return pullback(vertices, planar)
    rho = interval_point(lo, hi)
    h1, h2, _ = horizon
    if h1 != 0:
        u = (rho / h1, Fraction(0))
    elif h2 != 0:
        u = (Fraction(0), rho / h2)
    else:
        return pullback(vertices, planar)  # horizon is the line at infinity: affine map
    return pullback(shear_fixing_flat(vertices, u), planar)
