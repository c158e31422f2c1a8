"""Exact polytope-section certification engine.

The flat H is always the canonical coordinate flat: a point of the ambient
d-space lies on H when its coordinates 3..d all vanish.  A section is
recomputed from scratch as the convex hull of (a) vertices lying on H and
(b) the intersection points of H with segments between vertex pairs; for
the constructions in this package that hull equals the true section, and
every claim is verified against it vertex-for-vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CertificationFailure,
    EmptySection,
    PullbackUnbounded,
    ScaleExceeded,
)
from .linalg import in_convex_hull
from .polygon import Polygon, ProjMap2, apply_map, convex_hull_2d, validate

AmbientPoint = tuple[Fraction, ...]

__all__ = [
    "PlanarHull",
    "SectionedPolytope",
    "MapD",
    "compute_section",
    "verify_section",
    "certify",
    "shear_fixing_flat",
    "bounded_pullback",
    "extreme_points",
    "lift_projective",
    "pullback",
]


@dataclass(frozen=True)
class PlanarHull:
    """Canonical planar hull: a polygon, or a flagged degenerate (point/segment).

    A polygon hull keeps the validated Polygon it was built from; equality
    compares kind and points only.
    """

    kind: str  # "point" | "segment" | "polygon"
    points: tuple[tuple[Fraction, Fraction], ...]
    _polygon: Optional[Polygon] = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, points: Sequence[tuple[Fraction, Fraction]]) -> "PlanarHull":
        hull = convex_hull_2d(points)
        if not hull:
            raise EmptySection("no points")
        if len(hull) == 1:
            return cls("point", tuple(hull))
        if len(hull) == 2:
            return cls("segment", tuple(sorted(hull)))
        return cls.from_polygon(validate(hull))

    @classmethod
    def from_polygon(cls, polygon: Polygon) -> "PlanarHull":
        return cls("polygon", tuple(polygon.affine_vertices()), polygon)

    @property
    def degenerate(self) -> bool:
        return self.kind != "polygon"

    def polygon(self) -> Polygon:
        if self.kind != "polygon":
            raise EmptySection(f"section is a {self.kind}, not a polygon")
        return self._polygon


def _coerce_hull(claimed) -> PlanarHull:
    if isinstance(claimed, PlanarHull):
        return claimed
    if isinstance(claimed, Polygon):
        return PlanarHull.from_polygon(claimed)
    raise TypeError(f"cannot interpret {claimed!r} as a planar section")


class SectionedPolytope:
    """A vertex-described polytope with a claimed planar section on H.

    The certificate flag is only ever set by verify_section.
    """

    __slots__ = ("dim", "vertices", "claimed", "certified")

    def __init__(self, dim: int, vertices: Sequence[Sequence], claimed, certified: bool = False):
        if dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        self.dim = dim
        verts = []
        for v in vertices:
            v = tuple(Fraction(c) for c in v)
            if len(v) != dim:
                raise ValueError(f"vertex {v} does not have dimension {dim}")
            verts.append(v)
        self.vertices = tuple(verts)
        self.claimed = _coerce_hull(claimed)
        self.certified = certified

    def claimed_polygon(self) -> Polygon:
        return self.claimed.polygon()

    def __repr__(self):
        return (f"SectionedPolytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"certified={self.certified})")


def _on_flat(v: AmbientPoint) -> bool:
    return all(c == 0 for c in v[2:])


def _segment_flat_crossing(u: AmbientPoint, v: AmbientPoint) -> Optional[tuple[Fraction, Fraction]]:
    """Intersection of segment [u, v] with H, if it exists and is unique.

    Solves the vanishing conditions (1-t) u_j + t v_j = 0 for j >= 3; the
    segment contributes exactly when all conditions pin the same t in [0, 1].
    """
    t = None
    for uj, vj in zip(u[2:], v[2:]):
        if uj == vj:
            if uj != 0:
                return None
            continue
        tj = Fraction(uj, uj - vj)
        if t is None:
            t = tj
        elif t != tj:
            return None
    if t is None:
        return None  # both endpoints on H: no unique crossing
    if t < 0 or t > 1:
        return None
    return (u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1]))


def compute_section(vertices: Sequence[Sequence], dim: int) -> PlanarHull:
    """Exact section of conv(vertices) with the canonical flat H."""
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    if any(len(v) != dim for v in verts):
        raise ValueError("vertex dimension mismatch")
    points = [(v[0], v[1]) for v in verts if _on_flat(v)]
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            p = _segment_flat_crossing(verts[i], verts[j])
            if p is not None:
                points.append(p)
    if not points:
        raise EmptySection("the flat does not meet the polytope")
    return PlanarHull.of(points)


def verify_section(s: SectionedPolytope) -> bool:
    """Recompute the section and compare with the claim, exactly.

    Sets (and returns) the certificate flag.
    """
    try:
        actual = compute_section(s.vertices, s.dim)
    except EmptySection:
        s.certified = False
        return False
    s.certified = actual == s.claimed
    return s.certified


def certify(s: SectionedPolytope) -> SectionedPolytope:
    """verify_section, raising on failure.  Used by the construction pipelines."""
    if not verify_section(s):
        raise CertificationFailure(
            f"section certificate failed for {s!r}; vertices={s.vertices!r}, "
            f"claimed={s.claimed!r}"
        )
    return s


def extreme_points(vertices: Sequence[Sequence], dim: int) -> list[AmbientPoint]:
    """The vertices not expressible as convex combinations of the others.

    Duplicates are removed first; each survivor is tested by an exact linear
    feasibility solve.  Sized for this package's constructions only.
    """
    verts = []
    seen = set()
    for v in vertices:
        v = tuple(Fraction(c) for c in v)
        if v not in seen:
            seen.add(v)
            verts.append(v)
    if dim > 4 and len(verts) > 64:
        raise ScaleExceeded(f"{len(verts)} points in dimension {dim}")
    out = []
    for i, v in enumerate(verts):
        others = [w for j, w in enumerate(verts) if j != i]
        if not in_convex_hull(v, others):
            out.append(v)
    return out


class MapD:
    """Projective map of d-space that restricts to a planar map on H.

    Acts as the planar map on homogeneous coordinates (x1, x2, w), as the
    identity on coordinates 3..d (scaled by the shared homogenizing row), so
    H and the directions orthogonal to it are carried to themselves.
    """

    __slots__ = ("dim", "planar")

    def __init__(self, planar: ProjMap2, dim: int):
        self.planar = planar
        self.dim = dim

    def apply_raw(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Image of an affine d-point in homogeneous (d+1)-coordinates."""
        m = self.planar.m
        x1, x2 = v[0], v[1]
        w = m[2][0] * x1 + m[2][1] * x2 + m[2][2]
        y1 = m[0][0] * x1 + m[0][1] * x2 + m[0][2]
        y2 = m[1][0] * x1 + m[1][1] * x2 + m[1][2]
        return (y1, y2, *v[2:], w)


def lift_projective(planar: ProjMap2, dim: int) -> MapD:
    return MapD(planar, dim)


def pullback(s: SectionedPolytope, planar: ProjMap2) -> SectionedPolytope:
    """Carry a sectioned polytope through the lift of a planar map.

    Every vertex must land at a finite point with a consistent homogeneous
    sign, otherwise the image is unbounded and PullbackUnbounded is raised.
    The claimed section is mapped alongside and the certificate is
    recomputed.
    """
    tau = lift_projective(planar, s.dim)
    images = [tau.apply_raw(v) for v in s.vertices]
    ws = [img[-1] for img in images]
    if any(w == 0 for w in ws):
        raise PullbackUnbounded("a vertex maps to the hyperplane at infinity")
    if not (all(w > 0 for w in ws) or all(w < 0 for w in ws)):
        raise PullbackUnbounded("vertices map to both sides of the horizon")
    new_vertices = [tuple(c / img[-1] for c in img[:-1]) for img in images]
    new_claimed = PlanarHull.from_polygon(apply_map(s.claimed_polygon(), planar))
    out = SectionedPolytope(s.dim, new_vertices, new_claimed, certified=False)
    verify_section(out)
    return out


def shear_fixing_flat(s: SectionedPolytope, u: tuple[Fraction, Fraction]) -> SectionedPolytope:
    """Apply the affine shear (x, y, z) -> (x + u1 z, y + u2 z, z).

    The shear fixes H pointwise, so the section and its certificate carry
    over unchanged; the vertex set is replaced by its image.
    """
    if s.dim != 3:
        raise ValueError("shear is only defined for 3-dimensional extensions")
    u1, u2 = Fraction(u[0]), Fraction(u[1])
    vertices = [(v[0] + u1 * v[2], v[1] + u2 * v[2], v[2]) for v in s.vertices]
    out = SectionedPolytope(3, vertices, s.claimed, certified=False)
    verify_section(out)
    return out


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


def bounded_pullback(s: SectionedPolytope, planar: ProjMap2) -> SectionedPolytope:
    """Pullback of a 3-dimensional extension, shearing first if necessary.

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
    failure.
    """
    if s.dim != 3:
        return pullback(s, planar)
    horizon = planar.m[2]
    interval = _shear_slope_interval(s.vertices, horizon)
    if interval is None:
        raise PullbackUnbounded("no H-fixing shear bounds the pullback")
    lo, hi = interval
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return pullback(s, planar)
    if lo is not None and hi is not None:
        rho = (lo + hi) / 2
    elif lo is not None:
        rho = lo + 1
    else:
        rho = hi - 1
    h1, h2, _ = horizon
    if h1 != 0:
        u = (rho / h1, Fraction(0))
    elif h2 != 0:
        u = (Fraction(0), rho / h2)
    else:
        return pullback(s, planar)  # horizon is the line at infinity: affine map
    return pullback(shear_fixing_flat(s, u), planar)
