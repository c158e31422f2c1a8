"""Extensions of general n-gons built from heptagon pieces.

Three constructions: a 3-dimensional extension with at most n-1 vertices
(extend the first seven vertices as a heptagon, keep the others at height
zero), the convex join of any number of sectioned polytopes (which adds
dimensions but keeps vertex counts additive), and the chunked construction
giving a (2 + floor(n/7))-dimensional extension with at most ceil(6n/7)
vertices.  Each construction builds the rows of its vertices
(SectionedPolytope.rows) in integers, from the rows of heptagon_vertices
and the polygon's own lifts (Polygon.lifts), claims its input polygon and
certifies the result once, from scratch.
optimal_even_gon realizes the matching lower-bound witness: a 2m-gon cut
out of a stacked polytope with m + 2 vertices.
"""

from __future__ import annotations

from .errors import DomainError
from .heptagon import heptagon_vertices
from .polygon import Polygon, _hull_order, _lift_keys
from .sections import SectionedPolytope, certify

__all__ = [
    "lower_bound_3d",
    "ngon_3d_extension",
    "convex_join_sections",
    "ngon_extension",
    "optimal_even_gon",
]


def lower_bound_3d(n: int) -> int:
    """No n-gon is a section of a 3-polytope with fewer vertices than this."""
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    return -((n + 4) // -2)  # ceil((n + 4) / 2)


def ngon_3d_extension(polygon: Polygon) -> SectionedPolytope:
    """Certified 3-dimensional extension of an n-gon with at most n-1 vertices.

    The first seven vertices of the polygon, in its clockwise order, are a
    strictly convex heptagon, which the Polygon constructor takes as they
    stand: index 0 stays the lexicographic minimum, so nothing is rotated.
    Its six-vertex extension together with the other n - 7 vertices at
    height zero is the polytope, certified once.
    """
    if polygon.n < 7:
        raise DomainError(f"need n >= 7, got {polygon.n}")
    rows = heptagon_vertices(Polygon(polygon.lifts[:7]))
    rows += [(x, y, 0, w) for x, y, w in polygon.lifts[7:]]
    return certify(SectionedPolytope(3, rows, polygon))


def _join_vertices(blocks) -> tuple[int, list]:
    """Dimension 2 + sum(d_i - 2) and rows of the convex join of blocks of
    rows over one plane: the coordinates past (x, y) of each block go to
    their own coordinates, in block order, W last; repeated vertices are
    kept once."""
    widths = [len(block[0]) - 3 for block in blocks]
    dim = 2 + sum(widths)
    rows = {}  # insertion-ordered, drops repeats
    before = 0
    for block, width in zip(blocks, widths):
        after = dim - 2 - before - width
        for r in block:
            rows[(r[0], r[1], *[0] * before, *r[2:-1], *[0] * after, r[-1])] = None
        before += width
    return dim, list(rows)


def convex_join_sections(*parts: SectionedPolytope) -> SectionedPolytope:
    """Combine sections over the same plane into one for the joint hull.

    The parts' rows are joined by _join_vertices; a part with no vertices
    adds none.  The parts need not be certified: the result, claiming the
    hull of the parts' claimed polygons, is certified once from scratch.
    """
    dim, rows = _join_vertices([s.rows for s in parts if s.rows])
    lifts = [lift for s in parts for lift in s.claimed.lifts]
    claimed = Polygon([lifts[k] for k in _hull_order(lifts, _lift_keys(lifts))])
    return certify(SectionedPolytope(dim, rows, claimed))


def ngon_extension(polygon: Polygon) -> SectionedPolytope:
    """Certified extension in dimension 2 + floor(n/7) with 6*floor(n/7) +
    (n mod 7) <= ceil(6n/7) vertices: the join (_join_vertices) of the
    rows of one heptagon extension per full chunk lifts[k:k + 7] and of the
    remainder chunk on the plane, claiming the polygon and certified once.
    A full chunk is rotated to canonical order by the Polygon constructor,
    the remainder by the hull order of its lifts."""
    n = polygon.n
    if n < 7:
        raise DomainError(f"need n >= 7, got {n}")
    blocks = []
    for k in range(0, n, 7):
        lifts = polygon.lifts[k:k + 7]
        blocks.append(heptagon_vertices(Polygon(lifts)) if len(lifts) == 7
                      else [lifts[j] for j in _hull_order(lifts, _lift_keys(lifts))])
    dim, rows = _join_vertices(blocks)
    return certify(SectionedPolytope(dim, rows, polygon))


def optimal_even_gon(m: int) -> SectionedPolytope:
    """A 2m-gon as a section of a 3-polytope with exactly m + 2 vertices.

    The polytope joins an m-point path on a strictly convex curve above the
    cutting plane with an edge below it; the 2m spoke crossings form the
    section.  This meets the 3-dimensional lower bound for 2m-gons.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    path = [(k, 0, k * k, 1) for k in range(1, m + 1)]
    edge = [(0, 1, -1, 1), (0, -1, -1, 1)]
    upper = [(k, k * k, k * k + 1) for k in range(1, m + 1)]  # spoke crossings (k, +-k^2) / (k^2 + 1)
    lower = [(k, -y, w) for k, y, w in upper[::-1]]
    return certify(SectionedPolytope(3, path + edge, Polygon(upper + lower)))
