"""Extensions of general n-gons built from heptagon pieces.

Three constructions: a 3-dimensional extension with at most n-1 vertices
(extend the first seven vertices as a heptagon, keep the others at height
zero), the convex join of any number of sectioned polytopes (which adds
dimensions but keeps vertex counts additive), and the chunked construction
giving a (2 + floor(n/7))-dimensional extension with at most ceil(6n/7)
vertices.  Each construction builds its vertex list from plain vertex
lists (heptagon_vertices, the polygon's own vertices), claims its input
polygon and certifies the result once, from scratch.
optimal_even_gon realizes the matching lower-bound witness: a 2m-gon cut
out of a stacked polytope with m + 2 vertices.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .heptagon import heptagon_vertices
from .polygon import Polygon, convex_hull_2d, validate
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

    The first seven vertices of a canonical polygon are a canonical heptagon
    (index 0 stays the lexicographic minimum, the order stays clockwise).
    Its six-vertex extension together with the other n - 7 vertices at
    height zero is the polytope, certified once.
    """
    if polygon.n < 7:
        raise DomainError(f"need n >= 7, got {polygon.n}")
    vertices = heptagon_vertices(Polygon(polygon.vertices[:7], polygon.lifts[:7]))
    vertices += [(x, y, Fraction(0)) for x, y in polygon.vertices[7:]]
    return certify(SectionedPolytope(3, vertices, polygon))


def _join_vertices(blocks) -> tuple[int, list]:
    """Dimension 2 + sum(d_i - 2) and vertices of the convex join of vertex
    blocks over one plane: the coordinates past (x, y) of each block go to
    their own coordinates, in block order; repeated vertices are kept once."""
    widths = [len(block[0]) - 2 for block in blocks]
    dim = 2 + sum(widths)
    vertices = {}  # insertion-ordered, drops repeats
    before = 0
    for block, width in zip(blocks, widths):
        after = dim - 2 - before - width
        for v in block:
            vertices[(*v[:2], *[Fraction(0)] * before, *v[2:], *[Fraction(0)] * after)] = None
        before += width
    return dim, list(vertices)


def convex_join_sections(*parts: SectionedPolytope) -> SectionedPolytope:
    """Combine sections over the same plane into one for the joint hull.

    The parts' vertices are joined by _join_vertices; a part with no
    vertices adds none.  The parts need not be certified: the result,
    claiming the hull of the parts' claimed polygons, is certified once
    from scratch.
    """
    dim, vertices = _join_vertices([s.vertices for s in parts if s.vertices])
    claimed = validate(convex_hull_2d(p for s in parts for p in s.claimed.vertices))
    return certify(SectionedPolytope(dim, vertices, claimed))


def ngon_extension(polygon: Polygon) -> SectionedPolytope:
    """Certified extension in dimension 2 + floor(n/7) with 6*floor(n/7) +
    (n mod 7) <= ceil(6n/7) vertices: the join (_join_vertices) of the
    vertices of one heptagon extension per full chunk vertices[k:k + 7] and
    of the remainder chunk on the plane, claiming the polygon and certified
    once."""
    n = polygon.n
    if n < 7:
        raise DomainError(f"need n >= 7, got {n}")
    blocks = []
    for k in range(0, n, 7):
        pts = polygon.vertices[k:k + 7]
        blocks.append(heptagon_vertices(validate(pts)) if len(pts) == 7 else convex_hull_2d(pts))
    dim, vertices = _join_vertices(blocks)
    return certify(SectionedPolytope(dim, vertices, polygon))


def optimal_even_gon(m: int) -> SectionedPolytope:
    """A 2m-gon as a section of a 3-polytope with exactly m + 2 vertices.

    The polytope joins an m-point path on a strictly convex curve above the
    cutting plane with an edge below it; the 2m spoke crossings form the
    section.  This meets the 3-dimensional lower bound for 2m-gons.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    path = [(Fraction(k), Fraction(0), Fraction(k * k)) for k in range(1, m + 1)]
    edge = [(Fraction(0), Fraction(1), Fraction(-1)), (Fraction(0), Fraction(-1), Fraction(-1))]
    vertices = path + edge
    upper, lower = [], []
    for k in range(1, m + 1):
        t = Fraction(k * k, k * k + 1)
        upper.append((Fraction(k) * (1 - t), t))
        lower.append((Fraction(k) * (1 - t), -t))
    return certify(SectionedPolytope(3, vertices, validate(upper + lower[::-1])))
