"""Extensions of general n-gons built from heptagon pieces.

Three constructions: a 3-dimensional extension with at most n-1 vertices
(peel vertices down to a heptagon, re-add each at height zero), the convex
join of any number of sectioned polytopes (which adds dimensions but keeps
vertex counts additive), and the chunked construction giving a
(2 + floor(n/7))-dimensional extension with at most ceil(6n/7) vertices.
Each construction certifies its result once, from scratch.
optimal_even_gon realizes the matching lower-bound witness: a 2m-gon cut
out of a stacked polytope with m + 2 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import CertificationFailure, DomainError, IncompatibleSections
from .heptagon import heptagon_extension
from .polygon import Polygon, validate
from .sections import PlanarHull, SectionedPolytope, certify

__all__ = [
    "ChunkPlan",
    "lower_bound_3d",
    "ngon_3d_extension",
    "convex_join_sections",
    "ngon_extension",
    "optimal_even_gon",
    "chunk_plan",
]


def lower_bound_3d(n: int) -> int:
    """No n-gon is a section of a 3-polytope with fewer vertices than this."""
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    return -((n + 4) // -2)  # ceil((n + 4) / 2)


def ngon_3d_extension(
    polygon: Polygon,
    drop_choice: Optional[Callable[[Polygon], int]] = None,
) -> SectionedPolytope:
    """Certified 3-dimensional extension of an n-gon with at most n-1 vertices.

    Removes one vertex at a time (the highest canonical index unless a
    chooser is supplied) until a heptagon remains, extends the heptagon,
    re-adds the removed vertices at height zero and certifies the result.
    """
    if polygon.n < 7:
        raise DomainError(f"need n >= 7, got {polygon.n}")
    core = polygon
    dropped = []
    while core.n > 7:
        index = core.n - 1 if drop_choice is None else drop_choice(core) % core.n
        dropped.append(core.affine(index))
        core = validate([core.affine(k) for k in range(core.n) if k != index])
    inner = heptagon_extension(core)
    if not dropped:
        return inner
    vertices = list(inner.vertices) + [(x, y, Fraction(0)) for x, y in reversed(dropped)]
    return certify(SectionedPolytope(3, vertices, polygon))


def convex_join_sections(*parts: SectionedPolytope) -> SectionedPolytope:
    """Combine sections over the same plane into one for the joint hull.

    Extra coordinates of the polytopes are placed in disjoint blocks, in
    argument order, so the result lives in dimension 2 + sum(d_i - 2) and
    uses no more vertices than all inputs together.  It is certified once.
    """
    if not all(s.certified for s in parts):
        raise IncompatibleSections("all inputs must carry a verified certificate")
    dim = 2 + sum(s.dim - 2 for s in parts)
    vertices = {}  # insertion-ordered, drops repeats
    before = 0
    for s in parts:
        after = dim - s.dim - before
        for v in s.vertices:
            vertices[(*v[:2], *[Fraction(0)] * before, *v[2:], *[Fraction(0)] * after)] = None
        before += s.dim - 2
    claimed = PlanarHull.of([p for s in parts for p in s.claimed.points])
    return certify(SectionedPolytope(dim, list(vertices), claimed))


@dataclass(frozen=True)
class ChunkPlan:
    """Consecutive index intervals covering 0..n-1: full chunks of 7, plus
    at most one remainder chunk of size n mod 7."""

    n: int
    chunks: tuple[tuple[int, ...], ...]


def chunk_plan(n: int) -> ChunkPlan:
    if n < 7:
        raise DomainError(f"need n >= 7, got {n}")
    chunks = []
    full = n // 7
    for q in range(full):
        chunks.append(tuple(range(7 * q, 7 * q + 7)))
    if n % 7:
        chunks.append(tuple(range(7 * full, n)))
    return ChunkPlan(n=n, chunks=tuple(chunks))


def _trivial_planar_section(points: list[tuple[Fraction, Fraction]]) -> SectionedPolytope:
    """A planar point set as its own section (ambient dimension 2)."""
    hull = PlanarHull.of(points)
    return certify(SectionedPolytope(2, list(hull.points), hull))


def ngon_extension(polygon: Polygon) -> SectionedPolytope:
    """Certified extension in dimension 2 + floor(n/7) with 6*floor(n/7) +
    (n mod 7) <= ceil(6n/7) vertices."""
    n = polygon.n
    plan = chunk_plan(n)
    parts = []
    for chunk in plan.chunks:
        pts = [polygon.affine(k) for k in chunk]
        if len(chunk) == 7:
            parts.append(heptagon_extension(validate(pts)))
        else:
            parts.append(_trivial_planar_section(pts))
    result = convex_join_sections(*parts)
    expected_dim = 2 + n // 7
    bound = -((6 * n) // -7)
    if result.dim != expected_dim:
        raise CertificationFailure(
            f"join dimension {result.dim} differs from expected {expected_dim}"
        )
    if len(result.vertices) > bound:
        raise CertificationFailure(
            f"{len(result.vertices)} vertices exceed the bound {bound}"
        )
    if result.claimed_polygon() != polygon:
        raise CertificationFailure("joined section does not reproduce the polygon")
    return result


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
    claimed = validate(upper + lower[::-1])
    if claimed.n != 2 * m:
        raise DomainError(f"construction degenerated to a {claimed.n}-gon")
    return certify(SectionedPolytope(3, vertices, claimed))
