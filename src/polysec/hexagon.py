"""Deciding whether a hexagon is a section of a 5-vertex polytope.

A hexagon is a section of a triangular bipyramid with 5 vertices exactly
when the two opposite edge lines (p_r, p_{r+5}), (p_{r+2}, p_{r+3}) and the
diagonal (p_{r+1}, p_{r+4}) are concurrent for one of the three pairings
r = 0, 1, 2; otherwise six vertices are needed and the hexagon is its own
cheapest section.  build_bipyramid returns the bipyramid's vertex list;
only hexagon_extension5 returns a certified SectionedPolytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ComplexitySix, NoConcurrency, NormalFormConstraintViolated, NotHexagon
from .exactgeom import ProjLine, ProjPoint, det3, join, meet
from .polygon import (
    Polygon,
    ProjMap2,
    _orient,
    affine_through_three,
    map_line_to_infinity,
)
from .sections import AmbientPoint, SectionedPolytope, bounded_pullback, certify

__all__ = [
    "HexNormalForm",
    "HexDecision",
    "concurrency_point",
    "hexagon_ic",
    "hexagon_normal_form",
    "hexagon_extension5",
]


def _require_hexagon(polygon: Polygon) -> None:
    if polygon.n != 6:
        raise NotHexagon(f"expected a hexagon, got {polygon.n} vertices")


def _pairing_lines(polygon: Polygon, r: int) -> tuple[ProjLine, ProjLine, ProjLine]:
    p = polygon.vertex
    return (
        join(p(r), p(r + 5)),
        join(p(r + 1), p(r + 4)),
        join(p(r + 2), p(r + 3)),
    )


def concurrency_point(polygon: Polygon, r: int) -> Optional[ProjPoint]:
    """Common point of the r-th line triple, or None if not concurrent.

    The returned point may lie at infinity (mutually parallel lines).
    """
    _require_hexagon(polygon)
    if r not in (0, 1, 2):
        raise ValueError("pairing index must be 0, 1 or 2")
    l1, l2, l3 = _pairing_lines(polygon, r)
    if det3(l1, l2, l3) != 0:
        return None
    return meet(l1, l2)


class HexDecision(NamedTuple):
    ic: int
    witness: Optional[int]


def hexagon_ic(polygon: Polygon) -> HexDecision:
    """Intersection complexity of a hexagon: (5, witness r) or (6, None)."""
    _require_hexagon(polygon)
    for r in range(3):
        if concurrency_point(polygon, r) is not None:
            return HexDecision(5, r)
    return HexDecision(6, None)


@dataclass(frozen=True)
class HexNormalForm:
    """Normal-form parameters and the projective map that produces them.

    Normal-form vertices: (0, alpha), beta*(x, y), (gamma, 0), (1, 0),
    (x, y), (0, 1) with x, y > 0 and alpha, beta, gamma > 1.  `mirrored`
    records whether the normalizing map reverses orientation (both
    orientations of the witness occur among valid hexagons).
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    x: Fraction
    y: Fraction
    rotation: int
    mirrored: bool
    map: ProjMap2


_TARGET = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def hexagon_normal_form(polygon: Polygon, r: int) -> HexNormalForm:
    """Normalize a hexagon whose r-th line triple is concurrent.

    A finite concurrency point goes to the origin by the affine map sending
    (c, p_{r+3}, p_{r+5}) -- or the mirror assignment (c, p_{r+2}, p_r) when
    the witness has the opposite orientation -- to ((0,0), (1,0), (0,1)).
    A concurrency point at infinity is first made finite by sending a far
    line orthogonal to the common direction to infinity; the composite map
    is recorded.
    """
    _require_hexagon(polygon)
    c = concurrency_point(polygon, r)
    if c is None:
        raise NoConcurrency(f"no concurrency for pairing {r}")
    if c.is_finite:
        return _read_normal_form(list(polygon.vertices), c.dehomogenize(), r, ProjMap2.identity())
    to_finite = _finite_reduction_map(polygon, c)
    vertices, _ = to_finite.apply_affine(polygon.vertices)
    # c is off the line sent to infinity (_finite_reduction_map), so it is finite now
    return _read_normal_form(vertices, to_finite.apply(c).dehomogenize(), r, to_finite)


def _finite_reduction_map(polygon: Polygon, c: ProjPoint) -> ProjMap2:
    """Send a far line, normal to the direction c, to infinity.

    The line {v . x = M} with v the common direction does not contain c, so
    the parallel line triple becomes a finite concurrency; M sits one full
    functional spread beyond the farthest vertex, keeping the hexagon well
    clear of the new horizon.
    """
    vx, vy, _ = c.h
    values = [vx * x + vy * y for x, y in polygon.vertices]
    spread = max(values) - min(values)
    m = max(values) + spread + 1
    line = ProjLine(vx, vy, -m)
    return map_line_to_infinity(line, polygon)


def _read_normal_form(
    vertices: list[tuple[Fraction, Fraction]],
    c: tuple[Fraction, Fraction],
    r: int,
    pre_map: ProjMap2,
) -> HexNormalForm:
    """Read the normal form with the one anchor assignment the orientation allows.

    The edge lines (p_r, p_{r+5}) and (p_{r+2}, p_{r+3}) meet at c outside
    the hexagon, and each line through c meets it in a near and a far
    vertex.  The near chain p_{r+3}, p_{r+4}, p_{r+5} gives the direct
    assignment (c, p_{r+3}, p_{r+5} to (0,0), (1,0), (0,1)); the near chain
    p_r, p_{r+1}, p_{r+2} the mirror one (c, p_{r+2}, p_r).  In either
    normal form the triple (c, p_{r+3}, p_{r+5}) is counterclockwise, while
    the label order p_r..p_{r+5} is clockwise in the direct one and runs
    backwards in the mirrored one.  An affine map keeps or reverses all
    orientations at once, so the direct assignment is the right one exactly
    when, on the input, that triple turns against the label order.  A
    failed read is an internal failure (NormalFormConstraintViolated).
    """
    source_cw = _orient(vertices[0], vertices[1], vertices[2]) < 0
    direct = (_orient(c, vertices[(r + 3) % 6], vertices[(r + 5) % 6]) > 0) == source_cw
    if direct:
        anchors = (c, vertices[(r + 3) % 6], vertices[(r + 5) % 6])
        order = [(r + j) % 6 for j in range(6)]
    else:
        anchors = (c, vertices[(r + 2) % 6], vertices[r % 6])
        order = [(r + 5 - j) % 6 for j in range(6)]
    affine = affine_through_three(anchors, _TARGET)
    (v0, v1, v2, v3, v4, v5), _ = affine.apply_affine([vertices[k] for k in order])
    if v3 != (1, 0) or v5 != (0, 1):
        raise NormalFormConstraintViolated("anchor vertices moved")
    if v0[0] != 0 or v2[1] != 0:
        raise NormalFormConstraintViolated("axis alignment failed")
    x, y = v4
    if not (x > 0 and y > 0):
        raise NormalFormConstraintViolated(f"need x, y > 0, got ({x}, {y})")
    alpha, gamma = v0[1], v2[0]
    if v1[0] * y != v1[1] * x:
        raise NormalFormConstraintViolated("inner diagonal vertex left the ray")
    beta = v1[0] / x if x != 0 else v1[1] / y
    if not (alpha > 1 and beta > 1 and gamma > 1):
        raise NormalFormConstraintViolated(
            f"need alpha, beta, gamma > 1, got {alpha}, {beta}, {gamma}"
        )
    return HexNormalForm(
        alpha=alpha, beta=beta, gamma=gamma, x=x, y=y,
        rotation=r, mirrored=not direct, map=affine.compose(pre_map),
    )


def default_bipyramid_k(nf: HexNormalForm) -> Fraction:
    """K = max(alpha, beta, gamma) + 1, which exceeds alpha, beta and gamma."""
    return max(nf.alpha, nf.beta, nf.gamma) + 1


def build_bipyramid(nf: HexNormalForm) -> list[AmbientPoint]:
    """The five vertices of the bipyramid over the normal-form hexagon at
    K = default_bipyramid_k(nf); its section on H is that hexagon, whose
    vertices HexNormalForm lists.  Nothing is certified here."""
    alpha, beta, gamma, x, y = nf.alpha, nf.beta, nf.gamma, nf.x, nf.y
    k = default_bipyramid_k(nf)
    return [
        (Fraction(0), Fraction(0), -k),
        (Fraction(0), Fraction(0), Fraction(-1)),
        ((k - 1) * gamma / (k - gamma), Fraction(0), k * (gamma - 1) / (k - gamma)),
        (x * (k - 1) * beta / (k - beta), y * (k - 1) * beta / (k - beta),
         k * (beta - 1) / (k - beta)),
        (Fraction(0), (k - 1) * alpha / (k - alpha), k * (alpha - 1) / (k - alpha)),
    ]


def hexagon_extension5(polygon: Polygon) -> SectionedPolytope:
    """Certified 5-vertex extension of a hexagon, when one exists.

    The vertices of the bipyramid over the normal form are pulled back
    (bounded_pullback); the normalizing map carries the input to the normal
    form, so the result claims the input hexagon, and certify checks that
    claim against the recomputed section.
    """
    decision = hexagon_ic(polygon)
    if decision.ic == 6:
        raise ComplexitySix("this hexagon is not a section of any 5-vertex polytope")
    nf = hexagon_normal_form(polygon, decision.witness)
    vertices = bounded_pullback(build_bipyramid(nf), nf.map.inverse())
    return certify(SectionedPolytope(3, vertices, polygon))
