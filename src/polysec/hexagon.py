"""Deciding whether a hexagon is a section of a 5-vertex polytope.

A hexagon is a section of a triangular bipyramid with 5 vertices exactly
when the two opposite edge lines (p_r, p_{r+5}), (p_{r+2}, p_{r+3}) and the
diagonal (p_{r+1}, p_{r+4}) are concurrent for one of the three pairings
r = 0, 1, 2; otherwise six vertices are needed and the hexagon is its own
cheapest section.  hexagon_normal_form brings a witness to its normal form
by one projective map, built from its frame (polygon.frame_map): the
concurrency point, two vertices and a horizon.  build_bipyramid returns the
bipyramid's vertex list; only hexagon_extension5 returns a certified
SectionedPolytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import NoConcurrency, NormalFormConstraintViolated, NotHexagon
from .exactgeom import Triple, _dot, det3, join, meet
from .polygon import Polygon, ProjMap2, frame_map
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


def _pairing_lines(polygon: Polygon, r: int) -> tuple[Triple, Triple, Triple]:
    p = polygon.vertex
    return (
        join(p(r), p(r + 5)),
        join(p(r + 1), p(r + 4)),
        join(p(r + 2), p(r + 3)),
    )


def concurrency_point(polygon: Polygon, r: int) -> Optional[Triple]:
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
    """The intersection complexity, and for 5 the witness pairing r with
    its concurrency point, which hexagon_normal_form takes as found."""

    ic: int
    witness: Optional[int]
    point: Optional[Triple]


def hexagon_ic(polygon: Polygon) -> HexDecision:
    """Intersection complexity of a hexagon: (5, witness r, its concurrency
    point) or (6, None, None)."""
    _require_hexagon(polygon)
    for r in range(3):
        c = concurrency_point(polygon, r)
        if c is not None:
            return HexDecision(5, r, c)
    return HexDecision(6, None, None)


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
    mirrored: bool
    map: ProjMap2


def hexagon_normal_form(polygon: Polygon, decision: HexDecision) -> HexNormalForm:
    """Normalize a hexagon by one map, from its decision (hexagon_ic): the
    witness r, whose line triple is concurrent, and that concurrency point
    c, not looked for again.  NoConcurrency for a hexagon of complexity 6.

    The map is built from its frame (frame_map): the concurrency point c
    and two vertices go to (0,0), (1,0) and (0,1), and a horizon to
    infinity.  Three points and a line fix a projective map, so this is the
    normalizing map.  The horizon is the line at infinity when c is finite;
    when c is at infinity it is a far line (_far_line) that c is not on, so
    c still goes to the origin.

    The edge lines (p_r, p_{r+5}) and (p_{r+2}, p_{r+3}) meet at c outside
    the hexagon, and each line through c meets it in a near and a far
    vertex.  The near chain p_{r+3}, p_{r+4}, p_{r+5} gives the direct
    frame (c, p_{r+3}, p_{r+5}); the near chain p_r, p_{r+1}, p_{r+2} the
    mirrored one (c, p_{r+2}, p_r).  In either normal form the triple
    (c, p_{r+3}, p_{r+5}) is counterclockwise, while the label order
    p_r..p_{r+5} is clockwise in the direct one and runs backwards in the
    mirrored one.  A projective map keeps or reverses all orientations of
    points on one side of its horizon at once, so the direct frame is the
    right one exactly when that triple turns against the label order; c's
    triple is negated first when it lies across the horizon from the
    vertices.  A failed read is an internal failure
    (NormalFormConstraintViolated).
    """
    _require_hexagon(polygon)
    r, c = decision.witness, decision.point
    if c is None:
        raise NoConcurrency("no pairing of this hexagon is concurrent")
    horizon = (0, 0, 1) if c[2] != 0 else _far_line(polygon, c)
    p = polygon.vertex
    c_row = c if _dot(horizon, c) * _dot(horizon, p(r)) > 0 else tuple(-v for v in c)
    direct = (det3(c_row, p(r + 3), p(r + 5)) > 0) == (det3(p(0), p(1), p(2)) < 0)
    if direct:
        normalize = frame_map(c, p(r + 3), p(r + 5), horizon)
        order = [(r + j) % 6 for j in range(6)]
    else:
        normalize = frame_map(c, p(r + 2), p(r), horizon)
        order = [(r + 5 - j) % 6 for j in range(6)]
    (v0, v1, v2, _, v4, _), _ = normalize.apply_affine([polygon.vertices[k] for k in order])
    x, y = v4
    if not (x > 0 and y > 0):
        raise NormalFormConstraintViolated(f"need x, y > 0, got ({x}, {y})")
    alpha, beta, gamma = v0[1], v1[0] / x, v2[0]
    if not (alpha > 1 and beta > 1 and gamma > 1):
        raise NormalFormConstraintViolated(
            f"need alpha, beta, gamma > 1, got {alpha}, {beta}, {gamma}"
        )
    return HexNormalForm(alpha=alpha, beta=beta, gamma=gamma, x=x, y=y,
                         mirrored=not direct, map=normalize)


def _far_line(polygon: Polygon, c: Triple) -> Triple:
    """A far line, an integer triple, normal to the direction c, a point at infinity.

    The line {v . x = M} with v the common direction does not contain c;
    M = 2 max - min + 1 of v . x over the vertices sits one full functional
    spread beyond the farthest vertex, keeping the hexagon well clear of
    it.  The triple is (v, -M) times the denominator of M.
    """
    vx, vy, _ = c
    values = [vx * x + vy * y for x, y in polygon.vertices]
    m = 2 * max(values) - min(values) + 1
    return vx * m.denominator, vy * m.denominator, -m.numerator


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


def hexagon_extension5(polygon: Polygon, decision: HexDecision) -> SectionedPolytope:
    """Certified 5-vertex extension of a hexagon, from its decision
    (hexagon_ic); NoConcurrency (hexagon_normal_form) for complexity 6.

    The vertices of the bipyramid over the normal form are pulled back
    (bounded_pullback); the normalizing map carries the input to the normal
    form, so the result claims the input hexagon, and certify checks that
    claim against the recomputed section.
    """
    nf = hexagon_normal_form(polygon, decision)
    vertices = bounded_pullback(build_bipyramid(nf), nf.map.inverse())
    return certify(SectionedPolytope(3, vertices, polygon))
