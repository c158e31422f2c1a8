"""Deciding whether a hexagon is a section of a 5-vertex polytope.

A hexagon is a section of a triangular bipyramid with 5 vertices exactly
when the two opposite edge lines (p_r, p_{r+5}), (p_{r+2}, p_{r+3}) and the
diagonal (p_{r+1}, p_{r+4}) are concurrent for one of the three pairings
r = 0, 1, 2; otherwise six vertices are needed and the hexagon is its own
cheapest section.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    BadK,
    ComplexitySix,
    NoConcurrency,
    NormalFormConstraintViolated,
    NotHexagon,
)
from .exactgeom import ProjLine, ProjPoint, det3, join, meet
from .polygon import (
    Polygon,
    ProjMap2,
    affine_through_three,
    map_line_to_infinity,
    validate,
)
from .sections import SectionedPolytope, bounded_pullback, certify

__all__ = [
    "HexNormalForm",
    "HexDecision",
    "concurrency_point",
    "hexagon_ic",
    "hexagon_normal_form",
    "hexagon_extension5",
    "normal_form_vertices",
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


def normal_form_vertices(nf: HexNormalForm) -> list[tuple[Fraction, Fraction]]:
    return [
        (Fraction(0), nf.alpha),
        (nf.beta * nf.x, nf.beta * nf.y),
        (nf.gamma, Fraction(0)),
        (Fraction(1), Fraction(0)),
        (nf.x, nf.y),
        (Fraction(0), Fraction(1)),
    ]


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
        vertices = [polygon.affine(k) for k in range(6)]
        return _normal_form_finite(vertices, c.dehomogenize(), r, ProjMap2.identity())
    to_finite = _finite_reduction_map(polygon, c)
    vertices = []
    for k in range(6):
        raw = to_finite.apply_raw(polygon.vertex(k))
        vertices.append((Fraction(raw[0], raw[2]), Fraction(raw[1], raw[2])))
    raw_c = to_finite.apply_raw(c)
    if raw_c[2] == 0:
        raise NormalFormConstraintViolated("concurrency point stayed at infinity")
    c_img = (Fraction(raw_c[0], raw_c[2]), Fraction(raw_c[1], raw_c[2]))
    return _normal_form_finite(vertices, c_img, r, to_finite)


def _finite_reduction_map(polygon: Polygon, c: ProjPoint) -> ProjMap2:
    """Send a far line, normal to the direction c, to infinity.

    The line {v . x = M} with v the common direction does not contain c, so
    the parallel line triple becomes a finite concurrency; M sits one full
    functional spread beyond the farthest vertex, keeping the hexagon well
    clear of the new horizon.
    """
    vx, vy, _ = c.h
    values = [vx * x + vy * y for x, y in (p.dehomogenize() for p in polygon.vertices)]
    spread = max(values) - min(values)
    m = max(values) + spread + 1
    line = ProjLine(vx, vy, -m)
    return map_line_to_infinity(line, polygon)


def _tri(p, q, s) -> Fraction:
    return (q[0] - p[0]) * (s[1] - p[1]) - (q[1] - p[1]) * (s[0] - p[0])


def _normal_form_finite(
    vertices: list[tuple[Fraction, Fraction]],
    c: tuple[Fraction, Fraction],
    r: int,
    pre_map: ProjMap2,
) -> HexNormalForm:
    # Valid witnesses come in two orientations: the concurrency point sits
    # beyond either end of the diagonal, so the three anchors are assigned
    # either label-preserving or label-reversing.  Pick by orientation, keep
    # the other assignment as a certified fallback.
    source_cw = _tri(vertices[0], vertices[1], vertices[2]) < 0
    direct_first = (_tri(c, vertices[(r + 3) % 6], vertices[(r + 5) % 6]) > 0) == source_cw
    last_error = None
    for direct in ((True, False) if direct_first else (False, True)):
        try:
            return _read_normal_form(vertices, c, r, pre_map, direct)
        except NormalFormConstraintViolated as exc:
            last_error = exc
    raise NormalFormConstraintViolated(
        f"neither anchor assignment standardizes pairing {r}: {last_error}"
    )


def _read_normal_form(
    vertices: list[tuple[Fraction, Fraction]],
    c: tuple[Fraction, Fraction],
    r: int,
    pre_map: ProjMap2,
    direct: bool,
) -> HexNormalForm:
    if direct:
        anchors = (c, vertices[(r + 3) % 6], vertices[(r + 5) % 6])
        order = [(r + j) % 6 for j in range(6)]
    else:
        anchors = (c, vertices[(r + 2) % 6], vertices[r % 6])
        order = [(r + 5 - j) % 6 for j in range(6)]
    affine = affine_through_three(anchors, _TARGET)
    img = []
    for k in order:
        raw = affine.apply_raw(ProjPoint.from_affine(*vertices[k]))
        img.append((Fraction(raw[0], raw[2]), Fraction(raw[1], raw[2])))
    v0, v1, v2, v3, v4, v5 = img
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
    return max(nf.alpha, nf.beta, nf.gamma) + 1


def build_bipyramid(nf: HexNormalForm, k: Fraction) -> SectionedPolytope:
    """The 5-vertex bipyramid over the normal-form hexagon, certified."""
    alpha, beta, gamma, x, y = nf.alpha, nf.beta, nf.gamma, nf.x, nf.y
    if not k > max(alpha, beta, gamma):
        raise BadK(f"need K > max(alpha, beta, gamma), got {k}")
    vertices = [
        (Fraction(0), Fraction(0), -k),
        (Fraction(0), Fraction(0), Fraction(-1)),
        ((k - 1) * gamma / (k - gamma), Fraction(0), k * (gamma - 1) / (k - gamma)),
        (x * (k - 1) * beta / (k - beta), y * (k - 1) * beta / (k - beta),
         k * (beta - 1) / (k - beta)),
        (Fraction(0), (k - 1) * alpha / (k - alpha), k * (alpha - 1) / (k - alpha)),
    ]
    return certify(SectionedPolytope(3, vertices, validate(normal_form_vertices(nf))))


def hexagon_extension5(polygon: Polygon) -> SectionedPolytope:
    """Certified 5-vertex extension of a hexagon, when one exists."""
    decision = hexagon_ic(polygon)
    if decision.ic == 6:
        raise ComplexitySix("this hexagon is not a section of any 5-vertex polytope")
    nf = hexagon_normal_form(polygon, decision.witness)
    ext = build_bipyramid(nf, default_bipyramid_k(nf))
    result = bounded_pullback(ext, nf.map.inverse())
    if not result.certified or result.claimed_polygon() != polygon:
        raise NormalFormConstraintViolated("pulled-back bipyramid lost its section")
    return result
