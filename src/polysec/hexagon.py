"""Deciding whether a hexagon is a section of a 5-vertex polytope.

A hexagon is a section of a triangular bipyramid with 5 vertices exactly
when the two opposite edge lines (p_r, p_{r+5}), (p_{r+2}, p_{r+3}) and the
diagonal (p_{r+1}, p_{r+4}) are concurrent for one of the three pairings
r = 0, 1, 2; otherwise six vertices are needed and the hexagon is its own
cheapest section.  hexagon_normal_form brings a witness to its normal form
by one projective map, built from its frame (polygon.frame_map): the
concurrency point, two vertices and a horizon.  Its parameter signs follow
from the witness's strict convexity and are proved, not guarded.

All of it runs in integers.  The polynomial core, build_bipyramid, maps
the normal-form parameters and K, integer pairs (N, D), D > 0, to
homogeneous rows with +, - and * only, so the tests also run it on
polynomial symbols and prove that its six segment crossings are the six
normal-form vertices.  The normalization divides each row by its gcd;
hexagon_extension5 pulls the rows back and certifies the result.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NoConcurrency, NotHexagon
from .exactgeom import Triple, _by_value, _dot, _primitive_ints, det3, join, meet
from .linalg import Pair
from .polygon import Polygon, ProjMap2, frame_map
from .sections import Row, SectionedPolytope, bounded_pullback, certify

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


class HexNormalForm(NamedTuple):
    """Normal-form parameters, integer pairs (N, D), D > 0, and the map
    that produces them: the vertices (0, alpha), beta*(x, y), (gamma, 0),
    (1, 0), (x, y), (0, 1), x, y > 0 and alpha, beta, gamma > 1.
    `mirrored` records whether the map reverses orientation (both
    orientations of the witness occur among valid hexagons)."""

    alpha: Pair
    beta: Pair
    gamma: Pair
    x: Pair
    y: Pair
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
    vertices.  So the images turn clockwise in the order read, every turn
    of the normal-form vertices 0..5 is < 0, and nothing is checked (the
    tests prove each identity on symbols): 1 - alpha = turn(3,5,0) and
    1 - gamma = turn(2,3,5), then x (1 - alpha) = turn(4,5,0) and
    y (1 - gamma) = turn(2,3,4), then x + y - 1 = turn(3,4,5) and
    alpha gamma - beta (alpha x + gamma y) = turn(0,1,2) give alpha,
    gamma > 1, x, y > 0 and beta > 1 / (x / gamma + y / alpha) > 1.
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
    images = normalize.apply([p(k) for k in order])
    sign = 1 if images[0][2] > 0 else -1  # the weights have one sign
    (_, y0, w0), (x1, _, w1), (x2, _, w2), _, (x, y, w), _ = [[sign * v for v in im] for im in images]
    return HexNormalForm(alpha=(y0, w0), beta=(x1 * w, w1 * x), gamma=(x2, w2), x=(x, w), y=(y, w),
                         mirrored=not direct, map=normalize)


def _far_line(polygon: Polygon, c: Triple) -> Triple:
    """A far line, an integer triple, normal to the direction c, a point at infinity.

    The line {v . x = M} with v the common direction does not contain c;
    M = 2 max - min + 1 of v . x over the vertices sits one full functional
    spread beyond the farthest vertex, keeping the hexagon well clear of
    it.  The values are the pairs (v . (X, Y), W) of the lifts, and the
    triple is (v D, -N) for M = N / D.
    """
    vx, vy, _ = c
    values = [(vx * x + vy * y, w) for x, y, w in polygon.lifts]
    (hn, hd), (ln, ld) = max(values, key=_by_value), min(values, key=_by_value)
    m = hd * ld
    return vx * m, vy * m, ln * hd - 2 * hn * ld - m


def default_bipyramid_k(nf: HexNormalForm) -> Pair:
    """K = max(alpha, beta, gamma) + 1, a pair."""
    n, d = max(nf.alpha, nf.beta, nf.gamma, key=_by_value)
    return n + d, d


def build_bipyramid(nf: HexNormalForm, k: Pair) -> list[Row]:
    """The rows (X, Y, Z, W), not divided by their gcd, of the vertices
    (0, 0, -K), (0, 0, -1) and, positive in W for K > alpha, beta, gamma,
    ((K-1) gamma, 0, K (gamma-1)) / (K - gamma), ((K-1) beta x, (K-1) beta y,
    K (beta-1)) / (K - beta) and (0, (K-1) alpha, K (alpha-1)) / (K - alpha)
    at K = k: the polynomial core (module docstring).  Nothing is certified."""
    (an, ad), (bn, bd), (gn, gd), (xn, xd), (yn, yd) = nf[:5]
    kn, kd = k
    k1 = kn - kd  # (K - 1) kd
    return [
        (0, 0, -kn, kd),
        (0, 0, -1, 1),
        (k1 * gn, 0, kn * (gn - gd), kn * gd - gn * kd),
        (k1 * bn * xn * yd, k1 * bn * yn * xd, kn * (bn - bd) * xd * yd, (kn * bd - bn * kd) * xd * yd),
        (0, k1 * an, kn * (an - ad), kn * ad - an * kd),
    ]


def hexagon_extension5(polygon: Polygon, decision: HexDecision) -> SectionedPolytope:
    """Certified 5-vertex extension of a hexagon, from its decision
    (hexagon_ic); NoConcurrency (hexagon_normal_form) for complexity 6.

    The bipyramid's rows at the default K, each divided by its gcd, are
    pulled back (bounded_pullback); the normalizing map carries the input to
    the normal form, so the result claims the input hexagon, and certify
    checks that claim against the recomputed section.
    """
    nf = hexagon_normal_form(polygon, decision)
    rows = [_primitive_ints(row) for row in build_bipyramid(nf, default_bipyramid_k(nf))]
    return certify(SectionedPolytope(3, bounded_pullback(rows, nf.map.inverse()), polygon))
