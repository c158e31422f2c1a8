import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polysec.errors import (
    DegenerateJoin,
    DegenerateTriple,
    DuplicateVertex,
    ImageNotConvex,
    MapsVertexToInfinity,
    NotConvex,
    TooFewVertices,
)
from polysec.exactgeom import det3, join, meet
from polysec.polygon import Polygon, ProjMap2, _encloses, _lift_keys, convex_hull_2d, frame_map, validate
from polysec.randgen import random_convex_polygon

from conftest import (
    SIX_CROSSING_HEPTAGON,
    apply_map,
    contains,
    lattice_polygon,
    point,
    rational_grid_point,
    row_of,
    side,
    strictly_contains,
)


def clockwise_everywhere(p: Polygon) -> bool:
    n = p.n
    return all(det3(p.vertex(i + 2), p.vertex(i + 1), p.vertex(i)) > 0 for i in range(n))


class TestValidate:
    def test_triangle_relabeled_clockwise(self):
        t = validate([(0, 0), (1, 0), (0, 1)])
        assert t.n == 3
        assert t.vertices[0] == (0, 0)  # lexicographically smallest first
        assert clockwise_everywhere(t)

    def test_collinear_rejected(self):
        with pytest.raises(NotConvex):
            validate([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_interior_point_rejected(self):
        with pytest.raises(NotConvex):
            validate([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])

    def test_self_crossing_order_rejected(self):
        # convex-position points traced in pentagram order
        pentagon = validate([(0, 0), (4, 1), (5, 3), (2, 5), (0, 3)])
        ring = pentagon.vertices
        star = [ring[0], ring[2], ring[4], ring[1], ring[3]]
        with pytest.raises(NotConvex):
            validate(star)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVertex):
            validate([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_too_few(self):
        with pytest.raises(TooFewVertices):
            validate([(0, 0), (1, 1)])

    def test_six_crossing_heptagon_accepted(self):
        p = validate(SIX_CROSSING_HEPTAGON)
        assert p.n == 7
        assert clockwise_everywhere(p)
        assert p.vertices[0] == (0, 0)

    def test_counterclockwise_input_flipped(self):
        cw = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        ccw = validate([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert cw == ccw

    def test_point_in_polygon(self):
        sq = validate([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert strictly_contains(sq, Fraction(1), Fraction(1))
        assert contains(sq, Fraction(0), Fraction(1))
        assert not strictly_contains(sq, Fraction(0), Fraction(1))
        assert not contains(sq, Fraction(3), Fraction(0))


@st.composite
def relabeled_polygons(draw):
    """A valid polygon of 3 to 9 vertices, seeded on the unit circle or of
    lattice points, and an order of its vertex indices."""
    n = draw(st.integers(3, 9))
    r = random.Random(draw(st.integers(0, 2**32)))
    polygon = random_convex_polygon(r, n) if draw(st.booleans()) else lattice_polygon(r, n)
    return polygon, draw(st.permutations(range(n)))


class TestConstructorValidates:
    """The Polygon constructor is the validator: it takes a polygon's lifts
    in any of its 2n cyclic orders to the one canonical Polygon, and
    refuses every other order and every point inside."""

    @settings(max_examples=150, derandomize=True)
    @given(case=relabeled_polygons())
    def test_rotations_and_reversal_give_the_canonical_polygon(self, case):
        polygon, _ = case
        canonical, lifts = validate(polygon.vertices), polygon.lifts
        for k in range(polygon.n):
            rotated = lifts[k:] + lifts[:k]
            assert Polygon(rotated) == Polygon(rotated[::-1]) == canonical
            assert Polygon(rotated).lifts == canonical.lifts == lifts

    @settings(max_examples=300, derandomize=True)
    @given(case=relabeled_polygons())
    def test_other_orders_and_inner_points_raise_not_convex(self, case):
        # an order of points in convex position traces the hull exactly
        # when it is a rotation or a reversed rotation; a vertex moved to
        # the centroid of the others (three or more, in strictly convex
        # position) lies inside their hull
        polygon, order = case
        n, lifts = polygon.n, polygon.lifts
        relabelings = {tuple((k + s * j) % n for j in range(n)) for k in range(n) for s in (1, -1)}
        if tuple(order) in relabelings:
            assert Polygon([lifts[k] for k in order]) == polygon
        else:
            with pytest.raises(NotConvex, match="does not trace the convex hull"):
                Polygon([lifts[k] for k in order])
        if n >= 4:
            others = [v for k, v in enumerate(polygon.vertices) if k != order[0]]
            centroid = tuple(sum(v[c] for v in others) / (n - 1) for c in (0, 1))
            moved = [row_of(centroid) if k == order[0] else lifts[k] for k in range(n)]
            with pytest.raises(NotConvex, match="collinear or interior points"):
                Polygon(moved)


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
AT_INFINITY = (0, 0, 1)


def image(t: ProjMap2, p) -> tuple:
    """The canonical image of a point, the matrix times its triple."""
    return point(*(sum(a * b for a, b in zip(row, p)) for row in t.m))


class TestApplyMap:
    def test_identity(self):
        p = validate(SIX_CROSSING_HEPTAGON)
        assert apply_map(p, ProjMap2(IDENTITY)) == p

    def test_translation(self):
        p = validate([(0, 0), (1, 0), (0, 1)])
        t = ProjMap2(((1, 0, 1), (0, 1, 2), (0, 0, 1)))
        q = apply_map(p, t)
        assert sorted(q.vertices) == [(1, 2), (1, 3), (2, 2)]

    def test_line_through_interior_breaks_image(self):
        p = validate([(0, 0), (2, 0), (2, 2), (0, 2)])
        # send the vertical line x = 1 to infinity: it crosses the square
        t = ProjMap2(((0, 1, 0), (0, 0, 1), (1, 0, -1)))
        with pytest.raises((ImageNotConvex, MapsVertexToInfinity)):
            apply_map(p, t)

    def test_preserves_size_and_orientation(self, rng):
        for _ in range(25):
            p = random_convex_polygon(rng, rng.randrange(3, 9))
            shift = ProjMap2(((2, 0, 3), (0, 2, -1), (0, 0, 1)))
            q = apply_map(p, shift)
            assert q.n == p.n and clockwise_everywhere(q)


class TestMapLineToInfinity:
    """frame_map in its horizon role: the given line goes to infinity."""

    def test_line_at_infinity_gives_identity(self):
        t = frame_map(point(0, 0), point(1, 0), point(0, 1), AT_INFINITY)
        assert t.m == IDENTITY

    def test_vertical_line_left_of_polygon(self):
        # x = -1 misses the triangle: one weight sign on it, and a point of
        # the line has weight 0
        p = validate([(1, 0), (2, 0), (1, 1)])
        line = (1, 0, 1)
        t = frame_map(p.vertex(0), p.vertex(1), p.vertex(2), line)
        assert all(w > 0 for _, _, w in t.apply(p.lifts))
        with pytest.raises(MapsVertexToInfinity):
            t.apply([point(-1, 5)])

    def test_crossing_line_rejected(self):
        # the vertical line x = 1 crosses the square: the map built with it
        # as horizon separates the vertices
        p = validate([(0, 0), (2, 0), (2, 2), (0, 2)])
        horizon = join(point(1, -1), point(1, 3))
        t = frame_map(point(0, 0), point(0, 2), point(2, 0), horizon)
        with pytest.raises(ImageNotConvex):
            t.apply(p.lifts)
        with pytest.raises(MapsVertexToInfinity):
            t.apply([point(1, 0)])

    def test_composition_yields_bounded_polygon(self, rng):
        for _ in range(25):
            p = random_convex_polygon(rng, 7)
            # a line strictly right of the polygon (circle points have x <= 1)
            line = (1, 0, -3)  # x = 3
            t = frame_map(p.vertex(0), p.vertex(3), p.vertex(5), line)
            q = apply_map(p, t)
            assert q.n == 7 and clockwise_everywhere(q)

    def test_horizon_sent_to_infinity(self, rng):
        for _ in range(25):
            a, b = rational_grid_point(rng), rational_grid_point(rng)
            if a == b:
                continue
            horizon = join(point(*a), point(*b))
            frame = [point(*rational_grid_point(rng)) for _ in range(3)]
            if any(side(horizon, q) == 0 for q in frame) or det3(*frame) == 0:
                continue
            t = frame_map(*frame, horizon)
            for q in (point(*a), point(*b)):
                assert image(t, q)[2] == 0
            assert [image(t, q) for q in frame] == [point(0, 0), point(1, 0), point(0, 1)]

    def test_inverse_is_primitive_and_inverts(self, rng):
        # the adjugate divided by its gcd, with no determinant test: a
        # primitive matrix whose product with the map is a nonzero scalar
        for _ in range(25):
            p = random_convex_polygon(rng, 7)
            for horizon in ((1, 0, -3), join(p.vertex(1), p.vertex(4))):
                t = frame_map(p.vertex(0), p.vertex(3), p.vertex(5), horizon)
                inverse = t.inverse().m
                assert gcd(*(v for row in inverse for v in row)) == 1
                product = [[sum(t.m[i][k] * inverse[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
                scale = product[0][0]
                assert scale != 0 and product == [[scale * (i == j) for j in range(3)] for i in range(3)]

    def test_origin_at_infinity(self):
        # the direction (1, 1) goes to the origin when the horizon is a
        # finite line that misses it
        origin = (1, 1, 0)
        t = frame_map(origin, point(0, 1), point(1, 0), (1, 1, -5))
        assert image(t, origin) == point(0, 0)
        assert image(t, point(0, 1)) == point(1, 0)
        assert image(t, point(1, 0)) == point(0, 1)
        assert image(t, point(5, 0))[2] == 0
        # (1, 2) lies on the line through the origin's direction and (0, 1)
        assert image(t, point(1, 2))[1] == 0


class TestAffineThroughThree:
    """frame_map with the line at infinity as horizon: the affine map that
    sends three points to (0, 0), (1, 0) and (0, 1)."""

    def test_identity(self):
        t = frame_map(point(0, 0), point(1, 0), point(0, 1), AT_INFINITY)
        assert t.m == IDENTITY

    def test_doubling(self):
        half = Fraction(1, 2)
        t = frame_map(point(0, 0), point(half, 0), point(0, half), AT_INFINITY)
        assert image(t, point(3, 5)) == point(6, 10)

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateTriple):
            frame_map(point(0, 0), point(1, 1), point(2, 2), AT_INFINITY)
        with pytest.raises(DegenerateTriple):
            # a frame point on the horizon
            frame_map(point(0, 0), point(1, 0), point(0, 1), (1, 0, -1))
        with pytest.raises(DegenerateTriple):
            # equal units are collinear with the origin
            frame_map(point(0, 0), point(1, 0), point(1, 0), AT_INFINITY)
        with pytest.raises(DegenerateJoin):
            frame_map(point(0, 0), point(0, 0), point(0, 1), AT_INFINITY)
        with pytest.raises(DegenerateJoin):
            frame_map(point(0, 0), point(1, 0), point(0, 0), AT_INFINITY)

    def test_exact_interpolation_fuzz(self, rng):
        for _ in range(50):
            frame = [point(Fraction(rng.randrange(-40, 40), 8), Fraction(rng.randrange(-40, 40), 8))
                     for _ in range(3)]
            if det3(*frame) == 0:
                continue
            t = frame_map(*frame, AT_INFINITY)
            assert t.det != 0 and t.m[2][:2] == (0, 0) and t.m[2][2] > 0
            assert [image(t, q) for q in frame] == [point(0, 0), point(1, 0), point(0, 1)]


def scaled(triple, c) -> tuple:
    return tuple(c * v for v in triple)


seeds = st.integers(0, 2**32)
nonzero = st.integers(-30, 30).filter(bool)
positive = st.integers(1, 30)


class TestRepresentatives:
    """Polygon.vertex hands the projective kernel the hull's lifts, not the
    canonical triples: join, meet and frame_map give the same results for
    any multiples of their inputs, except that a negated frame origin
    negates the map's matrix, the one sign that matters."""

    @given(seeds, st.integers(3, 9))
    def test_vertex_is_the_canonical_triple(self, seed, n):
        polygon = random_convex_polygon(random.Random(seed), n)
        for k, (x, y) in enumerate(polygon.vertices):
            assert polygon.vertex(k) == point(x, y)

    @given(seeds, nonzero, nonzero, nonzero, nonzero)
    def test_join_and_meet_ignore_scaling(self, seed, s, t, u, v):
        p = random_convex_polygon(random.Random(seed), 7).vertex
        l1, l2 = join(p(0), p(3)), join(p(1), p(5))
        assert join(scaled(p(0), s), scaled(p(3), t)) == l1 == join(point(*p(0)), point(*p(3)))
        assert meet(scaled(l1, u), scaled(l2, v)) == meet(l1, l2)
        # a meet at infinity keeps its canonical direction
        x_axis, y_one = join(point(0, 0), point(1, 0)), join(point(0, 1), point(1, 1))
        assert meet(scaled(x_axis, u), scaled(y_one, v)) == (1, 0, 0)

    @given(seeds, positive, nonzero, nonzero, nonzero)
    def test_frame_map_ignores_scaling_but_the_origin_sign(self, seed, a, b, c, d):
        polygon = random_convex_polygon(random.Random(seed), 7)
        p = polygon.vertex
        origin, x_unit, y_unit, horizon = p(0), p(2), p(5), join(p(1), p(4))
        m = frame_map(origin, x_unit, y_unit, horizon).m
        canonical = [point(*polygon.vertices[k]) for k in (0, 2, 5)]
        assert frame_map(*canonical, horizon).m == m
        assert frame_map(scaled(origin, a), scaled(x_unit, b), scaled(y_unit, c), scaled(horizon, d)).m == m
        negated = frame_map(scaled(origin, -a), x_unit, y_unit, horizon).m
        assert negated == tuple(scaled(row, -1) for row in m)


def fraction_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def fraction_monotone_chain(points):
    """The strict counterclockwise hull by the monotone chain on Fraction
    orientations: the reference for the integer-sign convex_hull_2d."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    halves = []
    for order in (pts, pts[::-1]):
        half = []
        for p in order:
            while len(half) >= 2 and fraction_orient(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        halves.append(half[:-1])
    return halves[0] + halves[1]


def fraction_validate(points):
    """(error class, message) or (None, canonical vertices), as validate
    decided them on Fraction orientations, a set and a dict of Fractions."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(pts) < 3:
        return TooFewVertices, f"need at least 3 vertices, got {len(pts)}"
    if len(set(pts)) != len(pts):
        return DuplicateVertex, "duplicate vertices in input"
    hull = fraction_monotone_chain(pts)
    if len(hull) != len(pts):
        return NotConvex, "input contains collinear or interior points"
    index_of = {p: k for k, p in enumerate(hull)}
    n = len(pts)
    diffs = {(index_of[pts[(i + 1) % n]] - index_of[pts[i]]) % n for i in range(n)}
    if diffs != {1} and diffs != {n - 1}:
        return NotConvex, "vertex order does not trace the convex hull"
    return None, tuple(hull[:1] + hull[:0:-1])


small_coords = st.fractions(min_value=-8, max_value=8, max_denominator=4)
# numerators and denominators of about 300 bits
huge_coords = st.builds(Fraction, st.integers(-2**301, 2**301), st.integers(2**299, 2**300))
planar_points = st.tuples(st.one_of(small_coords, huge_coords), st.one_of(small_coords, huge_coords))


@st.composite
def point_clouds(draw):
    """Up to a dozen points, including none, with collinear runs along
    random directions (vertical ones too) and repeated points."""
    pts = draw(st.lists(planar_points, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        (bx, by), (dx, dy) = draw(planar_points), draw(planar_points)
        steps = draw(st.lists(st.integers(-3, 3), max_size=5))
        pts += [(bx + k * dx, by + k * dy) for k in steps]
    if pts:
        pts += [pts[k % len(pts)] for k in draw(st.lists(st.integers(0, 99), max_size=4))]
    return draw(st.permutations(pts))


@st.composite
def polygon_inputs(draw):
    """A convex polygon in some cyclic order, scaled by a large rational,
    then possibly spoiled: a repeated vertex, an edge midpoint, an interior
    point, two vertices swapped, or vertices dropped."""
    n = draw(st.integers(3, 9))
    polygon = random_convex_polygon(random.Random(draw(st.integers(0, 2**32))), n)
    scale = draw(st.one_of(st.just(Fraction(1)), huge_coords.filter(bool)))
    pts = [(x * scale, y * scale) for x, y in polygon.vertices]
    r = draw(st.integers(0, n - 1))
    pts = pts[r:] + pts[:r]
    if draw(st.booleans()):
        pts.reverse()
    i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
    a, b = pts[i], pts[(i + 1) % len(pts)]
    spoil = draw(st.sampled_from(["none", "repeat", "midpoint", "interior", "swap", "drop"]))
    if spoil == "repeat":
        pts.insert(j, pts[i])
    elif spoil == "midpoint":
        pts.insert(i + 1, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    elif spoil == "interior":
        c = pts[(i + 2) % len(pts)]
        pts.insert(j, ((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3))
    elif spoil == "swap":
        pts[i], pts[j] = pts[j], pts[i]
    elif spoil == "drop":
        pts = pts[:draw(st.integers(0, len(pts)))]
    return pts


# coprime denominators of 301 bits, just below 2^301; m - 1/B2 exceeds
# m - 1/B1 by exactly 1/(B1 B2), the smallest gap between two values with
# these denominators, just above the 2^-602 resolution of the hull's
# integer sort keys
B1, B2 = 2**301 - 2, 2**301 - 1


def gap_pair(m: int) -> tuple[Fraction, Fraction]:
    return Fraction(m * B1 - 1, B1), Fraction(m * B2 - 1, B2)


X1, X2 = gap_pair(-3)  # negative numerators
P1, P2 = gap_pair(2)
# x one gap apart, then y one gap apart at equal x; int and Fraction mixed
GAP_X = [(X1, 0), (X2, Fraction(0)), (X1, 1)]
GAP_Y = [(0, X1), (Fraction(0), X2), (1, X1)]
GAP_POSITIVE = [(P2, Fraction(1, 3)), (P1, Fraction(1, 3)), (P2, -5)]
# B lies one gap right of the line x = X1 through A and C
GAP_QUAD = [(X1, 0), (X2, 1), (X1, 2), (X1 - 1, Fraction(1))]

# star orders of convex polygons: every turn has one sign, as any three
# points in convex position turn the polygon's way in cyclic order, but the
# cycle winds twice
PENTAGON = [(0, 0), (4, -1), (6, 2), (3, 5), (-1, 3)]
PENTAGRAM = [PENTAGON[2 * k % 5] for k in range(5)]
HEPTAGRAM = [SIX_CROSSING_HEPTAGON[2 * k % 7] for k in range(7)]
# vertical edges at the lexicographic minimum and maximum
VERTICAL_ENDS_SQUARE = [(0, 0), (0, 1), (1, 1), (1, 0)]
VERTICAL_ENDS_HEXAGON = [(0, 0), (0, 1), (1, 2), (2, 1), (2, 0), (1, -1)]


class TestHullOrder:
    def test_one_and_two_points(self):
        p, q = (Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(7))
        assert convex_hull_2d([p]) == (p,)
        assert convex_hull_2d([p, q]) == convex_hull_2d([q, p, q]) == (q, p)


class TestIntegerHullOracle:
    @settings(max_examples=300)
    @given(points=point_clouds())
    @example(points=GAP_X)
    @example(points=GAP_X[::-1])
    @example(points=GAP_Y)
    @example(points=GAP_Y[::-1])
    @example(points=GAP_POSITIVE)
    @example(points=GAP_POSITIVE[::-1])
    @example(points=GAP_QUAD)
    def test_hull_matches_fraction_chain(self, points):
        # the reference runs counterclockwise; the hull is in canonical order
        ccw = fraction_monotone_chain(points)
        assert convex_hull_2d(points) == tuple(ccw[:1] + ccw[:0:-1])

    @settings(max_examples=300)
    @given(points=polygon_inputs())
    @example(points=GAP_X)
    @example(points=GAP_X[::-1])
    @example(points=GAP_Y)
    @example(points=GAP_Y[::-1])
    @example(points=GAP_POSITIVE[::-1])
    @example(points=GAP_QUAD)
    @example(points=GAP_QUAD[::-1])
    @example(points=GAP_QUAD + GAP_QUAD[1:2])
    @example(points=PENTAGRAM)
    @example(points=PENTAGRAM[::-1])
    @example(points=HEPTAGRAM)
    @example(points=HEPTAGRAM[::-1])
    @example(points=PENTAGON + PENTAGON)
    @example(points=VERTICAL_ENDS_SQUARE)
    @example(points=VERTICAL_ENDS_HEXAGON)
    @example(points=VERTICAL_ENDS_HEXAGON[::-1])
    @example(points=VERTICAL_ENDS_HEXAGON[1:] + VERTICAL_ENDS_HEXAGON[:1])
    def test_validate_matches_fraction_validate(self, points):
        error, outcome = fraction_validate(points)
        if error is None:
            assert validate(points).vertices == outcome
        else:
            with pytest.raises(error) as raised:
                validate(points)
            assert str(raised.value) == outcome


# the half-integer grid around the clouds: points on edges, on the lines of
# edges past their ends, at vertices and beside them
HALF_GRID = [(Fraction(x, 2), Fraction(y, 2)) for x in range(-8, 9) for y in range(-8, 9)]


class TestEncloses:
    @settings(max_examples=80, derandomize=True)
    @given(cloud=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=10))
    @example(cloud=VERTICAL_ENDS_SQUARE)
    @example(cloud=VERTICAL_ENDS_HEXAGON)
    def test_matches_every_edge_turn(self, cloud):
        # small integer clouds have vertical edges at either end often
        hull = convex_hull_2d([(Fraction(x), Fraction(y)) for x, y in cloud])
        assume(len(hull) >= 3)
        polygon = validate(hull)
        n = polygon.n
        lifts = [point(*p) for p in (*polygon.vertices, *HALF_GRID)]
        keys = _lift_keys(lifts)
        for k, (x, y) in enumerate(HALF_GRID, n):
            assert _encloses(lifts[:n], keys[:n], [lifts[k]], [keys[k]]) == contains(polygon, x, y)
