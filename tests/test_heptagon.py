import random
from fractions import Fraction

import pytest

import polysec.exactgeom as exactgeom_module
import polysec.heptagon as heptagon_module
import polysec.polygon as polygon_module
import polysec.sections as sections_module
from polysec.errors import NotHeptagon, PolysecError
from polysec.exactgeom import _dot, _primitive_ints, cross, det3
from polysec.heptagon import (
    Crossing,
    StandardHeptagon,
    _octuple,
    _read_standard,
    build_standard_extension,
    classify_line,
    default_extension_k,
    find_noncrossing,
    heptagon_extension,
    heptagon_vertices,
    standardize,
    std_points,
)
from polysec.polygon import Polygon, _convex_cycle, _lift_keys, validate
from polysec.randgen import random_convex_polygon
from polysec.sections import SectionedPolytope, certify, compute_section

from conftest import (
    PUBLISHED_TO_CANONICAL_SHIFT,
    SIX_CROSSING_HEPTAGON,
    apply_map,
    contains,
    count_calls,
    count_calls_everywhere,
    extreme_vertices,
    lattice_polygon,
    map_line_to_infinity,
    octuple_sums,
    point,
    raw_polygon,
    row_of,
    side,
    strictly_contains,
    symbol,
    symbolic_octuples,
    symbolic_points,
    vertex_of,
)

STD_PARAMS = dict(a=(1, 2), b=(-1, 4), c=(-1, 4), d=(1, 2), lam=(1, 4), mu=(1, 4))


def standard_heptagon() -> StandardHeptagon:
    return StandardHeptagon(**STD_PARAMS)


def values(pairs) -> tuple:
    """The Fraction of each integer pair."""
    return tuple(Fraction(*pair) for pair in pairs)


def standard_points(std: StandardHeptagon) -> list:
    """The vertices of a standard heptagon in index order 0..6, as Fractions."""
    a, b, c, d, lam, mu = values(std)
    return [(0, 0), (c, d), (c, d + mu), (0, 1), (1, 0), (a + lam, b), (a, b)]


def standard_polygon() -> Polygon:
    return validate(standard_points(standard_heptagon()))


def standard_rows(std: StandardHeptagon) -> list:
    """The rows of the extension of std at the default K, each divided by its gcd."""
    return [tuple(_primitive_ints(row)) for row in build_standard_extension(std, default_extension_k(std))]


def planar_rows(calls) -> list:
    """The counted calls of exactgeom._row that lifted a planar point."""
    return [args for args in calls if len(args[0]) == 2]


def line_meets_polygon_oracle(line, polygon: Polygon) -> bool:
    """Edge-by-edge crossing test: the line meets the closed polygon iff some
    edge has endpoints on opposite sides or touching it."""
    n = polygon.n
    sides = [side(line, polygon.vertex(i)) for i in range(n)]
    return any(sides[i] == 0 or sides[i] * sides[(i + 1) % n] <= 0 for i in range(n))


def separated_pair_oracle(line, polygon: Polygon, i: int) -> str:
    sides = [side(line, polygon.vertex(i + k)) for k in range(7)]
    plus_pair = {sides[1], sides[2]}
    rest_plus = {sides[0], sides[3], sides[4], sides[5], sides[6]}
    minus_pair = {sides[5], sides[6]}
    rest_minus = {sides[0], sides[1], sides[2], sides[3], sides[4]}
    if 0 not in plus_pair and len(plus_pair) == 1 and rest_plus == {-next(iter(plus_pair))}:
        return "plus"
    if 0 not in minus_pair and len(minus_pair) == 1 and rest_minus == {-next(iter(minus_pair))}:
        return "minus"
    return "other"


class TestStdPoints:
    def test_six_crossing_heptagon_plus_point_matches_hand_solve(self):
        polygon = validate(SIX_CROSSING_HEPTAGON)
        i = PUBLISHED_TO_CANONICAL_SHIFT  # published index 0
        sp = std_points(polygon, i)
        # independent oracle: intersect the two lines by solving the 2x2 system
        def line_coeffs(p, q):
            (x0, y0), (x1, y1) = p, q
            return (y0 - y1, x1 - x0, x0 * y1 - x1 * y0)  # ax + by + c = 0
        l1 = line_coeffs(polygon.vertices[(i + 1) % 7], polygon.vertices[(i + 2) % 7])
        l2 = line_coeffs(polygon.vertices[i], polygon.vertices[(i + 3) % 7])
        det = l1[0] * l2[1] - l2[0] * l1[1]
        assert det != 0
        x = (-l1[2] * l2[1] + l2[2] * l1[1]) / det
        y = (-l1[0] * l2[2] + l2[0] * l1[2]) / det
        assert sp.plus == point(x, y)

    def test_plus_minus_outside_polygon(self, rng):
        for _ in range(30):
            polygon = random_convex_polygon(rng, 7)
            for i in range(7):
                sp = std_points(polygon, i)
                assert sp.plus != sp.minus
                for x, y, w in (sp.plus, sp.minus):
                    if w != 0:
                        assert not contains(polygon, Fraction(x, w), Fraction(y, w))

    def test_standard_heptagon_line0_at_infinity(self):
        polygon = standard_polygon()
        # the canonical rotation puts the standard index 0 at canonical 6
        sp = std_points(polygon, 6)
        assert sp.plus[2] == sp.minus[2] == 0
        assert sp.line == (0, 0, 1)

    def test_rejects_non_heptagon(self):
        with pytest.raises(NotHeptagon):
            std_points(validate([(0, 0), (1, 0), (0, 1)]), 0)


class TestClassifyLine:
    def test_six_crossing_heptagon_counts(self, obs_heptagon):
        kinds = [classify_line(obs_heptagon, i) for i in range(7)]
        assert kinds.count(Crossing.NON_CROSSING) == 1
        assert sum(k is not Crossing.NON_CROSSING for k in kinds) == 6

    def test_six_crossing_heptagon_coincident_pair(self, obs_heptagon):
        # the mirror symmetry makes the published lines l_2 and l_{-2} equal;
        # in canonical labels those are indices 6 and 2
        l_a = std_points(obs_heptagon, (2 + PUBLISHED_TO_CANONICAL_SHIFT) % 7).line
        l_b = std_points(obs_heptagon, (-2 + PUBLISHED_TO_CANONICAL_SHIFT) % 7).line
        assert cross(l_a, l_b) == (0, 0, 0)
        others = [std_points(obs_heptagon, i).line
                  for i in range(7) if i not in {2, 6}]
        for la, lb in zip(others, others[1:]):
            assert cross(la, lb) != (0, 0, 0)

    def test_standard_heptagon_index0_noncrossing(self):
        polygon = standard_polygon()
        assert classify_line(polygon, 6) is Crossing.NON_CROSSING

    def test_agrees_with_edge_intersection_oracle(self, rng):
        for _ in range(100):
            polygon = random_convex_polygon(rng, 7)
            for i in range(7):
                kind = classify_line(polygon, i)
                line = std_points(polygon, i).line
                assert (kind is not Crossing.NON_CROSSING) == \
                    line_meets_polygon_oracle(line, polygon)

    def test_separation_structure_oracle(self, rng):
        for _ in range(40):
            polygon = random_convex_polygon(rng, 7)
            for i in range(7):
                kind = classify_line(polygon, i)
                line = std_points(polygon, i).line
                pair = separated_pair_oracle(line, polygon, i)
                if kind is Crossing.PLUS_CROSSING:
                    assert pair == "plus"
                elif kind is Crossing.MINUS_CROSSING:
                    assert pair == "minus"
                else:
                    assert pair == "other"

    def test_tie_classifies_as_crossing(self):
        # the +-crossing expression is linear in any single vertex; slide
        # p_1 of the reference standard heptagon to the exact root so the
        # expression vanishes, and check the convention: a tie is a crossing,
        # matching the touching-line geometry
        base = standard_points(standard_heptagon())
        moved = list(base)
        moved[1] = (base[1][0] - Fraction(3, 44), base[1][1])
        polygon = raw_polygon(moved)
        for k in range(7):
            # still convex clockwise
            assert det3(polygon.vertex(k + 2), polygon.vertex(k + 1), polygon.vertex(k)) > 0
        o = _octuple(polygon.lifts, 2)
        assert o.a * o.b - o.c * o.d == 0 and o.g * o.h - o.e * o.f < 0
        assert classify_line(polygon, 2) is Crossing.PLUS_CROSSING
        line = std_points(polygon, 2).line
        assert line_meets_polygon_oracle(line, polygon)
        assert any(side(line, polygon.vertex(k)) == 0 for k in range(7))

    def test_compatibility_lemma(self, rng):
        # a +-crossing at i forbids a --crossing at i - 3, and dually
        for _ in range(150):
            polygon = random_convex_polygon(rng, 7)
            kinds = [classify_line(polygon, i) for i in range(7)]
            for i in range(7):
                assert not (kinds[i] is Crossing.PLUS_CROSSING
                            and kinds[(i - 3) % 7] is Crossing.MINUS_CROSSING)
                assert not (kinds[i] is Crossing.MINUS_CROSSING
                            and kinds[(i + 3) % 7] is Crossing.PLUS_CROSSING)


class TestFindNoncrossing:
    def test_standard_heptagon(self):
        polygon = standard_polygon()
        assert find_noncrossing(polygon) == 6

    def test_six_crossing_heptagon_unique_index(self, obs_heptagon):
        # derived: the mirror-symmetric line of the published index 0 misses P
        assert find_noncrossing(obs_heptagon) == PUBLISHED_TO_CANONICAL_SHIFT

    def test_always_succeeds(self, rng):
        for _ in range(200):
            polygon = random_convex_polygon(rng, 7)
            assert 0 <= find_noncrossing(polygon) < 7


class TestInvariantSum:
    """The cyclic determinant identity sum(AB - CD + EF - GH) = 0, proved on
    the octuples of the shipped _octuple over seven generic points."""

    def test_identity_and_halves_vanish(self):
        # proved: polynomials in the 14 coordinates, none of the halves zero
        sum_ab, sum_cd, sum_ef, sum_gh = octuple_sums(symbolic_octuples())
        assert sum_ab - sum_cd + sum_ef - sum_gh == 0
        assert sum_ab == sum_gh != 0 and sum_ef == sum_cd != 0

    def test_octuple_index_identities(self):
        octs = symbolic_octuples()
        for i in range(7):
            assert octs[i].b == octs[i].e
            assert octs[i].c == octs[i].h
            assert octs[i].c == octs[(i - 2) % 7].e
            assert octs[i].d + octs[(i - 3) % 7].c == \
                octs[(i - 2) % 7].f + octs[(i + 1) % 7].e


class TestStandardize:
    def test_already_standard_echoes_parameters(self):
        std = standard_heptagon()
        out, mapping = standardize(validate(standard_points(std)))
        assert values(out) == values(std)
        assert all(type(v) is int and d > 0 for (v, d) in out)
        # identity up to the canonical relabeling rotation
        assert mapping.m == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_six_crossing_heptagon_parameters(self, obs_heptagon):
        out, _ = standardize(obs_heptagon)
        # frozen, derived by running the exact pipeline; the input's mirror
        # symmetry shows up as a = d and lam = mu
        a, b, c, d, lam, mu = values(out)
        assert (a, d) == (Fraction(33, 46), Fraction(33, 46))
        assert (b, c) == (Fraction(-1, 2), Fraction(-1, 2))
        assert (lam, mu) == (Fraction(21, 115), Fraction(21, 115))

    def test_constraints_on_fuzzed_heptagons(self, rng):
        for _ in range(60):
            polygon = random_convex_polygon(rng, 7)
            out, mapping = standardize(polygon)
            a, b, c, d, lam, mu = values(out)
            assert b < 0 < a and c < 0 < d
            assert lam > 0 and mu > 0
            assert mapping.det != 0

    def test_polygon_is_validated_once(self, monkeypatch):
        # the input was validated when it was made; standardize tests no
        # convexity again, as the images' convexity is proved
        # (_read_standard)
        polygon = standard_polygon()
        cycles = count_calls_everywhere(monkeypatch, polygon_module, "_convex_cycle")
        out, _ = standardize(polygon)
        assert cycles == []
        assert values(out) == values(standard_heptagon())

    def test_rejects_bad_parameters(self):
        # the images of the vertices, at any positive scale
        std = standard_heptagon()
        rows = [row_of(p) for p in standard_points(std)]
        assert values(_read_standard([[3 * v for v in row] for row in rows])) == values(std)


def read_standard_guards(polygon: Polygon) -> None:
    """The checks that standardize no longer makes, as a test-side oracle:
    the frame map has a positive determinant and gives the seven images
    positive weights; they are a strictly convex clockwise heptagon with
    p_0, p_3, p_-3 at (0,0), (0,1), (1,0) and the edges (p_1, p_2) and
    (p_-1, p_-2) parallel to the axes; b, c < 0 < a, d, lam, mu; and
    p_i^+ != p_i^- at every index."""
    std, total = standardize(polygon)
    i = find_noncrossing(polygon)
    images = total.apply([polygon.vertex(i + k) for k in range(7)])
    assert total.det > 0 and all(w > 0 for *_, w in images)
    assert _convex_cycle(images, _lift_keys(images)) == -1
    (x0, y0, _), (x1, _, w1), (x2, _, w2), (x3, y3, w3), (x4, y4, w4), (_, y5, w5), (_, y6, w6) = images
    assert (x0, y0, x3, y4, y3, x4, x1 * w2, y5 * w6) == (0, 0, 0, 0, w3, w4, x2 * w1, y6 * w5)
    assert all(den > 0 for _, den in std)
    a, b, c, d, lam, mu = values(std)
    assert b < 0 < a and c < 0 < d and lam > 0 and mu > 0
    for k in range(7):
        sp = std_points(polygon, k)
        assert sp.plus != sp.minus


class TestStandardFormProved:
    """The facts standardize takes as proved (_read_standard, std_points),
    as polynomial identities on symbols, and the checks they replaced as
    oracles over seeded and lattice heptagons."""

    def test_parameter_signs_are_turns(self):
        # symbolic images with p_0, p_3, p_-3 at (0,0), (0,1), (1,0) and the
        # two edges parallel to the axes: p_2 = (t x1, y2, t w1) and
        # p_5 = (x5, s y6, s w6).  Each parameter, as _read_standard reads
        # it, is one turn of the images over positive weights, and every
        # turn of a clockwise heptagon is < 0: b, c < 0 < a, d, lam, mu
        w0, x1, y1, w1, t, y2, w3, w4, x5, s, x6, y6, w6 = map(symbol, (
            "w0", "x1", "y1", "w1", "t", "y2", "w3", "w4", "x5", "s", "x6", "y6", "w6"))
        p = [(0, 0, w0), (x1, y1, w1), (t * x1, y2, t * w1), (0, w3, w3), (w4, 0, w4),
             (x5, s * y6, s * w6), (x6, y6, w6)]
        std = _read_standard(p)
        a, b, c, d, lam, mu = std
        assert [den for _, den in std] == [w6, w6, w1, w1, s * w6 * w6, t * w1 * w1]

        def turn_is(i, j, k, sign, *pairs):
            num = den = 1
            for n, dd in pairs:
                num, den = num * n, den * dd
            return det3(p[i], p[j], p[k]) * den == sign * p[i][2] * p[j][2] * p[k][2] * num

        assert turn_is(0, 1, 3, 1, c)
        assert turn_is(0, 1, 4, -1, d)
        assert turn_is(3, 6, 0, -1, a)
        assert turn_is(4, 6, 0, 1, b)
        assert turn_is(0, 1, 2, 1, c, mu)
        assert turn_is(5, 6, 0, 1, lam, b)

    def test_parallel_edges_by_binet_cauchy(self):
        # the frame map's rows are l_y = p_0 v p_3 (x), l_x = p_0 v p_-3 (y)
        # and the standardization line h (weight), each times a scalar, so
        # x_1 w_2 - x_2 w_1 is a multiple of the Binet-Cauchy form below,
        # which is (l_y x h) . (p_1 x p_2) = 0: l_y x h is p_0^+, on
        # line(p_1, p_2); the same with p_0^- gives y_5 w_6 = y_6 w_5
        l, m, u, v = ((symbol(f"{n}0"), symbol(f"{n}1"), symbol(f"{n}2")) for n in "lmuv")
        assert _dot(l, u) * _dot(m, v) - _dot(l, v) * _dot(m, u) == _dot(cross(l, m), cross(u, v))
        p = symbolic_points(7)
        plus = cross(cross(p[1], p[2]), cross(p[0], p[3]))
        minus = cross(cross(p[6], p[5]), cross(p[0], p[4]))
        h = cross(plus, minus)
        for (i, j), line in (((1, 2), cross(p[0], p[3])), ((6, 5), cross(p[0], p[4]))):
            assert _dot(line, p[i]) * _dot(h, p[j]) - _dot(line, p[j]) * _dot(h, p[i]) == 0

    def test_plus_and_minus_differ(self):
        # p_0^+ = p_0 det(p_1, p_2, p_3) - p_3 det(p_1, p_2, p_0) lies on
        # line(p_0, p_3) and is p_0 only if det(p_0, p_1, p_2) = 0; p_0^-
        # likewise on line(p_0, p_-3); the two lines meet at p_0 alone.  So
        # on a strictly convex heptagon p_0^+ != p_0^-, and their join is a line
        p = symbolic_points(7)
        plus = cross(cross(p[1], p[2]), cross(p[0], p[3]))
        minus = cross(cross(p[6], p[5]), cross(p[0], p[4]))
        for point, (i, j, k) in ((plus, (1, 2, 3)), (minus, (6, 5, 4))):
            assert _dot(cross(p[0], p[k]), point) == 0
            scale = det3(p[i], p[j], p[0])
            assert cross(point, p[0]) == tuple(-scale * v for v in cross(p[k], p[0]))
        scale = det3(p[0], p[3], p[4])
        assert cross(cross(p[0], p[3]), cross(p[0], p[4])) == tuple(scale * v for v in p[0])

    def test_deleted_guards_hold_on_a_sweep(self, monkeypatch):
        # seeded and lattice heptagons, sheared pullbacks among them
        r = random.Random(20261022)
        polygons = [random_convex_polygon(r, 7) for _ in range(600)]
        polygons += [lattice_polygon(r, 7) for _ in range(600)]
        shears = count_calls(monkeypatch, sections_module, "shear_fixing_flat")
        for polygon in polygons:
            read_standard_guards(polygon)
            heptagon_vertices(polygon)
        assert 0 < len(shears) < len(polygons)

    def test_unvalidated_heptagons_raise_only_polysec_errors(self):
        # seven points as given, never validated: random points, and lattice
        # heptagons reversed, rotated, with two vertices swapped or with one
        # moved halfway to the centroid.  The extension certifies, or a
        # PolysecError is raised, never another exception
        r = random.Random(7)
        outcomes = set()
        for n in range(500):
            points = list(lattice_polygon(r, 7).vertices)
            kind = n % 5
            if kind == 0:
                points = [(r.randint(-6, 6), r.randint(-6, 6)) for _ in range(7)]
            elif kind == 1:
                points.reverse()
            elif kind == 2:
                k = r.randrange(1, 7)
                points = points[k:] + points[:k]
            elif kind == 3:
                i, j = r.sample(range(7), 2)
                points[i], points[j] = points[j], points[i]
            else:
                i = r.randrange(7)
                points[i] = tuple((points[i][k] + Fraction(sum(q[k] for q in points), 7)) / 2 for k in (0, 1))
            try:
                outcomes.add(heptagon_extension(raw_polygon(points)).certified)
            except PolysecError as exc:
                outcomes.add(type(exc).__name__)
        assert True in outcomes and len(outcomes) > 4


class TestBuildStandardExtension:
    def test_explicit_vertices_at_k2(self):
        std = standard_heptagon()
        assert Fraction(*default_extension_k(std)) == 2
        rows = standard_rows(std)
        vertices = [vertex_of(row) for row in rows]
        # frozen from the displayed formulas: s = 3 - 1/4 = 11/4
        expected = [
            (Fraction(0), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(0), Fraction(-2)),
            (Fraction(3), Fraction(0), Fraction(-2)),
            (Fraction(0), Fraction(3), Fraction(-2)),
            (Fraction(6, 11), Fraction(-3, 11), Fraction(2, 11)),
            (Fraction(-3, 11), Fraction(6, 11), Fraction(2, 11)),
        ]
        assert vertices == expected and rows == [row_of(v) for v in expected]
        assert certify(SectionedPolytope(3, rows, validate(standard_points(std)))).certified

    def test_three_below_three_above(self):
        rows = standard_rows(standard_heptagon())
        zs = [z for _, _, z, _ in rows]
        assert all(w > 0 for *_, w in rows)
        assert sum(z < 0 for z in zs) == 3 and sum(z > 0 for z in zs) == 3

    def test_section_reproduces_nine_crossing_points(self):
        std = standard_heptagon()
        verts = [vertex_of(row) for row in standard_rows(std)]
        hull = compute_section(verts, 3)
        a, b, c, d, lam, mu = values(std)
        crossings = set()
        for i in range(6):
            for j in range(i + 1, 6):
                u, v = verts[i], verts[j]
                if (u[2] > 0) == (v[2] > 0):
                    continue
                t = u[2] / (u[2] - v[2])
                crossings.add((u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1])))
        assert crossings == set(standard_points(std)) | {(a, b + lam), (c + mu, d)}
        polygon = validate(standard_points(std))
        assert hull == polygon.vertices
        # the two non-vertex crossing points lie strictly inside
        assert strictly_contains(polygon, a, b + lam)
        assert strictly_contains(polygon, c + mu, d)

    def test_default_k_keeps_denominators_positive(self):
        std = standard_heptagon()
        k = Fraction(*default_extension_k(std))
        _, _, _, _, lam, mu = values(std)
        assert (1 + k) - lam > 0 and (1 + k) - mu > 0


class TestHeptagonExtension:
    def test_six_crossing_heptagon(self, obs_heptagon):
        ext = heptagon_extension(obs_heptagon)
        assert ext.certified and ext.dim == 3
        assert len(extreme_vertices(ext.vertices, 3)) <= 6
        assert ext.claimed == obs_heptagon

    def test_already_standard_affine_pullback(self):
        polygon = standard_polygon()
        ext = heptagon_extension(polygon)
        assert ext.certified and len(extreme_vertices(ext.vertices, 3)) == 6

    def test_shear_forcing_maps_build_once(self, monkeypatch):
        # A horizon just beyond the heptagon separates it from the shadows of
        # the far base vertices (1+K, 0, -K), (0, 1+K, -K), so the unsheared
        # lift of the inverse map is unbounded: one build plus one shear, and
        # one section computed, for the result.
        builds = count_calls(monkeypatch, heptagon_module, "build_standard_extension")
        shears = count_calls(monkeypatch, sections_module, "shear_fixing_flat")
        sections = count_calls(monkeypatch, sections_module, "verify_section")
        base = standard_polygon()
        for u1, u2 in ((1, 0), (0, 1), (1, 1), (2, 1), (1, -1)):
            reach = max(u1 * x + u2 * y for x, y in base.vertices)
            for gap in (Fraction(1, 10), Fraction(1)):
                horizon = point(u1, u2, -(reach + gap))
                polygon = apply_map(base, map_line_to_infinity(horizon, base))
                builds.clear()
                shears.clear()
                sections.clear()
                ext = heptagon_extension(polygon)
                assert (len(builds), len(shears), len(sections)) == (1, 1, 1)
                assert ext.certified and len(ext.vertices) <= 6
                assert ext.claimed == polygon

    def test_one_section_per_extension(self, rng, monkeypatch):
        # the standard extension, the shear and the pullback are plain
        # transforms; only the result is certified
        sections = count_calls(monkeypatch, sections_module, "verify_section")
        for _ in range(20):
            sections.clear()
            ext = heptagon_extension(random_convex_polygon(rng, 7))
            assert ext.certified and len(sections) == 1

    def test_seven_conversions_and_no_validation(self, rng, monkeypatch):
        # the polygon's lifts serve the crossing classification as they
        # are; the standard heptagon is read off the images in integers,
        # so of the seven conversions once allowed none is made; nothing
        # is validated, since standardize tests the images'
        # convexity, the pullback maps vertices and the result claims the
        # input
        rows = count_calls_everywhere(monkeypatch, exactgeom_module, "_row")
        validations = count_calls_everywhere(monkeypatch, polygon_module, "validate")
        for _ in range(20):
            polygon = random_convex_polygon(rng, 7)
            rows.clear()
            validations.clear()
            assert heptagon_extension(polygon).claimed is polygon
            assert rows == [] and validations == []

    def test_validate_hands_its_lifts_to_the_extension(self, rng, monkeypatch):
        # validate lifts the seven input vertices and the polygon keeps
        # those lifts for the crossing classification; the construction
        # lifts nothing
        rows = count_calls_everywhere(monkeypatch, exactgeom_module, "_row")
        for _ in range(10):
            points = random_convex_polygon(rng, 7).vertices
            rows.clear()
            assert heptagon_extension(validate(points)).certified
            assert len(planar_rows(rows)) == 7

    def test_fuzzed_heptagons(self, rng):
        for _ in range(150):
            polygon = random_convex_polygon(rng, 7)
            ext = heptagon_extension(polygon)
            assert ext.certified
            assert len(extreme_vertices(ext.vertices, 3)) <= 6
