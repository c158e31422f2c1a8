from fractions import Fraction

import pytest

import polysec.exactgeom as exactgeom_module
import polysec.heptagon as heptagon_module
import polysec.polygon as polygon_module
import polysec.sections as sections_module
from polysec.errors import CertificationFailure, NotHeptagon
from polysec.exactgeom import _primitive_ints, cross, det3
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
    standardize,
    std_points,
)
from polysec.polygon import Polygon, validate
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
    map_line_to_infinity,
    octuple_sums,
    point,
    raw_polygon,
    row_of,
    side,
    strictly_contains,
    symbolic_octuples,
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
        # standardize tests the convexity of the seven images once, as
        # they are, and keeps nothing
        polygon = standard_polygon()
        cycles = count_calls_everywhere(monkeypatch, polygon_module, "_convex_cycle")
        standardize(polygon)
        assert len(cycles) == 1
        assert [vertex_of(row) for row in cycles[0][0]] == standard_points(standard_heptagon())

    def test_rejects_bad_parameters(self):
        std = standard_heptagon()
        with pytest.raises(CertificationFailure):
            _read_standard([row_of(p) for p in standard_points(std._replace(lam=(-1, 4)))])
        with pytest.raises(CertificationFailure):
            # margin violation: a + b + lam >= 1
            _read_standard([row_of(p) for p in standard_points(std._replace(a=(3, 2)))])
        # the images of the vertices, at any positive scale
        rows = [row_of(p) for p in standard_points(std)]
        assert values(_read_standard([[3 * v for v in row] for row in rows])) == values(std)
        with pytest.raises(CertificationFailure):
            # p_2 off the vertical through p_1
            moved = list(standard_points(std))
            moved[2] = (moved[2][0] - Fraction(1, 100), moved[2][1])
            _read_standard([row_of(p) for p in moved])


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
