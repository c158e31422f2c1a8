from fractions import Fraction

import pytest

import polysec.hexagon as hexagon_module
import polysec.polygon as polygon_module
import polysec.sections as sections_module
from polysec.errors import NoConcurrency, NotHexagon
from polysec.hexagon import (
    build_bipyramid,
    concurrency_point,
    default_bipyramid_k,
    hexagon_extension5,
    hexagon_ic,
    hexagon_normal_form,
)
from polysec.polygon import ProjMap2, validate
from polysec.randgen import random_hexagon_params
from polysec.sections import SectionedPolytope, certify, extreme_points

from conftest import (
    SIX_VERTEX_HEXAGON,
    apply_map,
    count_calls,
    count_calls_everywhere,
    map_line_to_infinity,
)

# alpha = 2, beta = 5, gamma = 3, x = 1/4, y = 1/3: a hexagon whose only
# concurrent pairing is the designed one, with a finite concurrency point
ASYMMETRIC_PARAMS = (Fraction(2), Fraction(5), Fraction(3), Fraction(1, 4), Fraction(1, 3))


def hexagon_from_params(alpha, beta, gamma, x, y):
    return validate([(0, alpha), (beta * x, beta * y), (gamma, 0),
                     (1, 0), (x, y), (0, 1)])


def normal_form_hexagon(nf):
    """The hexagon of nf's six normal-form vertices (HexNormalForm)."""
    return hexagon_from_params(nf.alpha, nf.beta, nf.gamma, nf.x, nf.y)


def mirrored_hexagon_from_params(alpha, beta, gamma, x, y):
    return validate([(alpha, 0), (beta * y, beta * x), (0, gamma),
                     (0, 1), (y, x), (1, 0)])


class TestConcurrencyPoint:
    def test_affine_regular_all_parallel(self, regular_hexagon):
        for r in range(3):
            point = concurrency_point(regular_hexagon, r)
            assert point is not None and point[2] == 0

    def test_generic_perturbation_has_none(self, ic6_hexagon):
        for r in range(3):
            assert concurrency_point(ic6_hexagon, r) is None

    def test_vertical_structure_survives_one_axis_perturbation(self):
        # moving (2,2) straight up keeps the two vertical edges and the
        # vertical diagonal concurrent at infinity, so this stays at 5
        hexagon = validate([(0, 0), (1, 0), (2, 1), (2, Fraction(5, 2)), (1, 2), (0, 1)])
        decision = hexagon_ic(hexagon)
        assert decision.ic == 5
        point = concurrency_point(hexagon, decision.witness)
        assert point is not None and point[2] == 0

    def test_far_line_is_an_integer_triple(self):
        # the horizon of a concurrency point at infinity: v . x = M with v
        # the direction and M = 2 max - min + 1 of v . x over the vertices
        hexagon = validate([(0, 0), (1, 0), (2, 1), (2, Fraction(5, 2)), (1, 2), (0, 1)])
        vx, vy, _ = hexagon_ic(hexagon).point
        values = [vx * x + vy * y for x, y in hexagon.vertices]
        far = 2 * max(values) - min(values) + 1
        line = hexagon_module._far_line(hexagon, (vx, vy, 0))
        assert all(type(v) is int for v in line)
        scale = Fraction(line[2]) / -far
        assert scale > 0 and line == (scale * vx, scale * vy, -scale * far)

    def test_finite_point_from_normal_form(self):
        hexagon = hexagon_from_params(*ASYMMETRIC_PARAMS)
        points = [concurrency_point(hexagon, r) for r in range(3)]
        finite = [p for p in points if p is not None]
        assert len(finite) == 1 and finite[0][2] != 0

    def test_rejects_non_hexagon(self):
        with pytest.raises(NotHexagon):
            concurrency_point(validate([(0, 0), (1, 0), (0, 1)]), 0)


class TestHexagonIc:
    def test_affine_regular_is_five_with_witness_zero(self, regular_hexagon):
        assert hexagon_ic(regular_hexagon)[:2] == (5, 0)

    def test_generic_perturbation_is_six(self, ic6_hexagon):
        assert hexagon_ic(ic6_hexagon) == (6, None, None)

    def test_normal_form_round_trip_is_five(self, rng):
        for _ in range(20):
            params = random_hexagon_params(rng)
            assert hexagon_ic(hexagon_from_params(*params)).ic == 5

    def test_invariant_under_dihedral_relabeling(self, rng):
        base = SIX_VERTEX_HEXAGON
        expected = hexagon_ic(validate(base)).ic
        for shift in range(6):
            rotated = base[shift:] + base[:shift]
            assert hexagon_ic(validate(rotated)).ic == expected
            assert hexagon_ic(validate(rotated[::-1])).ic == expected

    def test_invariant_under_affine_maps(self, rng):
        hexagon = hexagon_from_params(*ASYMMETRIC_PARAMS)
        for _ in range(10):
            rows = ((rng.randrange(1, 5), rng.randrange(0, 3), rng.randrange(-4, 5)),
                    (rng.randrange(0, 3), rng.randrange(1, 5), rng.randrange(-4, 5)),
                    (0, 0, 1))
            try:
                t = ProjMap2(rows)
            except Exception:
                continue
            try:
                image = apply_map(hexagon, t)
            except Exception:
                continue
            assert hexagon_ic(image).ic == 5


class TestNormalForm:
    def test_already_normal_form_echoes(self):
        alpha, beta, gamma, x, y = ASYMMETRIC_PARAMS
        hexagon = hexagon_from_params(*ASYMMETRIC_PARAMS)
        decision = hexagon_ic(hexagon)
        nf = hexagon_normal_form(hexagon, decision)
        assert (nf.alpha, nf.beta, nf.gamma, nf.x, nf.y) == (alpha, beta, gamma, x, y)
        assert not nf.mirrored
        assert nf.map.m == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_mirrored_point_set_standardizes(self):
        # swapping the two coordinates relabels the witness; the canonical
        # labeling may absorb the mirror into a rotation, so only the
        # parameter multiset is pinned here
        mirrored = mirrored_hexagon_from_params(*ASYMMETRIC_PARAMS)
        decision = hexagon_ic(mirrored)
        assert decision.ic == 5
        nf = hexagon_normal_form(mirrored, decision)
        alpha, beta, gamma, x, y = ASYMMETRIC_PARAMS
        assert nf.beta == beta
        assert {nf.alpha, nf.gamma} == {alpha, gamma}
        assert {nf.x, nf.y} == {x, y}

    def test_mirror_assignment_branch(self):
        # this symmetric hexagon has an extra concurrent pairing at r = 0
        # whose orientation forces the label-reversing anchor assignment
        symmetric = hexagon_from_params(Fraction(2), Fraction(4), Fraction(2),
                                        Fraction(1, 3), Fraction(1, 3))
        decision = hexagon_ic(symmetric)
        assert decision[:2] == (5, 0)
        nf = hexagon_normal_form(symmetric, decision)
        assert nf.mirrored
        assert nf.alpha > 1 and nf.beta > 1 and nf.gamma > 1 and nf.x > 0 and nf.y > 0
        image = apply_map(symmetric, nf.map)
        assert image == normal_form_hexagon(nf)

    def test_parallel_case_composite_map(self, regular_hexagon):
        nf = hexagon_normal_form(regular_hexagon, hexagon_ic(regular_hexagon))
        assert nf.alpha > 1 and nf.beta > 1 and nf.gamma > 1
        assert nf.x > 0 and nf.y > 0
        assert nf.map.m != ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        # the recorded map really carries the hexagon onto the normal form
        image = apply_map(regular_hexagon, nf.map)
        assert image == normal_form_hexagon(nf)

    def test_no_concurrency_raises(self, ic6_hexagon):
        with pytest.raises(NoConcurrency):
            hexagon_normal_form(ic6_hexagon, hexagon_ic(ic6_hexagon))

    def test_constraints_respected_on_fuzz(self, rng):
        for _ in range(25):
            params = random_hexagon_params(rng)
            hexagon = hexagon_from_params(*params)
            decision = hexagon_ic(hexagon)
            nf = hexagon_normal_form(hexagon, decision)
            assert nf.x > 0 and nf.y > 0
            assert nf.alpha > 1 and nf.beta > 1 and nf.gamma > 1
            assert nf.x + nf.y < 1  # convexity of the inner vertex


class TestReadOnce:
    def test_concurrency_point_found_once(self, monkeypatch):
        # pairing 0 is not concurrent and pairing 1 is: the normal form takes
        # the point hexagon_ic found instead of meeting the lines again
        hexagon = hexagon_from_params(Fraction(2), Fraction(5), Fraction(3),
                                      Fraction(1, 4), Fraction(1, 3))
        calls = count_calls(monkeypatch, hexagon_module, "concurrency_point")
        assert hexagon_extension5(hexagon, hexagon_ic(hexagon)).certified
        assert [r for _, r in calls] == [0, 1]

    def test_one_read_and_one_section_per_hexagon(self, regular_hexagon, rng, monkeypatch):
        # the orientation test picks the frame before any map is built: one
        # frame_map per normal form, on mirrored witnesses and at-infinity
        # ones alike.  No polygon is validated: the bipyramid is a vertex
        # list, the pullback maps vertices only, and the result claims the
        # input hexagon
        frames = count_calls(monkeypatch, hexagon_module, "frame_map")
        sections = count_calls(monkeypatch, sections_module, "verify_section")
        validations = count_calls_everywhere(monkeypatch, polygon_module, "validate")
        hexagons = [regular_hexagon, hexagon_from_params(*ASYMMETRIC_PARAMS),
                    mirrored_hexagon_from_params(*ASYMMETRIC_PARAMS),
                    validate([(0, 0), (1, 0), (2, 1), (2, Fraction(5, 2)), (1, 2), (0, 1)]),
                    hexagon_from_params(Fraction(2), Fraction(4), Fraction(2),
                                        Fraction(1, 3), Fraction(1, 3))]
        for _ in range(10):
            params = random_hexagon_params(rng)
            hexagons += [hexagon_from_params(*params), mirrored_hexagon_from_params(*params)]
        mirrored = at_infinity = 0
        for hexagon in hexagons:
            decision = hexagon_ic(hexagon)
            frames.clear()
            nf = hexagon_normal_form(hexagon, decision)
            assert len(frames) == 1
            mirrored += nf.mirrored
            at_infinity += decision.point[2] == 0
            sections.clear()
            validations.clear()
            assert hexagon_extension5(hexagon, decision).certified and len(sections) == 1
            assert len(validations) == 0
        assert mirrored and at_infinity


class TestBipyramid:
    def test_two_below_three_above(self):
        hexagon = hexagon_from_params(*ASYMMETRIC_PARAMS)
        nf = hexagon_normal_form(hexagon, hexagon_ic(hexagon))
        assert default_bipyramid_k(nf) == max(nf.alpha, nf.beta, nf.gamma) + 1
        vertices = build_bipyramid(nf)
        zs = [v[2] for v in vertices]
        assert sum(z < 0 for z in zs) == 2 and sum(z > 0 for z in zs) == 3
        claimed = normal_form_hexagon(nf)
        assert certify(SectionedPolytope(3, vertices, claimed)).certified

    def test_crossings_reproduce_normal_form_vertices(self):
        hexagon = hexagon_from_params(*ASYMMETRIC_PARAMS)
        nf = hexagon_normal_form(hexagon, hexagon_ic(hexagon))
        verts = build_bipyramid(nf)
        crossings = set()
        for i in range(5):
            for j in range(i + 1, 5):
                u, v = verts[i], verts[j]
                if (u[2] > 0) == (v[2] > 0):
                    continue
                t = u[2] / (u[2] - v[2])
                crossings.add((u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1])))
        assert crossings == set(normal_form_hexagon(nf).vertices)


class TestExtension5:
    def test_affine_regular_certified(self, regular_hexagon):
        ext = hexagon_extension5(regular_hexagon, hexagon_ic(regular_hexagon))
        assert ext.certified and ext.dim == 3
        assert len(extreme_points(ext.vertices, 3)) == 5
        assert ext.claimed == regular_hexagon

    def test_affine_regular_apex_edge_parallel_to_an_edge(self, regular_hexagon):
        # the bipyramid edge on the 2-vertex side of the plane meets the
        # section plane at the concurrency point; here that point is at
        # infinity, so the edge is parallel to an edge direction of the hexagon
        ext = hexagon_extension5(regular_hexagon, hexagon_ic(regular_hexagon))
        below = [v for v in ext.vertices if v[2] < 0]
        above = [v for v in ext.vertices if v[2] > 0]
        pair = below if len(below) == 2 else above
        assert len(pair) == 2
        u, v = pair
        direction = (v[0] - u[0], v[1] - u[1], v[2] - u[2])
        assert direction[2] == 0  # parallel to the section plane
        pts = regular_hexagon.vertices
        edge_dirs = [(pts[(i + 1) % 6][0] - pts[i][0], pts[(i + 1) % 6][1] - pts[i][1])
                     for i in range(6)]
        assert any(direction[0] * ey - direction[1] * ex == 0 for ex, ey in edge_dirs)

    def test_ic6_raises(self, ic6_hexagon):
        with pytest.raises(NoConcurrency):
            hexagon_extension5(ic6_hexagon, hexagon_ic(ic6_hexagon))

    def test_mirrored_certified(self):
        hexagon = mirrored_hexagon_from_params(*ASYMMETRIC_PARAMS)
        ext = hexagon_extension5(hexagon, hexagon_ic(hexagon))
        assert ext.certified and len(extreme_points(ext.vertices, 3)) == 5

    def test_fuzzed_five_extensions(self, rng):
        for _ in range(30):
            params = random_hexagon_params(rng)
            hexagon = hexagon_from_params(*params)
            ext = hexagon_extension5(hexagon, hexagon_ic(hexagon))
            assert ext.certified
            assert len(extreme_points(ext.vertices, 3)) == 5
            assert ext.claimed == hexagon

    def test_projective_images_still_certify(self, rng):
        # push witness hexagons through maps sending a far line to infinity;
        # concurrency is an incidence condition, so the decision survives and
        # the bipyramid construction must still certify
        for _ in range(15):
            params = random_hexagon_params(rng)
            hexagon = hexagon_from_params(*params)
            far = 3 + max(abs(x) for p in hexagon.vertices for x in p)
            line = (rng.randrange(1, 4), rng.randrange(0, 4), -far * 4)
            try:
                image = apply_map(hexagon, map_line_to_infinity(line, hexagon))
            except Exception:
                continue
            decision = hexagon_ic(image)
            assert decision.ic == 5
            ext = hexagon_extension5(image, decision)
            assert ext.certified
            assert len(extreme_points(ext.vertices, 3)) == 5

    def test_intersections_reproduce_hexagon_after_pullback(self, rng):
        # the six crossing points of the pulled-back bipyramid are exactly
        # the hexagon's vertices
        params = random_hexagon_params(rng)
        hexagon = hexagon_from_params(*params)
        ext = hexagon_extension5(hexagon, hexagon_ic(hexagon))
        verts = list(ext.vertices)
        crossings = set()
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                u, v = verts[i], verts[j]
                if (u[2] > 0) == (v[2] > 0):
                    continue
                t = u[2] / (u[2] - v[2])
                crossings.add((u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1])))
        assert crossings == set(hexagon.vertices)
