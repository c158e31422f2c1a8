import random
from fractions import Fraction

import pytest

import polysec.hexagon as hexagon_module
import polysec.polygon as polygon_module
import polysec.sections as sections_module
from polysec.errors import NoConcurrency, NotHexagon, PolysecError
from polysec.exactgeom import _primitive_ints, det3
from polysec.hexagon import (
    build_bipyramid,
    concurrency_point,
    default_bipyramid_k,
    hexagon_extension5,
    hexagon_ic,
    hexagon_normal_form,
)
from polysec.polygon import ProjMap2, _convex_cycle, _lift_keys, convex_hull_2d, validate
from polysec.randgen import random_hexagon_params
from polysec.sections import SectionedPolytope, certify

from conftest import (
    SIX_VERTEX_HEXAGON,
    apply_map,
    count_calls,
    count_calls_everywhere,
    extreme_vertices,
    map_line_to_infinity,
    symbol,
    vertex_of,
)

# alpha = 2, beta = 5, gamma = 3, x = 1/4, y = 1/3: a hexagon whose only
# concurrent pairing is the designed one, with a finite concurrency point
ASYMMETRIC_PARAMS = (Fraction(2), Fraction(5), Fraction(3), Fraction(1, 4), Fraction(1, 3))


def hexagon_from_params(alpha, beta, gamma, x, y):
    return validate([(0, alpha), (beta * x, beta * y), (gamma, 0),
                     (1, 0), (x, y), (0, 1)])


def nf_params(nf) -> tuple:
    """alpha, beta, gamma, x and y of a normal form, the Fractions of its pairs."""
    return tuple(Fraction(*pair) for pair in nf[:5])


def normal_form_hexagon(nf):
    """The hexagon of nf's six normal-form vertices (HexNormalForm)."""
    return hexagon_from_params(*nf_params(nf))


def bipyramid_rows(nf) -> list:
    """The rows of the bipyramid over nf at the default K, each divided by its gcd."""
    return [tuple(_primitive_ints(row)) for row in build_bipyramid(nf, default_bipyramid_k(nf))]


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
        assert nf_params(nf) == (alpha, beta, gamma, x, y)
        assert all(type(v) is int and d > 0 for v, d in nf[:5])
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
        nf_alpha, nf_beta, nf_gamma, nf_x, nf_y = nf_params(nf)
        assert nf_beta == beta
        assert {nf_alpha, nf_gamma} == {alpha, gamma}
        assert {nf_x, nf_y} == {x, y}

    def test_mirror_assignment_branch(self):
        # this symmetric hexagon has an extra concurrent pairing at r = 0
        # whose orientation forces the label-reversing anchor assignment
        symmetric = hexagon_from_params(Fraction(2), Fraction(4), Fraction(2),
                                        Fraction(1, 3), Fraction(1, 3))
        decision = hexagon_ic(symmetric)
        assert decision[:2] == (5, 0)
        nf = hexagon_normal_form(symmetric, decision)
        assert nf.mirrored
        alpha, beta, gamma, x, y = nf_params(nf)
        assert alpha > 1 and beta > 1 and gamma > 1 and x > 0 and y > 0
        image = apply_map(symmetric, nf.map)
        assert image == normal_form_hexagon(nf)

    def test_parallel_case_composite_map(self, regular_hexagon):
        nf = hexagon_normal_form(regular_hexagon, hexagon_ic(regular_hexagon))
        alpha, beta, gamma, x, y = nf_params(nf)
        assert alpha > 1 and beta > 1 and gamma > 1
        assert x > 0 and y > 0
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
            alpha, beta, gamma, x, y = nf_params(hexagon_normal_form(hexagon, decision))
            assert x > 0 and y > 0
            assert alpha > 1 and beta > 1 and gamma > 1
            assert x + y < 1  # convexity of the inner vertex


def lattice_witness(r: random.Random):
    """A hexagon of lattice points with a concurrent pairing, and its
    decision: two points on each of three lines through a lattice point,
    or on three parallel lines (a concurrency point at infinity), drawn
    until the six points are a strictly convex hexagon of complexity 5."""
    while True:
        if r.random() < 0.5:
            d = (r.randint(-3, 3), r.randint(-3, 3))
            bases = [(r.randint(-9, 9), r.randint(-9, 9)) for _ in range(3)]
            points = {(bx + k * d[0], by + k * d[1]) for bx, by in bases for k in r.sample(range(-4, 5), 2)}
        else:
            c = (r.randint(-9, 9), r.randint(-9, 9))
            units = [(r.randint(-3, 3), r.randint(-3, 3)) for _ in range(3)]
            points = {(c[0] + k * u[0], c[1] + k * u[1]) for u in units for k in r.sample(range(1, 6), 2)}
        hull = convex_hull_2d(points)
        if len(points) == 6 and len(hull) == 6:
            hexagon = validate(hull)
            decision = hexagon_ic(hexagon)
            if decision.ic == 5:
                return hexagon, decision


def normal_form_guards(hexagon, decision) -> tuple:
    """The checks that hexagon_normal_form no longer makes, as a test-side
    oracle: the images, in the order the function reads them, are a
    strictly convex clockwise hexagon, the normal-form vertices of the
    parameters, with x, y > 0, alpha, beta, gamma > 1 and every
    denominator positive.  Returns (mirrored, at infinity)."""
    nf = hexagon_normal_form(hexagon, decision)
    r = decision.witness
    order = [(r + 5 - j) % 6 if nf.mirrored else (r + j) % 6 for j in range(6)]
    images = nf.map.apply([hexagon.vertex(k) for k in order])
    sign = 1 if images[0][2] > 0 else -1
    images = [tuple(sign * v for v in image) for image in images]
    assert _convex_cycle(images, _lift_keys(images)) == -1
    assert all(den > 0 for _, den in nf[:5])
    alpha, beta, gamma, x, y = nf_params(nf)
    assert x > 0 and y > 0 and alpha > 1 and beta > 1 and gamma > 1
    assert [vertex_of(image) for image in images] == [
        (0, alpha), (beta * x, beta * y), (gamma, 0), (1, 0), (x, y), (0, 1)]
    return nf.mirrored, decision.point[2] == 0


class TestNormalFormProved:
    """The parameter signs hexagon_normal_form takes as proved, as
    polynomial identities on symbols, and the checks they replaced as
    oracles over lattice witnesses."""

    def test_parameter_signs_are_turns(self):
        # the normal-form vertices 0..5 turn clockwise, so every turn below
        # is < 0: alpha, gamma > 1, then x, y > 0, then
        # beta (alpha x + gamma y) > alpha gamma with x / gamma + y / alpha
        # < x + y < 1, so beta > 1
        alpha, beta, gamma, x, y = map(symbol, ("alpha", "beta", "gamma", "x", "y"))
        p = [(0, alpha, 1), (beta * x, beta * y, 1), (gamma, 0, 1), (1, 0, 1), (x, y, 1), (0, 1, 1)]

        def turn(i, j, k):
            return det3(p[i], p[j], p[k])

        assert turn(3, 5, 0) == 1 - alpha
        assert turn(2, 3, 5) == 1 - gamma
        assert turn(4, 5, 0) == x * (1 - alpha)
        assert turn(2, 3, 4) == y * (1 - gamma)
        assert turn(3, 4, 5) == x + y - 1
        assert turn(0, 1, 2) == alpha * gamma - beta * (alpha * x + gamma * y)

    def test_deleted_guards_hold_on_a_sweep(self):
        # lattice witnesses in both frames, with finite and infinite
        # concurrency points
        r = random.Random(20261022)
        kinds = [normal_form_guards(*lattice_witness(r)) for _ in range(1000)]
        assert set(kinds) == {(False, False), (False, True), (True, False), (True, True)}

    def test_mismatched_decisions_raise_only_polysec_errors(self):
        # each witness given another witness's decision: the extension
        # certifies, or a PolysecError is raised, never another exception
        r = random.Random(11)
        outcomes = set()
        for _ in range(300):
            (hexagon, _), (_, decision) = lattice_witness(r), lattice_witness(r)
            try:
                outcomes.add(hexagon_extension5(hexagon, decision).certified)
            except PolysecError as exc:
                outcomes.add(type(exc).__name__)
        assert True in outcomes and len(outcomes) > 2


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
        alpha, beta, gamma, _, _ = nf_params(nf)
        assert Fraction(*default_bipyramid_k(nf)) == max(alpha, beta, gamma) + 1
        rows = bipyramid_rows(nf)
        zs = [z for _, _, z, _ in rows]
        assert all(w > 0 for *_, w in rows)
        assert sum(z < 0 for z in zs) == 2 and sum(z > 0 for z in zs) == 3
        claimed = normal_form_hexagon(nf)
        assert certify(SectionedPolytope(3, rows, claimed)).certified

    def test_crossings_reproduce_normal_form_vertices(self):
        hexagon = hexagon_from_params(*ASYMMETRIC_PARAMS)
        nf = hexagon_normal_form(hexagon, hexagon_ic(hexagon))
        verts = [vertex_of(row) for row in bipyramid_rows(nf)]
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
        assert len(extreme_vertices(ext.vertices, 3)) == 5
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
        assert ext.certified and len(extreme_vertices(ext.vertices, 3)) == 5

    def test_fuzzed_five_extensions(self, rng):
        for _ in range(30):
            params = random_hexagon_params(rng)
            hexagon = hexagon_from_params(*params)
            ext = hexagon_extension5(hexagon, hexagon_ic(hexagon))
            assert ext.certified
            assert len(extreme_vertices(ext.vertices, 3)) == 5
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
            assert len(extreme_vertices(ext.vertices, 3)) == 5

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
