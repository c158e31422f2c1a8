from fractions import Fraction
from itertools import combinations

import pytest

import polysec.sections as sections_module
from polysec.errors import EmptySection, PullbackUnbounded, ScaleExceeded
from polysec.linalg import in_convex_hull, solve_linear
from polysec.polygon import ProjMap2, validate
from polysec.sections import (
    PlanarHull,
    SectionedPolytope,
    bounded_pullback,
    compute_section,
    extreme_points,
    lift_projective,
    pullback,
    verify_section,
)

from conftest import count_calls

TETRA = [(0, 0, -1), (1, 0, -1), (0, 1, -1), (0, 0, 1)]
TETRA_SECTION = [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))]


class TestComputeSection:
    def test_tetrahedron_midplane_triangle(self):
        hull = compute_section(TETRA, 3)
        assert hull.kind == "polygon"
        assert hull.polygon() == validate(TETRA_SECTION)

    def test_all_vertices_above_is_empty(self):
        with pytest.raises(EmptySection):
            compute_section([(0, 0, 1), (1, 0, 1), (0, 1, 2)], 3)

    def test_vertex_on_flat_is_picked_up(self):
        verts = [(5, 5, 0), (0, 0, -1), (0, 0, 1)]
        hull = compute_section(verts, 3)
        assert hull.kind == "segment"
        assert set(hull.points) == {(0, 0), (5, 5)}

    def test_point_section_flagged_degenerate(self):
        hull = compute_section([(0, 0, -1), (0, 0, 2)], 3)
        assert hull.kind == "point" and hull.degenerate
        assert hull.points == ((0, 0),)

    def test_codimension_two_crossings(self):
        # a segment crossing the flat in 4-space needs both extra coordinates
        # to vanish at the same parameter
        verts = [(0, 0, -1, -2), (0, 0, 1, 2), (1, 1, -1, -1), (2, 2, 3, 3)]
        hull = compute_section(verts, 4)
        # pair 1: t = 1/2 on both coordinates -> (0,0); pair 2: t = 1/4 -> crossing
        assert (0, 0) in hull.points

    def test_inconsistent_vanishing_no_crossing(self):
        verts = [(0, 0, -1, -1), (1, 1, 1, 2), (7, 7, 0, 0)]
        hull = compute_section(verts, 4)
        assert hull.kind == "point" and hull.points == ((7, 7),)

    def test_soundness_returned_points_inside(self, rng):
        for _ in range(20):
            verts = [tuple(Fraction(rng.randrange(-16, 17), 4) for _ in range(3))
                     for _ in range(6)]
            try:
                hull = compute_section(verts, 3)
            except EmptySection:
                continue
            for x, y in hull.points:
                assert in_convex_hull((x, y, Fraction(0)), verts)

    def test_invariant_under_flat_fixing_block_map(self):
        # doubling the transverse coordinate never changes the section
        verts = TETRA
        scaled = [(x, y, 2 * z) for x, y, z in verts]
        assert compute_section(verts, 3) == compute_section(scaled, 3)

    def test_invariant_under_transverse_mixing_in_4d(self):
        verts = [(0, 0, -1, -2), (0, 0, 1, 2), (1, 1, -1, -1), (2, 2, 3, 3)]
        # invertible block acting on coordinates 3 and 4 only
        mixed = [(x, y, 2 * z + w, z - w) for x, y, z, w in verts]
        assert compute_section(verts, 4) == compute_section(mixed, 4)


class TestVerifySection:
    def test_certifies_true_claim(self):
        s = SectionedPolytope(3, TETRA, validate(TETRA_SECTION))
        assert verify_section(s) and s.certified

    def test_rejects_perturbed_claim(self):
        wrong = [(0, 0), (Fraction(1, 2) + Fraction(1, 1000), 0), (0, Fraction(1, 2))]
        s = SectionedPolytope(3, TETRA, validate(wrong))
        assert not verify_section(s) and not s.certified

    def test_relabeled_claim_still_verifies(self):
        relabeled = [TETRA_SECTION[2], TETRA_SECTION[0], TETRA_SECTION[1]]
        s = SectionedPolytope(3, TETRA, validate(relabeled))
        assert verify_section(s)


class TestExtremePoints:
    def test_square_corners_plus_center(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2))]
        embedded = [(x, y, 0) for x, y in pts]
        out = extreme_points(embedded, 3)
        assert sorted(out) == sorted((Fraction(x), Fraction(y), Fraction(0)) for x, y in pts[:4])

    def test_duplicates_removed_first(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 0)]
        assert len(extreme_points(pts, 3)) == 3

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(15):
            pts = [tuple(Fraction(rng.randrange(-6, 7)) for _ in range(3)) for _ in range(7)]
            pts = list(dict.fromkeys(pts))
            fast = set(extreme_points(pts, 3))
            slow = set()
            for i, p in enumerate(pts):
                others = [q for j, q in enumerate(pts) if j != i]
                inside = False
                for size in range(1, 5):
                    for sub in combinations(others, size):
                        matrix = [[g[k] for g in sub] for k in range(3)]
                        matrix.append([Fraction(1)] * size)
                        sol = solve_linear(matrix, list(p) + [Fraction(1)])
                        if sol is not None and all(w >= 0 for w in sol):
                            inside = True
                            break
                    if inside:
                        break
                if not inside:
                    slow.add(p)
            assert fast == slow

    def test_scale_guard(self):
        pts = [tuple(Fraction(k + j) for j in range(5)) for k in range(65)]
        with pytest.raises(ScaleExceeded):
            extreme_points(pts, 5)


class TestLiftAndPullback:
    def test_identity_lift(self):
        tau = lift_projective(ProjMap2.identity(), 4)
        assert tau.apply_raw((Fraction(3), Fraction(4), Fraction(5), Fraction(6))) == (3, 4, 5, 6, 1)

    def test_translation_lift_fixes_transverse_coords(self):
        t = ProjMap2(((1, 0, 5), (0, 1, -2), (0, 0, 1)))
        tau = lift_projective(t, 3)
        assert tau.apply_raw((Fraction(1), Fraction(1), Fraction(9))) == (6, -1, 9, 1)

    def test_horizon_hazard(self):
        # the map sending x = -1 to infinity kills points with x = -1 at any height
        t = ProjMap2(((0, 1, 0), (0, 0, 1), (1, 0, 1)))
        tau = lift_projective(t, 3)
        image = tau.apply_raw((Fraction(-1), Fraction(2), Fraction(5)))
        assert image[-1] == 0

    def test_affine_pullback_always_succeeds(self):
        s = SectionedPolytope(3, TETRA, validate(TETRA_SECTION))
        verify_section(s)
        t = ProjMap2(((2, 0, 1), (0, 2, -3), (0, 0, 1)))
        out = pullback(s, t)
        assert out.certified and out.dim == 3 and len(out.vertices) == 4

    def test_adversarial_pullback_unbounded(self):
        s = SectionedPolytope(3, TETRA, validate(TETRA_SECTION))
        verify_section(s)
        # sends the plane x = -1 to infinity: tetrahedron has x in [0, 1],
        # but shift it so the horizon cuts it first
        bad = ProjMap2(((0, 1, 0), (0, 0, 1), (2, 0, -1)))  # horizon x = 1/2
        with pytest.raises(PullbackUnbounded):
            pullback(s, bad)

    def test_bounded_pullback_rescues_with_shear(self):
        # horizon x = 3/4 clips the base vertex (1,0,-1) but not the section
        # (x <= 1/2 there); a shear with slope in (-3, -1) fixes every sign
        s = SectionedPolytope(3, TETRA, validate(TETRA_SECTION))
        verify_section(s)
        bad = ProjMap2(((0, 1, 0), (0, 0, 1), (-4, 0, 3)))
        with pytest.raises(PullbackUnbounded):
            pullback(s, bad)
        out = bounded_pullback(s, bad)
        assert out.certified


class TestPlanarHull:
    def test_three_collinear_points_make_segment(self):
        hull = PlanarHull.of([(0, 0), (1, 1), (2, 2)])
        assert hull.kind == "segment" and hull.points == ((0, 0), (2, 2))

    def test_polygon_round_trip(self):
        poly = validate([(0, 0), (3, 0), (0, 3)])
        assert PlanarHull.from_polygon(poly).polygon() == poly

    def test_polygon_is_not_revalidated(self, monkeypatch):
        hull = PlanarHull.of([(0, 0), (3, 0), (1, 1), (0, 3)])
        validations = count_calls(monkeypatch, sections_module, "validate")
        assert hull.polygon() is hull.polygon()
        assert hull.polygon() == validate([(0, 0), (3, 0), (0, 3)])
        assert hull == PlanarHull.from_polygon(validate([(3, 0), (0, 3), (0, 0)]))
        assert validations == []
