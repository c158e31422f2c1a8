import random
from fractions import Fraction

import pytest

import polysec.compose as compose_module
import polysec.sections as sections_module
from polysec.compose import (
    chunk_plan,
    convex_join_sections,
    lower_bound_3d,
    ngon_3d_extension,
    ngon_extension,
    optimal_even_gon,
)
from polysec.errors import DomainError, IncompatibleSections
from polysec.heptagon import heptagon_extension
from polysec.polygon import validate
from polysec.randgen import random_convex_polygon
from polysec.sections import PlanarHull, SectionedPolytope, certify, extreme_points

from conftest import count_calls


class TestLowerBound:
    def test_published_values(self):
        assert lower_bound_3d(6) == 5
        assert lower_bound_3d(7) == 6
        assert lower_bound_3d(4) == 4

    def test_even_gon_pattern(self):
        for m in range(2, 30):
            assert lower_bound_3d(2 * m) == m + 2

    def test_too_small(self):
        with pytest.raises(DomainError):
            lower_bound_3d(2)


class TestChunkPlan:
    def test_multiples_of_seven(self):
        plan = chunk_plan(14)
        assert plan.chunks == (tuple(range(7)), tuple(range(7, 14)))

    def test_remainder(self):
        plan = chunk_plan(16)
        assert len(plan.chunks) == 3 and plan.chunks[-1] == (14, 15)

    def test_covering_partition(self):
        for n in (7, 8, 13, 20, 23):
            plan = chunk_plan(n)
            flat = [i for chunk in plan.chunks for i in chunk]
            assert flat == list(range(n))


class TestNgon3d:
    def test_heptagon_base_case(self, obs_heptagon):
        ext = ngon_3d_extension(obs_heptagon)
        assert ext.certified and len(extreme_points(ext.vertices, 3)) <= 6

    def test_random_ten_gon(self, rng):
        polygon = random_convex_polygon(rng, 10)
        ext = ngon_3d_extension(polygon)
        assert ext.certified and ext.dim == 3
        assert len(ext.vertices) <= 9
        assert ext.claimed_polygon() == polygon

    def test_octagon(self, rng):
        polygon = random_convex_polygon(rng, 8)
        ext = ngon_3d_extension(polygon)
        assert ext.certified and len(extreme_points(ext.vertices, 3)) <= 7

    def test_drop_order_does_not_matter(self, rng):
        polygon = random_convex_polygon(rng, 10)
        for seed in range(5):
            chooser_rng = random.Random(seed)
            ext = ngon_3d_extension(polygon, drop_choice=lambda p: chooser_rng.randrange(p.n))
            assert ext.certified and len(ext.vertices) <= 9

    def test_certifies_once(self, rng, monkeypatch):
        # heptagon core: standard extension, optional shear, pullback; then the result
        sections = count_calls(monkeypatch, sections_module, "compute_section")
        polygon = random_convex_polygon(rng, 28)
        ext = ngon_3d_extension(polygon)
        assert ext.certified and len(ext.vertices) <= 27
        assert len(sections) <= 4

    def test_small_n_rejected(self, rng):
        with pytest.raises(DomainError):
            ngon_3d_extension(random_convex_polygon(rng, 6))

    def test_lower_bound_cross_check(self, rng):
        # our own 3-dimensional constructions can never beat the lower bound
        for n in (7, 9, 11):
            polygon = random_convex_polygon(rng, n)
            ext = ngon_3d_extension(polygon)
            assert len(extreme_points(ext.vertices, 3)) >= lower_bound_3d(n)


class TestConvexJoin:
    def test_single_point_chunk(self, rng):
        heptagon = random_convex_polygon(rng, 7)
        s1 = heptagon_extension(heptagon)
        outside = (Fraction(5), Fraction(5))
        s2 = certify(SectionedPolytope(2, [outside], PlanarHull.of([outside])))
        joined = convex_join_sections(s1, s2)
        assert joined.certified
        assert joined.dim == s1.dim
        assert len(joined.vertices) == len(s1.vertices) + 1

    def test_two_heptagon_chunks_of_a_14gon(self, rng):
        polygon = random_convex_polygon(rng, 14)
        first = validate([polygon.affine(k) for k in range(7)])
        second = validate([polygon.affine(k) for k in range(7, 14)])
        joined = convex_join_sections(heptagon_extension(first), heptagon_extension(second))
        assert joined.certified and joined.dim == 4
        assert len(joined.vertices) <= 12
        assert joined.claimed_polygon() == polygon

    def test_join_with_itself(self, rng):
        s = heptagon_extension(random_convex_polygon(rng, 7))
        joined = convex_join_sections(s, s)
        assert joined.certified
        assert joined.claimed == s.claimed

    def test_three_way_join_matches_pairwise_fold(self, rng):
        polygon = random_convex_polygon(rng, 16)
        parts = [heptagon_extension(validate([polygon.affine(k) for k in range(7)])),
                 heptagon_extension(validate([polygon.affine(k) for k in range(7, 14)]))]
        tail = [polygon.affine(14), polygon.affine(15)]
        parts.append(certify(SectionedPolytope(2, tail, PlanarHull.of(tail))))
        joined = convex_join_sections(*parts)
        folded = convex_join_sections(convex_join_sections(parts[0], parts[1]), parts[2])
        assert joined.certified and joined.dim == folded.dim == 4
        assert joined.vertices == folded.vertices
        assert joined.claimed == folded.claimed
        assert joined.claimed_polygon() == polygon

    def test_requires_certificates(self, rng):
        s = heptagon_extension(random_convex_polygon(rng, 7))
        stale = SectionedPolytope(s.dim, s.vertices, s.claimed, certified=False)
        with pytest.raises(IncompatibleSections):
            convex_join_sections(s, stale)


class TestNgonExtension:
    def test_n14_values(self, rng):
        polygon = random_convex_polygon(rng, 14)
        ext = ngon_extension(polygon)
        assert ext.certified and ext.dim == 4
        assert len(ext.vertices) <= 12

    def test_joins_all_chunks_at_once(self, rng, monkeypatch):
        joins = count_calls(monkeypatch, compose_module, "convex_join_sections")
        ext = ngon_extension(random_convex_polygon(rng, 30))
        assert ext.certified and ext.dim == 6
        assert len(joins) == 1 and len(joins[0]) == 5

    def test_n7_base(self, rng):
        polygon = random_convex_polygon(rng, 7)
        ext = ngon_extension(polygon)
        assert ext.certified and ext.dim == 3 and len(ext.vertices) <= 6

    def test_n16_values(self, rng):
        polygon = random_convex_polygon(rng, 16)
        ext = ngon_extension(polygon)
        assert ext.certified and ext.dim == 4
        assert len(ext.vertices) <= 14  # ceil(96/7)

    def test_vertex_count_identity(self):
        for n in range(7, 10001):
            assert 6 * (n // 7) + n % 7 == -((6 * n) // -7)

    def test_exact_vertex_count_formula(self, rng):
        for n in (8, 9, 15, 21):
            polygon = random_convex_polygon(rng, n)
            ext = ngon_extension(polygon)
            assert len(ext.vertices) == 6 * (n // 7) + n % 7

    def test_extreme_point_count_within_bound(self, rng):
        polygon = random_convex_polygon(rng, 14)
        ext = ngon_extension(polygon)
        assert len(extreme_points(ext.vertices, ext.dim)) <= 12

    def test_every_remainder_size(self, rng):
        # n mod 7 runs over 0..6: point, segment and r-gon remainder chunks
        for n in range(14, 21):
            polygon = random_convex_polygon(rng, n)
            ext = ngon_extension(polygon)
            assert ext.certified and ext.dim == 4
            assert len(ext.vertices) == 12 + n % 7
            assert ext.claimed_polygon() == polygon


class TestOptimalEvenGon:
    def test_smallest_case_quadrilateral(self):
        s = optimal_even_gon(2)
        assert s.certified
        assert len(extreme_points(s.vertices, 3)) == 4
        assert s.claimed_polygon().n == 4

    def test_hexagon_from_five_vertices(self):
        s = optimal_even_gon(3)
        assert s.certified
        assert len(extreme_points(s.vertices, 3)) == 5
        assert s.claimed_polygon().n == 6

    def test_decagon_meets_lower_bound(self):
        s = optimal_even_gon(5)
        count = len(extreme_points(s.vertices, 3))
        assert s.certified and s.claimed_polygon().n == 10
        assert count == 7 == lower_bound_3d(10)

    def test_range_of_sizes(self):
        for m in range(2, 8):
            s = optimal_even_gon(m)
            assert s.certified
            assert len(extreme_points(s.vertices, 3)) == m + 2 == lower_bound_3d(2 * m)
            assert s.claimed_polygon().n == 2 * m

    def test_m_too_small(self):
        with pytest.raises(DomainError):
            optimal_even_gon(1)
