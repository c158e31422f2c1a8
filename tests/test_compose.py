from fractions import Fraction

import pytest

import polysec.polygon as polygon_module
import polysec.sections as sections_module
from polysec.compose import (
    convex_join_sections,
    lower_bound_3d,
    ngon_3d_extension,
    ngon_extension,
    optimal_even_gon,
)
from polysec.errors import DomainError
from polysec.heptagon import heptagon_extension, heptagon_vertices
from polysec.polygon import convex_hull_2d, validate
from polysec.randgen import random_convex_polygon
from polysec.sections import SectionedPolytope, certify, extreme_points

from conftest import count_calls, count_calls_everywhere


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


def on_plane(ext) -> list:
    """The (x, y) of the vertices with every coordinate past (x, y) zero."""
    return [v[:2] for v in ext.vertices if not any(v[2:])]


class TestChunkPlan:
    # ngon_extension joins one heptagon extension per full chunk of 7
    # consecutive vertices, each in its own coordinate past (x, y), and puts
    # the remainder chunk of n mod 7 vertices on the plane
    def test_multiples_of_seven(self, rng):
        ext = ngon_extension(random_convex_polygon(rng, 14))
        assert ext.dim == 2 + 2 and len(ext.vertices) == 6 * 2
        assert on_plane(ext) == []

    def test_remainder(self, rng):
        polygon = random_convex_polygon(rng, 16)
        ext = ngon_extension(polygon)
        assert ext.dim == 2 + 2 and len(ext.vertices) == 6 * 2 + 2
        assert on_plane(ext) == list(convex_hull_2d(polygon.vertices[14:16]))

    def test_covering_partition(self, rng):
        polygon = random_convex_polygon(rng, 20)
        ext = ngon_extension(polygon)
        assert ext.dim == 2 + 2 and len(ext.vertices) == 6 * 2 + 6
        for q in (0, 1):
            block = [v for v in ext.vertices if v[2 + q]]
            assert len(block) == 6 and not any(v[2 + (1 - q)] for v in block)
            assert block == [(*v[:2], *[Fraction(0)] * q, *v[2:], *[Fraction(0)] * (1 - q))
                             for v in heptagon_vertices(validate(polygon.vertices[7 * q:7 * q + 7]))]
        assert on_plane(ext) == list(convex_hull_2d(polygon.vertices[14:20]))

    def test_rejects_hexagon(self, rng):
        with pytest.raises(DomainError):
            ngon_extension(random_convex_polygon(rng, 6))


class TestNgon3d:
    def test_heptagon_base_case(self, obs_heptagon):
        ext = ngon_3d_extension(obs_heptagon)
        assert ext.certified and len(extreme_points(ext.vertices, 3)) <= 6

    def test_random_ten_gon(self, rng):
        polygon = random_convex_polygon(rng, 10)
        ext = ngon_3d_extension(polygon)
        assert ext.certified and ext.dim == 3
        assert len(ext.vertices) <= 9
        assert ext.claimed == polygon

    def test_octagon(self, rng):
        polygon = random_convex_polygon(rng, 8)
        ext = ngon_3d_extension(polygon)
        assert ext.certified and len(extreme_points(ext.vertices, 3)) <= 7

    def test_certifies_once(self, rng, monkeypatch):
        # the heptagon core is extended uncertified; only the result is certified
        sections = count_calls(monkeypatch, sections_module, "verify_section")
        polygon = random_convex_polygon(rng, 28)
        ext = ngon_3d_extension(polygon)
        assert ext.certified and len(ext.vertices) <= 27
        assert len(sections) == 1

    def test_no_validation_per_vertex(self, rng, monkeypatch):
        # the first seven canonical vertices are already a canonical heptagon,
        # so no vertex but theirs needs a polygon validated
        validations = count_calls_everywhere(monkeypatch, polygon_module, "validate")
        polygon = random_convex_polygon(rng, 28)
        validations.clear()
        ext = ngon_3d_extension(polygon)
        assert ext.claimed is polygon
        assert len(validations) <= 2

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
    def test_planar_triangle_chunk(self, rng):
        heptagon = random_convex_polygon(rng, 7)
        s1 = heptagon_extension(heptagon)
        outside = validate([(5, 5), (6, 5), (5, 6)])
        s2 = certify(SectionedPolytope(2, outside.vertices, outside))
        joined = convex_join_sections(s1, s2)
        assert joined.certified
        assert joined.dim == s1.dim
        assert len(joined.vertices) == len(s1.vertices) + 3
        assert joined.claimed.vertices == convex_hull_2d([*heptagon.vertices, *outside.vertices])

    def test_two_heptagon_chunks_of_a_14gon(self, rng):
        polygon = random_convex_polygon(rng, 14)
        first = validate([polygon.vertices[k] for k in range(7)])
        second = validate([polygon.vertices[k] for k in range(7, 14)])
        joined = convex_join_sections(heptagon_extension(first), heptagon_extension(second))
        assert joined.certified and joined.dim == 4
        assert len(joined.vertices) <= 12
        assert joined.claimed == polygon

    def test_join_with_itself(self, rng):
        s = heptagon_extension(random_convex_polygon(rng, 7))
        joined = convex_join_sections(s, s)
        assert joined.certified
        assert joined.claimed == s.claimed

    def test_three_way_join_matches_pairwise_fold(self, rng):
        polygon = random_convex_polygon(rng, 17)
        parts = [heptagon_extension(validate([polygon.vertices[k] for k in range(7)])),
                 heptagon_extension(validate([polygon.vertices[k] for k in range(7, 14)]))]
        tail = validate(polygon.vertices[14:])
        parts.append(certify(SectionedPolytope(2, tail.vertices, tail)))
        joined = convex_join_sections(*parts)
        folded = convex_join_sections(convex_join_sections(parts[0], parts[1]), parts[2])
        assert joined.certified and joined.dim == folded.dim == 4
        assert joined.vertices == folded.vertices
        assert joined.claimed == folded.claimed
        assert joined.claimed == polygon

    def test_uncertified_parts_certified_once(self, rng, monkeypatch):
        polygon = random_convex_polygon(rng, 10)
        core = validate(polygon.vertices[:7])
        tail = validate(polygon.vertices[7:])
        parts = [SectionedPolytope(3, heptagon_vertices(core), core),
                 SectionedPolytope(2, tail.vertices, tail)]
        sections = count_calls(monkeypatch, sections_module, "verify_section")
        joined = convex_join_sections(*parts)
        assert not any(s.certified for s in parts)
        assert joined.certified and joined.claimed == polygon
        assert len(sections) == 1


class TestNgonExtension:
    def test_n14_values(self, rng):
        polygon = random_convex_polygon(rng, 14)
        ext = ngon_extension(polygon)
        assert ext.certified and ext.dim == 4
        assert len(ext.vertices) <= 12

    def test_joins_all_chunks_at_once(self, rng):
        # the extension is the join of its chunks' parts: heptagon
        # extensions of the full chunks, the remainder chunk on the plane
        polygon = random_convex_polygon(rng, 17)
        chunks = [validate(polygon.vertices[k:k + 7]) for k in (0, 7, 14)]
        parts = [SectionedPolytope(3, heptagon_vertices(c), c) for c in chunks[:2]]
        parts.append(SectionedPolytope(2, chunks[2].vertices, chunks[2]))
        ext = ngon_extension(polygon)
        assert ext.certified and ext.dim == 4
        assert ext.vertices == convex_join_sections(*parts).vertices

    @pytest.mark.parametrize("n", [9, 16, 28])
    def test_certifies_once(self, n, rng, monkeypatch):
        # the chunks are plain parts; the join's certificate is the only one
        sections = count_calls(monkeypatch, sections_module, "verify_section")
        ext = ngon_extension(random_convex_polygon(rng, n))
        assert ext.certified and len(sections) == 1

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
            assert ext.claimed == polygon


class TestOptimalEvenGon:
    def test_smallest_case_quadrilateral(self):
        s = optimal_even_gon(2)
        assert s.certified
        assert len(extreme_points(s.vertices, 3)) == 4
        assert s.claimed.n == 4

    def test_hexagon_from_five_vertices(self):
        s = optimal_even_gon(3)
        assert s.certified
        assert len(extreme_points(s.vertices, 3)) == 5
        assert s.claimed.n == 6

    def test_decagon_meets_lower_bound(self):
        s = optimal_even_gon(5)
        count = len(extreme_points(s.vertices, 3))
        assert s.certified and s.claimed.n == 10
        assert count == 7 == lower_bound_3d(10)

    def test_range_of_sizes(self):
        for m in range(2, 8):
            s = optimal_even_gon(m)
            assert s.certified
            assert len(extreme_points(s.vertices, 3)) == m + 2 == lower_bound_3d(2 * m)
            assert s.claimed.n == 2 * m

    def test_m_too_small(self):
        with pytest.raises(DomainError):
            optimal_even_gon(1)
