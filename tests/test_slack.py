import random
from fractions import Fraction

import pytest

from polysec import sections, slack
from polysec.errors import DomainError, NoExtension, ScaleExceeded
from polysec.heptagon import StandardHeptagon, build_standard_extension, heptagon_extension
from polysec.compose import ngon_3d_extension, ngon_extension
from polysec.polygon import validate
from polysec.randgen import random_convex_polygon
from polysec.linalg import convex_coefficients
from polysec.sections import SectionedPolytope, certify, distinct_points
from polysec.slack import (
    SlackFactorization,
    extend_facet_inequality,
    factorize_from_section,
    slack_matrix,
    verify_factorization,
)

from conftest import count_calls, count_calls_everywhere, rank


class TestSlackMatrix:
    def test_unit_square_entries(self):
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        sm = slack_matrix(square)
        assert set(v for row in sm for v in row) == {0, 1}
        for i in range(4):
            assert sm[i][i] == 0
            assert sm[i][(i + 1) % 4] == 0

    def test_triangle_one_positive_entry_per_row(self):
        sm = slack_matrix(validate([(0, 0), (2, 0), (0, 2)]))
        for row in sm:
            assert sum(v > 0 for v in row) == 1 and sum(v == 0 for v in row) == 2

    def test_rank_three(self, rng):
        for n in (4, 5, 7, 9):
            sm = slack_matrix(random_convex_polygon(rng, n))
            assert rank(sm) == 3

    def test_zero_pattern_and_positivity(self, rng):
        polygon = random_convex_polygon(rng, 7)
        sm = slack_matrix(polygon)
        for i in range(7):
            for j in range(7):
                if j in (i, (i + 1) % 7):
                    assert sm[i][j] == 0
                else:
                    assert sm[i][j] > 0


def extended(facet, c, ext, v):
    """The dense value at v of the extension of facet with free coefficients c."""
    a, b = ext.claimed.edge_inequality(facet)
    return b - a[0] * v[0] - a[1] * v[1] + sum(ck * vk for ck, vk in zip(c, v[2:]))


def lp_path_square():
    """A 4-D file whose section is the unit square, on the LP path: every
    vertex has two nonzero coordinates off H, one corner is listed twice,
    and the vertex (2, 1/2, 1, 2) outside the square forces nonzero free
    coefficients on both off-H coordinates for the edge x <= 1."""
    square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
    box = [(x, y, z, z) for z in (1, -1) for x, y in square.vertices]
    far = (2, Fraction(1, 2), 1, 2)
    return SectionedPolytope(4, box + [box[0], far], square)


def small_standard_extension():
    std = StandardHeptagon(a=Fraction(1, 2), b=Fraction(-1, 4), c=Fraction(-1, 4),
                           d=Fraction(1, 2), lam=Fraction(1, 4), mu=Fraction(1, 4))
    return std, SectionedPolytope(3, build_standard_extension(std), validate(std.vertex_list()))


class TestExtendFacetInequality:
    def test_nonnegative_on_all_vertices_every_facet(self):
        std, ext = small_standard_extension()
        gens = distinct_points(ext.vertices, ext.dim)
        for i in range(7):
            c = extend_facet_inequality(i, ext, gens)
            assert all(extended(i, c, ext, v) >= 0 for v in ext.vertices)

    def test_restriction_reproduces_column_slacks(self):
        std, ext = small_standard_extension()
        polygon = ext.claimed
        sm = slack_matrix(polygon)
        gens = distinct_points(ext.vertices, ext.dim)
        for i in range(7):
            c = extend_facet_inequality(i, ext, gens)
            for j in range(7):
                x, y = polygon.vertices[j]
                assert extended(i, c, ext, (x, y, Fraction(0))) == sm[i][j]

    def test_vertex_on_flat_cut_off(self):
        # a box over the unit square plus a vertex on H right of it: the
        # claim's edge x <= 1 cuts that vertex off, and no free coefficient
        # can help where every off-H coordinate is zero
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        box = [(x, y, z) for z in (1, -1) for x, y in square.vertices]
        ext = SectionedPolytope(3, box + [(2, Fraction(1, 2), 0)], square)
        assert ext.blocks == (2,) * 8 + (None,)
        gens = distinct_points(ext.vertices, ext.dim)
        for i in range(4):
            if square.edge_inequality(i) == ((1, 0), 1):
                with pytest.raises(NoExtension):
                    extend_facet_inequality(i, ext, gens)
            else:
                c = extend_facet_inequality(i, ext, gens)
                assert extended(i, c, ext, (2, Fraction(1, 2), 0)) >= 0
        with pytest.raises(NoExtension):
            factorize_from_section(square, ext)

    def test_codimension_two_feasible(self, rng):
        polygon = random_convex_polygon(rng, 14)
        ext = ngon_extension(polygon)
        gens = distinct_points(ext.vertices, ext.dim)
        for i in range(14):
            c = extend_facet_inequality(i, ext, gens)
            assert all(extended(i, c, ext, v) >= 0 for v in ext.vertices)

    @pytest.mark.parametrize("build", [
        lambda: ngon_extension(random_convex_polygon(random.Random(28), 28)),
        lambda: ngon_3d_extension(random_convex_polygon(random.Random(28), 28)),
        lp_path_square,
    ], ids=["join-28", "3d-28", "lp-path"])
    def test_r_entries_are_dense_values_of_the_coefficients(self, build):
        # R skips the zero coordinates off H of each generator; it must agree
        # with the dense value of the returned coefficients at every generator
        ext = build()
        polygon = ext.claimed
        fact = factorize_from_section(polygon, ext)
        gens = distinct_points(ext.vertices, ext.dim)
        off_flat = 0
        for i, row in enumerate(fact.r_factor):
            c = extend_facet_inequality(i, ext, gens)
            assert len(c) == ext.dim - 2 and all(type(ck) is Fraction for ck in c)
            assert row == tuple(extended(i, c, ext, g) for g in gens)
            off_flat += sum(1 for g in gens if sum(ck * gk for ck, gk in zip(c, g[2:])))
        # the free coefficients reach R, so a dropped coordinate would show
        assert off_flat > 0


class TestConvexCoefficients:
    def test_vertex_gets_unit_weight(self):
        _, ext = small_standard_extension()
        gens = distinct_points(ext.vertices, 3)
        weights = convex_coefficients(gens[2], gens)
        assert weights[2] == 1 and sum(weights) == 1

    def test_midpoint_of_two_vertices(self):
        _, ext = small_standard_extension()
        gens = distinct_points(ext.vertices, 3)
        mid = tuple((a + b) / 2 for a, b in zip(gens[0], gens[1]))
        weights = convex_coefficients(mid, gens)
        assert sum(weights) == 1
        recombined = tuple(sum(w * g[k] for w, g in zip(weights, gens)) for k in range(3))
        assert recombined == mid

    def test_published_interior_point_combination(self):
        # the planar identity behind the extension: (a, b+lam) splits over
        # p_{-1}, p_{-2}, p_3 with weights (1-a-b-lam, a, lam) / (1-b)
        std, _ = small_standard_extension()
        a, b, lam = std.a, std.b, std.lam
        w = ((1 - a - b - lam) / (1 - b), a / (1 - b), lam / (1 - b))
        assert all(v > 0 for v in w) and sum(w) == 1
        p_m1, p_m2, p_3 = (std.a, std.b), (std.a + std.lam, std.b), (Fraction(0), Fraction(1))
        combo = (w[0] * p_m1[0] + w[1] * p_m2[0] + w[2] * p_3[0],
                 w[0] * p_m1[1] + w[1] * p_m2[1] + w[2] * p_3[1])
        assert combo == (a, b + lam)

    def test_outside_point_rejected(self):
        _, ext = small_standard_extension()
        gens = distinct_points(ext.vertices, 3)
        assert convex_coefficients((Fraction(100), Fraction(100), Fraction(0)), gens) is None


class TestFactorize:
    def test_heptagon_shapes_and_exactness(self, obs_heptagon):
        ext = heptagon_extension(obs_heptagon)
        fact = factorize_from_section(obs_heptagon, ext)
        assert fact.inner_dim == 6
        assert len(fact.r_factor) == 7 and len(fact.r_factor[0]) == 6
        assert len(fact.c_factor) == 6 and len(fact.c_factor[0]) == 7
        assert verify_factorization(slack_matrix(obs_heptagon), fact)
        for j in range(7):
            assert sum(fact.c_factor[k][j] for k in range(6)) == 1

    def test_square_as_its_own_section(self):
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        flat = [(x, y, Fraction(0)) for x, y in square.vertices]
        ext = certify(SectionedPolytope(3, flat, square))
        fact = factorize_from_section(square, ext)
        sm = slack_matrix(square)
        assert fact.r_factor == sm
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))
        assert fact.c_factor == identity

    def test_14gon_inner_dimension(self, rng):
        polygon = random_convex_polygon(rng, 14)
        ext = ngon_extension(polygon)
        fact = factorize_from_section(polygon, ext)
        assert fact.inner_dim <= 12
        assert verify_factorization(slack_matrix(polygon), fact)

    def test_one_support_scan_per_polytope(self, monkeypatch):
        # the block decomposition is computed once per polytope, at
        # construction, and factorize scans each distinct generator's
        # support once, for its section columns; R needs no support
        scans = count_calls_everywhere(monkeypatch, sections, "_support")
        for n in (14, 28):
            for build in (ngon_extension, ngon_3d_extension):
                built = build(random_convex_polygon(random.Random(n), n))
                scans.clear()
                ext = SectionedPolytope(built.dim, built.vertices, built.claimed)
                assert len(scans) == len(built.vertices) and ext.blocks is not None
                scans.clear()
                fact = factorize_from_section(built.claimed, ext)
                assert fact.inner_dim == len(built.vertices) == len(scans)

    def test_lp_path_builds_the_generators_once(self, monkeypatch):
        # every facet's edge LP runs over the one generator list that
        # factorize builds, not over a list rebuilt per facet
        ext = lp_path_square()
        assert ext.blocks is None
        builds = count_calls(monkeypatch, slack, "distinct_points")
        fact = factorize_from_section(ext.claimed, ext)
        assert len(builds) == 1 and fact.inner_dim == 9

    def test_duplicate_and_interior_vertices(self):
        # a box over the unit square, one corner listed twice and one point
        # inside: every distinct vertex is a generator
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        box = [(x, y, z) for z in (1, -1) for x, y in square.vertices]
        inside = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
        ext = certify(SectionedPolytope(3, box + [box[0], inside], square))
        fact = factorize_from_section(square, ext)
        assert fact.inner_dim == 9
        assert verify_factorization(slack_matrix(square), fact)
        assert all(v == 0 for v in fact.c_factor[8])

    def test_input_bound_above_dimension_four(self):
        # 65 distinct vertices in dimension 5: the square on H and 61 points
        # above it, none of whose segments cross H away from the square
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        above = [(Fraction(k, 64), Fraction(1, 2), 1, 0, 0) for k in range(61)]
        flat = [(x, y, 0, 0, 0) for x, y in square.vertices]
        ext = certify(SectionedPolytope(5, flat + above, square))
        with pytest.raises(ScaleExceeded, match="65 points in dimension 5"):
            factorize_from_section(square, ext)

    def test_mismatched_pair_rejected(self, rng, obs_heptagon):
        other = random_convex_polygon(rng, 7)
        ext = heptagon_extension(other)
        with pytest.raises(DomainError):
            factorize_from_section(obs_heptagon, ext)

    def test_row_rescaling_consistency(self, obs_heptagon):
        # scaling a facet inequality scales the matching row of R and S alike
        ext = heptagon_extension(obs_heptagon)
        fact = factorize_from_section(obs_heptagon, ext)
        sm = slack_matrix(obs_heptagon)
        scale = Fraction(7, 3)
        scaled_entries = tuple(
            tuple(scale * v for v in row) if i == 2 else row
            for i, row in enumerate(sm)
        )
        scaled_r = tuple(
            tuple(scale * v for v in row) if i == 2 else row
            for i, row in enumerate(fact.r_factor)
        )
        scaled = SlackFactorization(r_factor=scaled_r, c_factor=fact.c_factor)
        assert verify_factorization(scaled_entries, scaled)


class TestVerifyFactorization:
    def test_negated_entry_fails(self, obs_heptagon):
        ext = heptagon_extension(obs_heptagon)
        fact = factorize_from_section(obs_heptagon, ext)
        sm = slack_matrix(obs_heptagon)
        rows = [list(r) for r in fact.r_factor]
        rows[0][0] = -rows[0][0] - 1
        bad = SlackFactorization(r_factor=tuple(tuple(r) for r in rows), c_factor=fact.c_factor)
        assert not verify_factorization(sm, bad)

    def test_tiny_perturbation_fails(self, obs_heptagon):
        ext = heptagon_extension(obs_heptagon)
        fact = factorize_from_section(obs_heptagon, ext)
        sm = slack_matrix(obs_heptagon)
        rows = [list(r) for r in fact.c_factor]
        rows[0][0] += Fraction(1, 10**6)
        bad = SlackFactorization(r_factor=fact.r_factor, c_factor=tuple(tuple(r) for r in rows))
        assert not verify_factorization(sm, bad)

    def test_structural_zero_of_c_made_nonzero_fails(self, obs_heptagon):
        ext = heptagon_extension(obs_heptagon)
        fact = factorize_from_section(obs_heptagon, ext)
        rows = [list(r) for r in fact.c_factor]
        k, j = next((k, j) for k, row in enumerate(rows) for j, v in enumerate(row) if v == 0)
        rows[k][j] = Fraction(1, 10**6)
        bad = SlackFactorization(r_factor=fact.r_factor, c_factor=tuple(tuple(r) for r in rows))
        assert not verify_factorization(slack_matrix(obs_heptagon), bad)

    def test_zero_of_r_made_negative_fails(self, obs_heptagon):
        ext = heptagon_extension(obs_heptagon)
        fact = factorize_from_section(obs_heptagon, ext)
        rows = [list(r) for r in fact.r_factor]
        i, k = next((i, k) for i, row in enumerate(rows) for k, v in enumerate(row) if v == 0)
        rows[i][k] = Fraction(-1)
        bad = SlackFactorization(r_factor=tuple(tuple(r) for r in rows), c_factor=fact.c_factor)
        assert not verify_factorization(slack_matrix(obs_heptagon), bad)

    def test_shape_mismatch_fails(self, obs_heptagon):
        sm = slack_matrix(obs_heptagon)
        bad = SlackFactorization(r_factor=((Fraction(1),),), c_factor=((Fraction(1),),))
        assert not verify_factorization(sm, bad)
