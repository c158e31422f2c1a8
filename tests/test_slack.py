import random
from fractions import Fraction

import pytest

from polysec import sections, slack
from polysec.errors import DomainError, NoExtension, ScaleExceeded
from polysec.exactgeom import _primitive_ints
from polysec.heptagon import StandardHeptagon, build_standard_extension, default_extension_k, heptagon_extension
from polysec.hexagon import hexagon_extension5
from polysec.compose import ngon_3d_extension, ngon_extension
from polysec.polygon import validate
from polysec.randgen import random_convex_polygon, random_hexagon_params
from polysec.sections import SectionedPolytope, _distinct_rows, certify
from polysec.slack import (
    SlackFactorization,
    extend_facet_inequality,
    factorize_from_section,
    slack_matrix,
    verify_factorization,
)

from conftest import (
    convex_coefficients,
    count_calls,
    count_calls_everywhere,
    rank,
    reference_verify_factorization,
    row_of,
)


def distinct_vertices(s: SectionedPolytope) -> list:
    """The distinct vertices of s, in first-occurrence order (_distinct_rows)."""
    return [s.vertices[k] for k in _distinct_rows(s.rows, s.dim).values()]


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
    """The dense value at v of the extension of facet with free coefficients c:
    b - a . v[:2] + c . v[2:], for the outward normal a of the edge from the
    point of lift L_facet to that of L_facet+1, clockwise, its edge vector
    turned by +90 degrees, and b = a . (x0, y0)."""
    lifts = ext.claimed.lifts
    (x0, y0, w0), (x1, y1, w1) = lifts[facet % len(lifts)], lifts[(facet + 1) % len(lifts)]
    x0, y0, x1, y1 = Fraction(x0, w0), Fraction(y0, w0), Fraction(x1, w1), Fraction(y1, w1)
    a, b = (y0 - y1, x1 - x0), (y0 - y1) * x0 + (x1 - x0) * y0
    return b - a[0] * v[0] - a[1] * v[1] + sum(ck * vk for ck, vk in zip(c, v[2:]))


def lp_path_square():
    """A 4-D file whose section is the unit square, on the LP path: every
    vertex has two nonzero coordinates off H, one corner is listed twice,
    and the vertex (2, 1/2, 1, 2) outside the square forces nonzero free
    coefficients on both off-H coordinates for the edge x <= 1."""
    square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
    box = [(x, y, z, z) for z in (1, -1) for x, y in square.vertices]
    far = (2, Fraction(1, 2), 1, 2)
    return SectionedPolytope(4, map(row_of, box + [box[0], far]), square)


def small_standard_extension():
    """The standard heptagon with a = d = 1/2, b = c = -1/4 and
    lam = mu = 1/4, and its extension at the default K."""
    std = StandardHeptagon(a=(1, 2), b=(-1, 4), c=(-1, 4), d=(1, 2), lam=(1, 4), mu=(1, 4))
    a, b, c, d, lam, mu = (Fraction(*pair) for pair in std)
    points = [(0, 0), (c, d), (c, d + mu), (0, 1), (1, 0), (a + lam, b), (a, b)]
    rows = [_primitive_ints(row) for row in build_standard_extension(std, default_extension_k(std))]
    return std, SectionedPolytope(3, rows, validate(points))


class TestExtendFacetInequality:
    def test_nonnegative_on_all_vertices_every_facet(self):
        std, ext = small_standard_extension()
        for i in range(7):
            c = extend_facet_inequality(i, ext)
            assert all(extended(i, c, ext, v) >= 0 for v in ext.vertices)

    def test_restriction_reproduces_column_slacks(self):
        std, ext = small_standard_extension()
        polygon = ext.claimed
        sm = slack_matrix(polygon)
        for i in range(7):
            c = extend_facet_inequality(i, ext)
            for j in range(7):
                x, y = polygon.vertices[j]
                assert extended(i, c, ext, (x, y, Fraction(0))) == sm[i][j]

    def test_vertex_on_flat_cut_off(self):
        # a box over the unit square plus a vertex on H right of it: the
        # claim's edge x <= 1 cuts that vertex off, and no free coefficient
        # can help where every off-H coordinate is zero
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        box = [(x, y, z) for z in (1, -1) for x, y in square.vertices]
        ext = SectionedPolytope(3, map(row_of, box + [(2, Fraction(1, 2), 0)]), square)
        assert ext.blocks == (2,) * 8 + (None,)
        for i in range(4):
            # the edge x <= 1: both ends have X = W
            if all(x == w for x, _, w in (square.lifts[i], square.lifts[(i + 1) % 4])):
                with pytest.raises(NoExtension):
                    extend_facet_inequality(i, ext)
            else:
                c = extend_facet_inequality(i, ext)
                assert extended(i, c, ext, (2, Fraction(1, 2), 0)) >= 0
        with pytest.raises(NoExtension):
            factorize_from_section(square, ext)

    def test_codimension_two_feasible(self, rng):
        polygon = random_convex_polygon(rng, 14)
        ext = ngon_extension(polygon)
        for i in range(14):
            c = extend_facet_inequality(i, ext)
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
        gens = distinct_vertices(ext)
        off_flat = 0
        for i, row in enumerate(fact.r_factor):
            c = extend_facet_inequality(i, ext)
            assert len(c) == ext.dim - 2 and all(type(ck) is Fraction for ck in c)
            assert row == tuple(extended(i, c, ext, g) for g in gens)
            off_flat += sum(1 for g in gens if sum(ck * gk for ck, gk in zip(c, g[2:])))
        # the free coefficients reach R, so a dropped coordinate would show
        assert off_flat > 0


class TestConvexCoefficients:
    def test_vertex_gets_unit_weight(self):
        _, ext = small_standard_extension()
        gens = distinct_vertices(ext)
        weights = convex_coefficients(gens[2], gens)
        assert weights[2] == 1 and sum(weights) == 1

    def test_midpoint_of_two_vertices(self):
        _, ext = small_standard_extension()
        gens = distinct_vertices(ext)
        mid = tuple((a + b) / 2 for a, b in zip(gens[0], gens[1]))
        weights = convex_coefficients(mid, gens)
        assert sum(weights) == 1
        recombined = tuple(sum(w * g[k] for w, g in zip(weights, gens)) for k in range(3))
        assert recombined == mid

    def test_published_interior_point_combination(self):
        # the planar identity behind the extension: (a, b+lam) splits over
        # p_{-1}, p_{-2}, p_3 with weights (1-a-b-lam, a, lam) / (1-b)
        std, _ = small_standard_extension()
        a, b, lam = (Fraction(*pair) for pair in (std.a, std.b, std.lam))
        w = ((1 - a - b - lam) / (1 - b), a / (1 - b), lam / (1 - b))
        assert all(v > 0 for v in w) and sum(w) == 1
        p_m1, p_m2, p_3 = (a, b), (a + lam, b), (Fraction(0), Fraction(1))
        combo = (w[0] * p_m1[0] + w[1] * p_m2[0] + w[2] * p_3[0],
                 w[0] * p_m1[1] + w[1] * p_m2[1] + w[2] * p_3[1])
        assert combo == (a, b + lam)

    def test_outside_point_rejected(self):
        _, ext = small_standard_extension()
        gens = distinct_vertices(ext)
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
        ext = certify(SectionedPolytope(3, map(row_of, flat), square))
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
                ext = SectionedPolytope(built.dim, built.rows, built.claimed)
                assert len(scans) == len(built.vertices) and ext.blocks is not None
                scans.clear()
                fact = factorize_from_section(built.claimed, ext)
                assert fact.inner_dim == len(built.vertices) == len(scans)

    def test_lp_path_edge_lps_run_over_the_distinct_rows(self, monkeypatch):
        # every facet's edge LP runs over the integer rows of the distinct
        # vertices, the generators of R and C, and no vertex is derived
        ext = lp_path_square()
        assert ext.blocks is None
        edge_lps = count_calls(monkeypatch, slack, "edge_extension")
        fact = factorize_from_section(ext.claimed, ext)
        assert fact.inner_dim == 9 and ext._vertices is None
        assert [args[1] for args in edge_lps] == list(range(4))
        assert all(args[2] == list(_distinct_rows(ext.rows, 4)) for args in edge_lps)
        assert all(type(c) is int for args in edge_lps for row in args[2] for c in row)

    def test_duplicate_and_interior_vertices(self):
        # a box over the unit square, one corner listed twice and one point
        # inside: every distinct vertex is a generator
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        box = [(x, y, z) for z in (1, -1) for x, y in square.vertices]
        inside = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
        ext = certify(SectionedPolytope(3, map(row_of, box + [box[0], inside]), square))
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
        ext = certify(SectionedPolytope(5, map(row_of, flat + above), square))
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

    def test_negative_c_weight_with_the_right_product_fails(self):
        # a box over the unit square: its top corners g0 - g1 + g2 - g3 = 0,
        # so the R columns of any affine functionals sum to zero with those
        # signs; adding them to a column of C keeps R * C = S and the column
        # sum, and leaves negative weights, which only the sign check rejects
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        box = [(x, y, z) for z in (1, -1) for x, y in square.vertices]
        assert [g[:2] for g in box[:4]] == [(0, 0), (0, 1), (1, 1), (1, 0)]
        fact = factorize_from_section(square, certify(SectionedPolytope(3, map(row_of, box), square)))
        rows = [list(r) for r in fact.c_factor]
        for k, sign in enumerate((1, -1, 1, -1)):
            rows[k][0] += sign
        bad = SlackFactorization(r_factor=fact.r_factor, c_factor=tuple(map(tuple, rows)))
        sm = slack_matrix(square)
        assert any(w < 0 for row in bad.c_factor for w in row)
        assert not verify_factorization(sm, bad)
        assert not reference_verify_factorization(sm, bad.r_factor, bad.c_factor)
        # while the product itself still equals S
        assert all(sum(r[k] * c[j] for k, c in enumerate(bad.c_factor)) == sm[i][j]
                   for i, r in enumerate(bad.r_factor) for j in range(4))

    def test_ragged_r_fails(self):
        # a row of R shorter than the first: a malformed factorization, not
        # an IndexError
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        flat = [(x, y, Fraction(0)) for x, y in square.vertices]
        fact = factorize_from_section(square, certify(SectionedPolytope(3, map(row_of, flat), square)))
        ragged = (*fact.r_factor[:3], fact.r_factor[3][:3])
        bad = SlackFactorization(r_factor=ragged, c_factor=fact.c_factor)
        assert not verify_factorization(slack_matrix(square), bad)
        assert not reference_verify_factorization(slack_matrix(square), bad.r_factor, bad.c_factor)


def five_vertex_hexagon(seed: int) -> SectionedPolytope:
    """The 5-vertex extension of a seeded hexagon with a concurrent line
    triple, from the parameters of randgen.random_hexagon_params."""
    alpha, beta, gamma, x, y = random_hexagon_params(random.Random(seed))
    hexagon = validate([(0, alpha), (beta * x, beta * y), (gamma, 0), (1, 0), (x, y), (0, 1)])
    ext = hexagon_extension5(hexagon)
    assert len(ext.rows) == 5
    return ext


def tamperings(fact: SlackFactorization) -> dict:
    """Factors (R, C) as Fraction matrices: the untampered ones, and four
    tamperings, each of which changes the product or a sign."""
    r, c = fact.r_factor, fact.c_factor
    # a C entry that some R entry multiplies, and another generator's row
    k, j = next((k, j) for k, row in enumerate(c) for j, w in enumerate(row) if w)
    other = (k + 1) % len(c)

    def changed(matrix, edit):
        rows = [list(row) for row in matrix]
        edit(rows)
        return tuple(map(tuple, rows))

    def raise_r(rows):
        rows[0][k] += Fraction(1, 1000)

    def negate_c(rows):
        rows[k][j] = -rows[k][j]

    def swap_r(rows):
        rows[0], rows[1] = rows[1], rows[0]

    def move_c(rows):
        rows[other][j] += rows[k][j]
        rows[k][j] = 0

    return {
        "untampered": (r, c),
        "R entry raised by 1/1000": (changed(r, raise_r), c),
        "C entry negated": (r, changed(c, negate_c)),
        "two R rows swapped": (changed(r, swap_r), c),
        "C weight moved to another row": (r, changed(c, move_c)),
    }


class TestIntegerProductCheck:
    @pytest.mark.parametrize("build", [
        *[lambda seed=seed: heptagon_extension(random_convex_polygon(random.Random(seed), 7))
          for seed in range(3)],
        *[lambda seed=seed: five_vertex_hexagon(seed) for seed in range(3)],
        lambda: ngon_extension(random_convex_polygon(random.Random(28), 28)),
        lambda: ngon_3d_extension(random_convex_polygon(random.Random(28), 28)),
        lp_path_square,
    ], ids=[*[f"heptagon-{seed}" for seed in range(3)], *[f"hexagon5-{seed}" for seed in range(3)],
            "join-28", "3d-28", "lp-path"])
    def test_agrees_with_the_fraction_oracle(self, build):
        # the integer check decides as the dense Fraction product does, on
        # the slack matrix as Fractions and as integer pairs, untampered
        # and under each tampering
        ext = build()
        polygon = ext.claimed
        fact = factorize_from_section(polygon, ext)
        sm, pairs = slack_matrix(polygon), slack._slack_pairs(polygon)
        for name, (r, c) in tamperings(fact).items():
            expected = reference_verify_factorization(sm, r, c)
            assert expected == (name == "untampered"), name
            tampered = SlackFactorization(r_factor=r, c_factor=c)
            assert verify_factorization(sm, tampered) == expected, name
            assert verify_factorization(pairs, tampered) == expected, name

    def test_r_read_from_its_pairs(self, obs_heptagon):
        # factorize holds R as integer pairs, and its Fractions are derived
        # from them on first read, the values of those pairs
        fact = factorize_from_section(obs_heptagon, heptagon_extension(obs_heptagon))
        assert "r_factor" not in vars(fact)
        assert all(type(n) is int and type(d) is int and d > 0 for row in fact.r_pairs for n, d in row)
        assert fact.r_factor == tuple(tuple(Fraction(n, d) for n, d in row) for row in fact.r_pairs)
        assert fact.r_factor is fact.r_factor

    def test_c_read_from_its_pairs(self, obs_heptagon):
        # C too: its weights are integer pairs, read off the section's
        # crossings, and its Fractions are derived on first read
        fact = factorize_from_section(obs_heptagon, heptagon_extension(obs_heptagon))
        assert "c_factor" not in vars(fact)
        assert all(type(n) is int and type(d) is int and d > 0 for row in fact.c_pairs for n, d in row)
        assert fact.c_factor == tuple(tuple(Fraction(n, d) for n, d in row) for row in fact.c_pairs)
        assert fact.c_factor is fact.c_factor
        assert all(sum(column) == 1 for column in zip(*fact.c_factor))
