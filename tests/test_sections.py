import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import polysec.polygon as polygon_module
import polysec.sections as sections_module
from polysec.compose import ngon_3d_extension, ngon_extension
from polysec.errors import (
    EmptySection,
    NoExtension,
    NotConvex,
    NotInPolytope,
    ParseError,
    PolysecError,
    PullbackUnbounded,
    ScaleExceeded,
    TooFewVertices,
)
from polysec.exactgeom import MAX_SCALAR_CHARS, _ratio, _row, det3, parse_scalar
from polysec.linalg import _fourier_motzkin_pairs, interval_point, solve_linear
from polysec.heptagon import heptagon_extension
from polysec.hexagon import hexagon_extension5, hexagon_ic
from polysec.jsonio import polygon_from_obj, sectioned_from_obj
from polysec.polygon import ProjMap2, convex_hull_2d, validate
from polysec.randgen import random_convex_polygon
from polysec.sections import (
    SectionedPolytope,
    _distinct_rows,
    _section_columns,
    _section_points,
    _segment_flat_crossing,
    _support,
    bounded_pullback,
    compute_section,
    pullback,
    verify_section,
)
from polysec.slack import factorize_from_section

from conftest import (
    SIX_CROSSING_HEPTAGON,
    apply_map,
    convex_coefficients,
    count_calls,
    count_calls_everywhere,
    extreme_vertices,
    point,
    raw_polygon,
    row_of,
    vertex_of,
)

TETRA = [(0, 0, -1), (1, 0, -1), (0, 1, -1), (0, 0, 1)]
TETRA_SECTION = [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))]


class TestComputeSection:
    def test_tetrahedron_midplane_triangle(self):
        assert compute_section(TETRA, 3) == validate(TETRA_SECTION).vertices

    def test_all_vertices_above_is_empty(self):
        with pytest.raises(EmptySection):
            compute_section([(0, 0, 1), (1, 0, 1), (0, 1, 2)], 3)

    def test_vertex_on_flat_is_picked_up(self):
        verts = [(5, 5, 0), (0, 0, -1), (0, 0, 1)]
        assert compute_section(verts, 3) == ((0, 0), (5, 5))

    def test_point_section_flagged_degenerate(self):
        assert compute_section([(0, 0, -1), (0, 0, 2)], 3) == ((0, 0),)

    def test_list_vertices_accepted(self):
        # (0, 0, 0) is on H: its key is a tuple even when the vertex is a list
        verts = [list(v) for v in [*TETRA, (0, 0, 0)]]
        assert compute_section(verts, 3) == validate(TETRA_SECTION).vertices

    def test_codimension_two_crossings(self):
        # a segment crossing the flat in 4-space needs both extra coordinates
        # to vanish at the same parameter
        verts = [(0, 0, -1, -2), (0, 0, 1, 2), (1, 1, -1, -1), (2, 2, 3, 3)]
        hull = compute_section(verts, 4)
        # pair 1: t = 1/2 on both coordinates -> (0,0); pair 2: t = 1/4 -> crossing
        assert (0, 0) in hull

    def test_inconsistent_vanishing_no_crossing(self):
        verts = [(0, 0, -1, -1), (1, 1, 1, 2), (7, 7, 0, 0)]
        assert compute_section(verts, 4) == ((7, 7),)

    def test_soundness_returned_points_inside(self, rng):
        for _ in range(20):
            verts = [tuple(Fraction(rng.randrange(-16, 17), 4) for _ in range(3))
                     for _ in range(6)]
            try:
                hull = compute_section(verts, 3)
            except EmptySection:
                continue
            for x, y in hull:
                assert convex_coefficients((x, y, Fraction(0)), verts) is not None

    def test_invariant_under_flat_fixing_block_map(self):
        # doubling the transverse coordinate never changes the section
        verts = TETRA
        scaled = [(x, y, 2 * z) for x, y, z in verts]
        assert compute_section(verts, 3) == compute_section(scaled, 3)

    def test_no_fraction_comparison_or_hashing(self, monkeypatch):
        # the read path sorts, deduplicates and decides on integers: a
        # Fraction comparison is a cross-multiplication, a hash a modular
        # inverse
        verts = ngon_extension(random_convex_polygon(random.Random(28), 28)).vertices
        polygon = random_convex_polygon(random.Random(140), 140)
        calls = [count_calls(monkeypatch, Fraction, name)
                 for name in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")]
        hull = compute_section(verts, len(verts[0]))
        validated = validate(polygon.vertices)
        assert calls == [[]] * 6
        assert len(hull) == 28 and validated == polygon

    def test_invariant_under_transverse_mixing_in_4d(self):
        verts = [(0, 0, -1, -2), (0, 0, 1, 2), (1, 1, -1, -1), (2, 2, 3, 3)]
        # invertible block acting on coordinates 3 and 4 only
        mixed = [(x, y, 2 * z + w, z - w) for x, y, z, w in verts]
        assert compute_section(verts, 4) == compute_section(mixed, 4)


def rows_and_supports(verts):
    """The rows of the vertices, as SectionedPolytope makes them, and their
    off-H supports: the arguments of _section_points."""
    rows = [row_of(v) for v in verts]
    return rows, [_support(row) for row in rows]


def vertex_support(v):
    """The off-H support of a vertex, read off its row."""
    return _support(row_of(v))


def _on_flat(v):
    return all(c == 0 for c in v[2:])


def all_coordinate_crossing(u, v):
    """The crossing (t, point) of [u, v] with H, read off every coordinate
    3..d in Fractions, or None: the reference for the support-only,
    integer-sign _segment_flat_crossing."""
    t = None
    for uj, vj in zip(u[2:], v[2:]):
        if uj == vj:
            if uj != 0:
                return None
            continue
        tj = Fraction(uj, uj - vj)
        if t is None:
            t = tj
        elif t != tj:
            return None
    if t is None or t < 0 or t > 1:
        return None
    return t, (u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1]))


def all_pairs_crossings(verts):
    """Every vertex pair, in lexicographic order: the reference enumeration."""
    for i, j in combinations(range(len(verts)), 2):
        crossing = all_coordinate_crossing(verts[i], verts[j])
        if crossing is not None:
            yield i, j, *crossing


def all_pairs_section(verts):
    """The hull of the vertices on H and of all pair crossings: the polygon
    vertices built by validate, or the sorted one or two points; None if
    empty."""
    points = [v[:2] for v in verts if _on_flat(v)]
    points += [point for _, _, _, point in all_pairs_crossings(verts)]
    if not points:
        return None
    hull = convex_hull_2d(points)
    return tuple(sorted(hull)) if len(hull) < 3 else validate(hull).vertices


def all_pairs_columns(gens):
    columns = {}
    for k, g in enumerate(gens):
        if _on_flat(g):
            columns.setdefault(row_of(g[:2]), {k: Fraction(1)})
    for i, j, t, point in all_pairs_crossings(gens):
        columns.setdefault(row_of(point), {i: 1 - t, j: t})
    return columns


OFF_FLAT = [Fraction(0)] * 4 + [Fraction(c) for c in (1, -1, 2, -2, Fraction(1, 2), -3)]


@st.composite
def vertex_sets(draw):
    """Dimension 2-6; vertices with zero, one or several nonzero coordinates
    off H (many on H), some repeated."""
    dim = draw(st.integers(2, 6))
    planar = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    vertex = st.tuples(planar, planar, *[st.sampled_from(OFF_FLAT)] * (dim - 2))
    verts = draw(st.lists(vertex, min_size=1, max_size=9))
    repeats = draw(st.lists(st.integers(0, 8), max_size=3))
    return dim, verts + [verts[k % len(verts)] for k in repeats]


class TestSupportBuckets:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=vertex_sets())
    def test_matches_all_pairs_reference(self, case):
        dim, verts = case
        expected = all_pairs_section(verts)
        if expected is None:
            with pytest.raises(EmptySection):
                compute_section(verts, dim)
        else:
            assert compute_section(verts, dim) == expected
        columns = _section_columns(rows_and_supports(verts)[0])
        assert {point: {k: Fraction(*w) for k, w in column.items()} for point, column in columns.items()} \
            == all_pairs_columns(verts)
        assert all(type(n) is int and d > 0 for column in columns.values() for n, d in column.values())

    def test_pairs_tested_only_within_a_support(self, monkeypatch):
        # two blocks of three vertices in 4-space, two vertices on H; the
        # support coordinates are 1, -1, -2 per block, so only the pairs
        # of opposite sign are tested, two per block
        verts = [(0, 0, 1, 0), (1, 0, -1, 0), (0, 1, -2, 0), (5, 5, 0, 0),
                 (0, 0, 0, 1), (2, 0, 0, -1), (0, 2, 0, -1), (7, 7, 0, 0)]
        calls = count_calls(monkeypatch, sections_module, "_segment_flat_crossing")
        hull = compute_section(verts, 4)
        assert len(calls) == 2 + 2
        assert hull == all_pairs_section(verts)


def first_copies_crossings(verts):
    """All-coordinate crossings of the pairs i < j of first copies of equal
    vertices with one common nonempty support, in lexicographic order."""
    firsts = [k for k, v in enumerate(verts) if all(tuple(v) != tuple(w) for w in verts[:k])]
    for i, j in combinations(firsts, 2):
        if vertex_support(verts[i]) == vertex_support(verts[j]) != ():
            crossing = all_coordinate_crossing(verts[i], verts[j])
            if crossing is not None:
                yield i, j, *crossing


# about 300-bit numerators and denominators, beside small values
OFF_FLAT_HUGE = [Fraction(2**300 + 1, 3**190), Fraction(-(2**301) + 5, 7**107)]


@st.composite
def support_files(draw, single: bool):
    """Dimension 3-6: vertices with at most one nonzero coordinate off H
    when single, else any number; proportional tails, so that several
    support coordinates pin one crossing, and repeated vertices.  Planar
    coordinates are small fractions, ints or about 300 bits, as the crossing
    point multiplies their denominators; off-H ones Fractions or ints."""
    dim = draw(st.integers(3, 6))
    planar = (st.fractions(min_value=-4, max_value=4, max_denominator=3)
              | st.integers(-4, 4) | st.sampled_from(OFF_FLAT_HUGE))
    value = st.sampled_from(OFF_FLAT[4:] + OFF_FLAT_HUGE + [1, -2])
    verts = []
    for _ in range(draw(st.integers(1, 10))):
        tail = [Fraction(0)] * (dim - 2)
        if single:
            tail[draw(st.integers(0, dim - 3))] = draw(st.sampled_from([Fraction(0)]) | value)
        elif verts and draw(st.booleans()):
            scale = draw(st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(3)]))
            tail = [c * scale for c in draw(st.sampled_from(verts))[2:]]
        else:
            tail = [draw(st.sampled_from([Fraction(0), draw(value)])) for _ in tail]
        verts.append((draw(planar), draw(planar), *tail))
    repeats = draw(st.lists(st.integers(0, 9), max_size=3))
    return verts + [verts[k % len(verts)] for k in repeats]


# one segment crossing H, with ~300-bit planar coordinates and a mix of int
# and Fraction coordinates, in each order: a < 0 < b, then a > 0 > b
HUGE_PAIR = [(OFF_FLAT_HUGE[0], 3, -2, 4), (-1, OFF_FLAT_HUGE[1], Fraction(5, 7), Fraction(-10, 7))]
# one segment crossing H on a two-coordinate support, proportional with a
# negative ratio, in each sign order of the first support coordinate
TWO_SUPPORT_PAIR = [(Fraction(1, 3), 2, 0, Fraction(-3, 2), 6),
                    (Fraction(-5, 2), Fraction(7, 4), 0, Fraction(1, 2), -2)]


def all_pairs_section_points(rows, supports):
    """_section_points testing every pair of first copies in a support
    group, of either sign: the enumeration before opposite-sign pairing."""
    for k, (row, support) in enumerate(zip(rows, supports)):
        if not support:
            yield k, None, row_of((Fraction(row[0], row[-1]), Fraction(row[1], row[-1])))
    groups = {}
    for k, (row, support) in enumerate(zip(rows, supports)):
        if support:
            groups.setdefault(support, {}).setdefault(row, k)
    later = [()] * len(rows)
    for members in groups.values():
        members = list(members.values())
        for pos, k in enumerate(members):
            later[k] = members[pos + 1:]
    for i, partners in enumerate(later):
        for j in partners:
            point = _segment_flat_crossing(rows[i], rows[j], supports[i])
            if point is not None:
                yield i, j, point


def crossing_files(test):
    """The inputs of TestFlatCrossingsOracle."""
    test = example(verts=TWO_SUPPORT_PAIR[::-1])(test)
    test = example(verts=TWO_SUPPORT_PAIR)(test)
    test = example(verts=HUGE_PAIR[::-1])(test)
    test = example(verts=HUGE_PAIR)(test)
    test = given(verts=st.one_of(support_files(single=True), support_files(single=False)))(test)
    return settings(max_examples=200)(test)


class TestFlatCrossingsOracle:
    @crossing_files
    def test_matches_all_coordinate_reference(self, verts):
        # every point, a vertex on H or a crossing, comes as the canonical
        # triple of its Fraction point, the form of Polygon.lifts, so that a
        # claim matches by equality
        on_flat = [(k, None, point(*v[:2])) for k, v in enumerate(verts) if _on_flat(v)]
        crossings = [(i, j, point(*p)) for i, j, _, p in first_copies_crossings(verts)]
        assert list(_section_points(*rows_and_supports(verts))) == on_flat + crossings

    @crossing_files
    def test_same_list_as_all_pairs_enumeration(self, verts):
        # testing only the pairs of opposite sign drops no crossing and
        # keeps the lexicographic order and the first-copy rule
        rows, supports = rows_and_supports(verts)
        assert list(_section_points(rows, supports)) == list(all_pairs_section_points(rows, supports))

    def test_vertices_on_flat_come_first(self):
        # the vertices on H, lifted, in index order, then the crossings;
        # a repeated vertex on H is listed at each index
        verts = [(0, 0, 1), (Fraction(1, 2), 3, 0), (2, 0, -1), (0, 2, -1),
                 (-1, Fraction(-2, 3), 0), (Fraction(1, 2), 3, 0)]
        rows, supports = rows_and_supports(verts)
        points = list(_section_points(rows, supports))
        on_flat = [(k, None, row_of(v[:2])) for k, v in enumerate(verts) if not supports[k]]
        assert points[:3] == on_flat and len(on_flat) == 3
        assert points[3:] == [(0, 2, row_of((1, 0))), (0, 3, row_of((0, 1)))]

    def test_no_fraction_hashing(self, monkeypatch):
        # the repeated-vertex key is the integer row: hashing a Fraction
        # costs a modular inverse
        verts = ngon_extension(random_convex_polygon(random.Random(28), 28)).vertices
        hashes = count_calls(monkeypatch, Fraction, "__hash__")
        points = list(_section_points(*rows_and_supports(verts)))
        assert any(j is not None for _, j, _ in points) and hashes == []

    def test_two_fractions_per_crossing_point(self, monkeypatch):
        # compute_section forms the two coordinates of each section point
        # (a vertex on H or a crossing) and no parameter t, which only the
        # columns of factorize and the LP path use
        verts = ngon_extension(random_convex_polygon(random.Random(28), 28)).vertices
        points = list(_section_points(*rows_and_supports(verts)))
        made = count_calls(monkeypatch, sections_module, "Fraction")
        compute_section(verts, len(verts[0]))
        assert any(j is not None for _, j, _ in points) and len(made) == 2 * len(points)


class TestVerifySection:
    def test_certifies_true_claim(self):
        s = SectionedPolytope(3, map(row_of, TETRA), validate(TETRA_SECTION))
        assert verify_section(s) and s.certified

    def test_rejects_perturbed_claim(self):
        wrong = [(0, 0), (Fraction(1, 2) + Fraction(1, 1000), 0), (0, Fraction(1, 2))]
        s = SectionedPolytope(3, map(row_of, TETRA), validate(wrong))
        assert not verify_section(s) and not s.certified

    def test_blocks_pick_the_path(self, monkeypatch):
        # the unit square on H, at the ends of two segments in blocks 2 and
        # 3: blocks holds each vertex's off-H coordinate and verify matches
        # the claim against the crossings.  Once a vertex has two nonzero
        # coordinates off H, blocks is None and verify solves LPs
        square = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        flat = [(0, 0, 0, 0), (1, 0, 0, 0)]
        sections = count_calls(monkeypatch, sections_module, "_claim_matches_crossings")
        lps = count_calls(monkeypatch, sections_module, "_claim_is_section")
        s = SectionedPolytope(4, map(row_of, flat + [(1, 1, 1, 0), (1, 1, -1, 0), (0, 1, 0, 1), (0, 1, 0, -1)]),
                              square)
        assert s.blocks == (None, None, 2, 2, 3, 3)
        assert verify_section(s) and len(sections) == 1 and lps == []
        s = SectionedPolytope(4, map(row_of, flat + [(1, 1, 1, 0), (1, 1, -1, 0), (0, 1, 1, 1), (0, 1, -1, -1)]),
                              square)
        assert s.blocks is None
        assert verify_section(s) and len(sections) == 1 and len(lps) == 1

    def test_relabeled_claim_still_verifies(self):
        relabeled = [TETRA_SECTION[2], TETRA_SECTION[0], TETRA_SECTION[1]]
        s = SectionedPolytope(3, map(row_of, TETRA), validate(relabeled))
        assert verify_section(s)


def crossing_points(verts):
    """The planar crossings of a file of at most one nonzero coordinate
    off H per vertex, as Fraction pairs (compute_section's points off H)."""
    return {(Fraction(x, w), Fraction(y, w))
            for _, j, (x, y, w) in _section_points(*rows_and_supports(verts)) if j is not None}


# a pentagon on H, and a vertical segment through an interior point of it
PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]
PENTAGON_FILE = [(x, y, 0) for x, y in PENTAGON] + [(1, 1, 1), (1, 1, -1)]


def heptagon_file():
    """A heptagon extension, whose nine crossings include two that are no
    vertex of the section, and its section."""
    ext = heptagon_extension(random_convex_polygon(random.Random(7), 7))
    return ext.vertices, ext.claimed.vertices


def matches(verts, claim) -> bool:
    """verify_section of a claim built as a Polygon directly (raw_polygon), not validated."""
    return verify_section(SectionedPolytope(len(verts[0]), map(row_of, verts), raw_polygon(claim)))


class TestMatchingSoundness:
    # verify matches the claim against the crossings with no hull; a claim
    # that is not the section in canonical order must still fail when it
    # never went through validate
    def test_counterclockwise_section_fails(self):
        # the tetrahedron's crossings are all vertices of its section
        files = [heptagon_file(), (PENTAGON_FILE, validate(PENTAGON).vertices),
                 (TETRA, validate(TETRA_SECTION).vertices)]
        for verts, section in files:
            assert matches(verts, section)
            assert not matches(verts, (section[0], *section[:0:-1]))

    def test_star_order_fails(self):
        # every turn of a star polygon has one sign; its keys rise and fall
        # more than once.  Index 0 is the lexicographic minimum.  The flat
        # pentagon has no point besides its vertices
        section = validate(PENTAGON).vertices
        for verts in (PENTAGON_FILE, PENTAGON_FILE[:5]):
            assert matches(verts, section)
            assert not matches(verts, [section[2 * k % 5] for k in range(5)])
        verts, section = heptagon_file()
        for step in (2, 3):
            assert not matches(verts, [section[step * k % 7] for k in range(7)])

    @pytest.mark.parametrize("offset", [Fraction(1, 2**100), Fraction(-1, 2**100)])
    def test_heavier_point_beside_a_light_claim(self, offset):
        # the unit square on H, weights 1, and the crossing (1 + offset, 1/2)
        # of weight 2^101: outside the square the claim fails, inside it
        # passes.  Keys at twice the claim's weight bits alone would give the
        # outside crossing the square's largest x key and let it in
        square = validate([(0, 0), (0, 1), (1, 1), (1, 0)]).vertices
        x = 1 + offset
        verts = [(a, b, 0) for a, b in square] + [(x, Fraction(1, 2), 1), (x, Fraction(1, 2), -1)]
        assert matches(verts, square) == (compute_section(verts, 3) == square) == (offset < 0)

    def test_close_claimed_vertices_and_no_other_point(self):
        # a quadrilateral on H whose top edge joins two vertices 1/(W1 W2)
        # apart in x, weights W1, W2 of 21 bits, inside its rising chain:
        # claimed keys are compared with each other, at twice their bits
        # however light the other points are (here there are none)
        w1, w2 = 2**20 + 1, 2**20 + 3
        section = validate([(0, 0), (Fraction(1, w2), 1), (Fraction(1, w1), 1), (1, 0)]).vertices
        assert matches([(x, y, 0) for x, y in section], section)

    @pytest.mark.parametrize("case", ["heptagon", "pentagon"])
    def test_section_plus_inner_crossing_fails(self, case):
        verts, section = heptagon_file() if case == "heptagon" else (PENTAGON_FILE, validate(PENTAGON).vertices)
        inner = crossing_points(verts) - set(section)
        assert inner and compute_section(verts, len(verts[0])) == section
        for point in inner:
            for k in range(len(section) + 1):
                assert not matches(verts, [*section[:k], point, *section[k:]])


@st.composite
def claimed_files(draw):
    """A join or 3-D extension of a 7- to 28-gon, with its true claim, the
    claim with a vertex dropped, rotated or moved radially by 1/7 or 1e-9
    either way; validated when that succeeds, else a Polygon as built."""
    n = draw(st.integers(7, 28))
    polygon = random_convex_polygon(random.Random(draw(st.integers(0, 2**32))), n)
    ext = draw(st.sampled_from([ngon_extension, ngon_3d_extension]))(polygon)
    points = list(ext.claimed.vertices)
    k = draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "drop", "rotate", "move"]))
    if change == "drop":
        del points[k]
    elif change == "rotate":
        points = points[k:] + points[:k]
    elif change == "move":
        scale = 1 + draw(st.sampled_from([Fraction(1, 7), Fraction(-1, 7), Fraction(1, 10**9), Fraction(-1, 10**9)]))
        points[k] = (points[k][0] * scale, points[k][1] * scale)
    try:
        claim = validate(points) if change != "rotate" else raw_polygon(points)
    except (NotConvex, TooFewVertices):
        claim = raw_polygon(points)
    return SectionedPolytope(ext.dim, ext.rows, claim)


class TestMatchingAgreesWithHull:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(s=claimed_files())
    def test_matches_compute_section(self, s):
        assert s.blocks is not None
        assert verify_section(s) == (compute_section(s.vertices, s.dim) == s.claimed.vertices)


def brute_force_section(verts, dim):
    """The section of conv(verts) by H as a canonical vertex tuple, or None
    when empty, by the reference enumeration for the LP path: a vertex of the
    section lies in the relative interior of a face whose affine hull meets
    H in that point alone, so that face has dimension at most dim - 2, and
    by Caratheodory the point is the unique convex combination of at most
    dim - 1 affinely independent vertices that lands on H.  Every subset of
    that size is solved for weights summing to 1 that vanish off H
    (solve_linear); unique nonnegative solutions are points of the section,
    and their hull is all of it."""
    distinct = list(dict.fromkeys(verts))
    points = []
    for size in range(1, dim):
        for subset in combinations(distinct, size):
            rows = [[1] * size] + [[v[c] for v in subset] for c in range(2, dim)]
            weights = solve_linear(rows, [1] + [0] * (dim - 2))
            if weights is not None and all(w >= 0 for w in weights):
                points.append(tuple(sum(w * v[c] for w, v in zip(weights, subset)) for c in (0, 1)))
    return convex_hull_2d(points) if points else None


@st.composite
def lp_path_files(draw):
    """Dimension 4-6 and 5-8 vertices with integer coordinates in -3..3.
    The first vertex has two nonzero coordinates off H, so verify takes the
    LP path; a later vertex often carries the negated tail of an earlier
    one, so that their segment crosses H."""
    dim = draw(st.integers(4, 6))
    coord = st.integers(-3, 3)
    tail = draw(st.lists(coord, min_size=dim - 2, max_size=dim - 2))
    for j in draw(st.lists(st.integers(0, dim - 3), min_size=2, max_size=2, unique=True)):
        tail[j] = tail[j] or draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    verts = [(draw(coord), draw(coord), *tail)]
    for _ in range(draw(st.integers(4, 7))):
        if draw(st.booleans()):
            tail = [-c for c in draw(st.sampled_from(verts))[2:]]
        else:
            tail = draw(st.lists(coord, min_size=dim - 2, max_size=dim - 2))
        verts.append((draw(coord), draw(coord), *tail))
    return dim, verts


class TestLpPathOracle:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(case=lp_path_files())
    def test_verify_and_factorize_match_brute_force(self, case):
        # the true section, the section with one vertex dropped, and with its
        # lexicographically smallest vertex moved out by 1/7: verify accepts
        # exactly the true claim, and factorize succeeds exactly on it
        dim, verts = case
        section = brute_force_section(verts, dim)
        assume(section is not None and len(section) >= 3)
        (x0, y0), rest = section[0], section[1:]
        claims = []
        for points in (section, rest, [(x0 - Fraction(1, 7), y0), *rest]):
            try:
                claims.append(validate(points))
            except (NotConvex, TooFewVertices):
                continue
        for claim in claims:
            s = SectionedPolytope(dim, map(row_of, verts), claim)
            assert s.blocks is None
            true = claim.vertices == section
            assert verify_section(s) == true
            try:
                factorize_from_section(claim, s)
            except (NoExtension, NotInPolytope):
                assert not true
            else:
                assert true


def brute_force_extreme(pts, dim):
    """The points that no subset of at most dim + 1 others, an affinely
    independent one by Caratheodory, holds as a convex combination: one
    exact linear solve per subset, in first-occurrence order."""
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        inside = False
        for size in range(1, dim + 2):
            for sub in combinations(others, size):
                matrix = [[g[k] for g in sub] for k in range(dim)]
                matrix.append([Fraction(1)] * size)
                sol = solve_linear(matrix, list(p) + [Fraction(1)])
                if sol is not None and all(w >= 0 for w in sol):
                    inside = True
                    break
            if inside:
                break
        if not inside:
            out.append(p)
    return out


def lp_over_all_others(vertices, dim):
    """The rule that multi-support sets keep, run on any set: one LP per
    distinct point over all the others, in the full dimension."""
    verts = [vertex_of(row) for row in _distinct_rows([row_of(v) for v in vertices], dim)]
    return [v for i, v in enumerate(verts) if convex_coefficients(v, verts[:i] + verts[i + 1:]) is None]


def single_support_set(rng, dim):
    """A random single-support set with points on H and at least two
    blocks off H; when two random points of it are in one block or one is
    on H, their midpoint, which is not extreme, is added; then two of its
    points are repeated at random places."""
    while True:
        pts = []
        for _ in range(rng.randrange(5, 9)):
            point = [Fraction(rng.randrange(-4, 5)), Fraction(rng.randrange(-4, 5))] + [Fraction(0)] * (dim - 2)
            block = rng.choice([None, *range(2, dim)])
            if block is not None:
                point[block] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            pts.append(tuple(point))
        supports = {vertex_support(p) for p in pts}
        if () in supports and len(supports) > 2:
            break
    u, v = rng.sample(pts, 2)
    if len(set(vertex_support(u) + vertex_support(v))) < 2:
        pts.insert(rng.randrange(len(pts) + 1), tuple((a + b) / 2 for a, b in zip(u, v)))
    for p in rng.sample(pts, 2):
        pts.insert(rng.randrange(len(pts) + 1), p)
    return pts


class TestExtremePoints:
    def test_square_corners_plus_center(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2))]
        embedded = [(x, y, 0) for x, y in pts]
        out = extreme_vertices(embedded, 3)
        assert sorted(out) == sorted((Fraction(x), Fraction(y), Fraction(0)) for x, y in pts[:4])

    def test_duplicates_removed_first(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 0)]
        assert len(extreme_vertices(pts, 3)) == 3

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(15):
            pts = [tuple(Fraction(rng.randrange(-6, 7)) for _ in range(3)) for _ in range(7)]
            pts = list(dict.fromkeys(pts))
            assert set(extreme_vertices(pts, 3)) == set(brute_force_extreme(pts, 3))

    @pytest.mark.parametrize("dim", [4, 5])
    def test_single_support_sets_match_bruteforce_oracle(self, rng, dim):
        # several blocks, points on H and duplicates: the block rule against
        # the subset oracle, in first-occurrence order
        for _ in range(12):
            pts = single_support_set(rng, dim)
            assert extreme_vertices(pts, dim) == brute_force_extreme(list(dict.fromkeys(pts)), dim)

    def test_crossing_through_a_vertex_on_the_flat(self):
        # block 2's segment from (0, 0, 1, 0) to (2, 0, -1, 0) crosses H at
        # the vertex (1, 0) on H, which is therefore not extreme
        pts = [(0, 0, 1, 0), (2, 0, -1, 0), (1, 0, 0, 0), (0, 3, 0, 1), (3, 3, 0, -1), (3, -1, 0, 0)]
        pts = [tuple(map(Fraction, p)) for p in pts]
        out = extreme_vertices(pts, 4)
        assert out == [p for p in pts if p != (1, 0, 0, 0)] == brute_force_extreme(pts, 4)

    def test_block_with_one_vertex(self):
        # block 3 is the single vertex (1, 1, 0, 1), which crosses nothing
        # and is extreme; (1, 1, 1, 0) lies inside block 2's segment and
        # (1, 2) on H inside the triangle on H
        pts = [(0, 0, 0, 0), (4, 0, 0, 0), (0, 4, 0, 0), (1, 1, 2, 0), (1, 1, -1, 0), (1, 1, 0, 1),
               (1, 1, 1, 0), (1, 2, 0, 0)]
        pts = [tuple(map(Fraction, p)) for p in pts]
        out = extreme_vertices(pts, 4)
        assert out == pts[:6] == brute_force_extreme(pts, 4)

    def test_join_with_a_midpoint_of_one_block(self):
        ext = ngon_extension(random_convex_polygon(random.Random(14), 14))
        u, v = [w for w in ext.vertices if vertex_support(w) == (2,)][:2]
        midpoint = tuple((a + b) / 2 for a, b in zip(u, v))
        out = extreme_vertices([*ext.vertices, midpoint], ext.dim)
        assert out == list(ext.vertices) == lp_over_all_others(ext.vertices, ext.dim)

    def test_package_heptagons_and_hexagons_match_all_vertex_lp(self, rng, ic6_hexagon, regular_hexagon):
        polytopes = [heptagon_extension(validate(SIX_CROSSING_HEPTAGON))]
        polytopes += [heptagon_extension(random_convex_polygon(rng, 7)) for _ in range(4)]
        polytopes.append(hexagon_extension5(regular_hexagon, hexagon_ic(regular_hexagon)))
        polytopes.append(SectionedPolytope(3, [row_of((x, y, 0)) for x, y in ic6_hexagon.vertices], ic6_hexagon))
        for s in polytopes:
            assert extreme_vertices(s.vertices, s.dim) == lp_over_all_others(s.vertices, s.dim)

    @pytest.mark.parametrize("n", range(8, 36, 3))
    def test_package_ngons_match_all_vertex_lp(self, n):
        # every remainder n mod 7 from 0 to 6, in both constructions
        polygon = random_convex_polygon(random.Random(n), n)
        for s in (ngon_extension(polygon), ngon_3d_extension(polygon)):
            assert extreme_vertices(s.vertices, s.dim) == lp_over_all_others(s.vertices, s.dim)

    def test_join_lps_are_block_sized(self, monkeypatch):
        # one LP per distinct vertex, each in its block's (x, y, z_j) and
        # the weight; over all the other vertices each integer point would
        # have 6 coordinates and the weight
        ext = ngon_extension(random_convex_polygon(random.Random(1), 28))
        calls = count_calls(monkeypatch, sections_module, "_nonnegative_combination")
        extreme_vertices(ext.vertices, ext.dim)
        assert ext.dim == 6 and len(calls) == 24
        assert all(len(point) <= 4 for point, _ in calls)

    def test_one_block_is_not_crossed(self, monkeypatch, rng):
        ext = heptagon_extension(random_convex_polygon(rng, 7))
        crossings = count_calls(monkeypatch, sections_module, "_section_points")
        lps = count_calls(monkeypatch, sections_module, "_nonnegative_combination")
        assert len(extreme_vertices(ext.vertices, 3)) == 6
        assert crossings == [] and len(lps) == 6

    def test_scale_guard(self):
        pts = [tuple(Fraction(k + j) for j in range(5)) for k in range(65)]
        with pytest.raises(ScaleExceeded):
            extreme_vertices(pts, 5)

    def test_single_support_refusal_comes_first(self, monkeypatch):
        # the 120 vertices of a 140-gon join are refused before any
        # crossing or LP, as CLI extend refuses them
        ext = ngon_extension(random_convex_polygon(random.Random(1), 140))
        crossings = count_calls(monkeypatch, sections_module, "_section_points")
        lps = count_calls(monkeypatch, sections_module, "_nonnegative_combination")
        with pytest.raises(ScaleExceeded):
            extreme_vertices(ext.vertices, ext.dim)
        assert crossings == [] and lps == []


TRIANGLE = validate([(0, 0), (1, 0), (0, 1)])


@st.composite
def ambient_vectors(draw):
    """A vector of dimension 2-6 of ints, Fractions with small or wide
    denominators, negative values and zeros."""
    scalar = (st.integers(-9, 9) | st.just(Fraction(0))
              | st.fractions(min_value=-20, max_value=20, max_denominator=60)
              | st.sampled_from(OFF_FLAT_HUGE))
    return tuple(draw(st.lists(scalar, min_size=2, max_size=6)))


def decimal_text(value: Fraction):
    """value as an exact decimal text such as "-0.125", or None when no
    power of ten up to 10^6 clears its denominator."""
    for e in range(1, 7):
        if 10**e % value.denominator == 0:
            digits = str(abs(value.numerator) * (10**e // value.denominator)).rjust(e + 1, "0")
            return "-" * (value < 0) + digits[:-e] + "." + digits[-e:]
    return None


def written_forms(value: Fraction) -> list:
    """Texts (and JSON ints) of one rational: reduced, unreduced, padded,
    as a decimal and with an exponent when exact, and zero in its forms."""
    n, d = value.numerator, value.denominator
    forms = [str(value), f"{2 * n}/{2 * d}", f"{3 * n}/{3 * d}", f"  {value} "]
    decimal = decimal_text(value)
    if decimal is not None:
        e = len(decimal) - decimal.index(".") - 1
        forms += [decimal, f"{n * 10**e // d}e-{e}", f"{n * 10**e // d}E-{e}"]
    if d == 1:
        forms += [n, f"{n}e0"]
    if n == 0:
        forms += ["-0", "0/7", 0, "0.0", "0e5", " 0 "]
    return forms


@st.composite
def written_files(draw):
    """An extension file of dimension 2-6 whose coordinates are written in
    any of their written_forms, with zeros off H in most places."""
    dim = draw(st.integers(2, 6))
    value = (st.fractions(min_value=-20, max_value=20, max_denominator=40)
             | st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(-7, 20), *OFF_FLAT_HUGE]))
    vertices = []
    for _ in range(draw(st.integers(1, 6))):
        coords = [draw(value), draw(value)] + [draw(st.just(Fraction(0)) | value) for _ in range(dim - 2)]
        vertices.append([draw(st.sampled_from(written_forms(c))) for c in coords])
    return {"dim": dim, "vertices": vertices, "claimed": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}}


class TestRows:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=written_files())
    def test_rows_read_from_text_are_rows_of_the_parsed_fractions(self, doc):
        # sectioned_from_obj forms no Fraction per coordinate; its rows,
        # made of the texts other than "0" only, are _row over every text,
        # and its rows, blocks and derived vertices are those of the parsed
        # Fractions
        parsed = [tuple(parse_scalar(c) for c in v) for v in doc["vertices"]]
        s = sectioned_from_obj(doc)
        assert s.rows == tuple(_row([_ratio(c) for c in v]) for v in doc["vertices"])
        assert s.rows == tuple(map(row_of, parsed))
        assert s.blocks == SectionedPolytope(doc["dim"], map(row_of, parsed), TRIANGLE).blocks
        assert s.vertices == tuple(parsed)

    def test_equal_points_written_differently_get_equal_rows(self):
        # (1/2, 2, 0, -3/4): W = 4
        forms = [(Fraction(1, 2), 2, 0, Fraction(-3, 4)), ("2/4", "4/2", "-0", "-6/8"),
                 ("0.5", Fraction(2), "0", "-0.75"), (Fraction(2, 4), Fraction(6, 3), Fraction(0), "-3/4")]
        rows = [_row([_ratio(c) for c in v]) for v in forms]
        doc = {"dim": 4, "claimed": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
               "vertices": [["2/4", "4/2", "-0", "-6/8"], ["0.5", "2", "0", "-0.75"], ["1/2", "2", "0", "-3/4"]]}
        parsed = sectioned_from_obj(doc).rows
        assert set(rows) == set(parsed) == {(2, 8, 0, -3, 4)}
        zeros = {"dim": 3, "claimed": doc["claimed"], "vertices": [["0", "0", "0"], ["-0", "0/5", "0.0"]]}
        assert sectioned_from_obj(zeros).rows == ((0, 0, 0, 1),) * 2

    @settings(max_examples=300, deadline=None)
    @given(v=ambient_vectors())
    def test_rows_are_primitive_with_positive_weight(self, v):
        row = _row([Fraction(c).as_integer_ratio() for c in v])
        w = row[-1]
        assert w > 0 and gcd(*row) == 1 and len(row) == len(v) + 1
        assert all(Fraction(r, w) == c for r, c in zip(row, v))
        assert w == lcm(*(Fraction(c).denominator for c in v))

    @pytest.mark.parametrize("vertex, row", [
        (["0", "0", "0", "0"], (0, 0, 0, 0, 1)),
        (["0", "1/2", "0", "-3/4"], (0, 2, 0, -3, 4)),
        (["5e-1", "0", "2", "0"], (1, 0, 4, 0, 2)),
        (["-0", "0/7", 0, " 3/6 "], (0, 0, 0, 1, 2)),
        (["0.5", "14e-1", "0", "0"], (5, 14, 0, 0, 10)),
        (["0/7", "-0", "0.0", 0], (0, 0, 0, 0, 1)),
        (["9/27", "0", "-0", "12/8"], (2, 0, 0, 9, 6)),
    ])
    def test_rows_with_zeros_in_any_place(self, vertex, row):
        doc = {"dim": 4, "vertices": [vertex], "claimed": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}}
        assert sectioned_from_obj(doc).rows == (row,) == (_row([_ratio(c) for c in vertex]),)


def one_by_one_rows(doc):
    """The rows of an extension's vertices read one vertex at a time, its
    shape, then each text other than "0" through _ratio: the reference for
    the batched reader of sectioned_from_obj, and its first error."""
    dim = doc["dim"]
    rows = []
    for raw in doc["vertices"]:
        if not isinstance(raw, list) or len(raw) != dim:
            raise ParseError(f"vertex {raw!r} must have {dim} coordinates")
        support = [k for k, c in enumerate(raw) if c != "0"]
        *values, w = _row([_ratio(raw[k]) for k in support])
        row = [0] * dim + [w]
        for k, v in zip(support, values):
            row[k] = v
        rows.append(tuple(row))
    return tuple(rows)


MALFORMED_VERTICES = [
    [["1/2", "0", "1"], ["x", "0", "-1"], ["0", "1", "2", "3"], ["0", "1", "-1"]],
    [["1/2", "0", "1"], ["0", "1", "2", "3"], ["x", "0", "-1"], ["0", "1", "-1"]],
    [["1/2", "0", "1"], "0 1 2", ["1/0", "0", "-1"]],
    [["1/2", "0", "1"], ["0", "3 /4", "1"], None, ["0", "1", "5/0"]],
    [["1/2", "0", "1"], ["0", "1", "-1"], ["0", "0", "1" * (MAX_SCALAR_CHARS + 1)], ["1", "1"]],
    [["1/2", "0", "1"], ["0", "1", "-1"], [None, "0", "1"], []],
]


def fraction_pair_polygon(raw):
    """The pair reader on Fractions: parse_scalar on each text, then
    validate on the pairs; the reference for polygon_from_obj and the claim
    of sectioned_from_obj, which read the texts straight into lifts."""
    if not isinstance(raw, list):
        raise ParseError("vertices must be an array")
    pairs = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"vertex {item!r} must be an [x, y] pair")
        pairs.append((parse_scalar(item[0]), parse_scalar(item[1])))
    return validate(pairs)


PAIR_READERS = {
    "polygon": lambda raw: polygon_from_obj({"vertices": raw}),
    "claim": lambda raw: sectioned_from_obj({"dim": 2, "vertices": [], "claimed": {"vertices": raw}}).claimed,
}


def read_outcome(read, raw):
    """(vertices, lifts) of the Polygon read, or the class and message of its error."""
    try:
        polygon = read(raw)
    except PolysecError as exc:
        return type(exc), str(exc)
    return polygon.vertices, polygon.lifts


# (0, 0), (1/2, 0), (7/5, 1/2), (1/2, 7/5), (0, 1/2): zeros in x and in y
HALVES_PENTAGON = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(7, 5), Fraction(1, 2)),
                   (Fraction(1, 2), Fraction(7, 5)), (Fraction(0), Fraction(1, 2))]
STAR_PENTAGON = [["0", "0"], ["5", "3"], ["0", "3"], ["4", "1"], ["2", "5"]]
MALFORMED_CLAIMS = [
    "0 0 1 0 0 1",
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
    [["0", "0"], ["1", "0", "0"], ["0", "1"]],
    [["0", "0"], "1 0", ["0", "1"]],
    [["0", "0"], ["1", "1/0"], ["0", "1"]],
    [["0", "0"], ["x", "0"], ["0", "1"]],
    [["0", "0"], [None, "0"], ["0", "1"]],
    [["0", "0"], ["1" * (MAX_SCALAR_CHARS + 1), "0"], ["0", "1"]],
    [["0", "0"], ["1e" + "9" * 4, "0"], ["0", "1"]],
    [["0", "0"], ["1", "0"]],
    [],
    # two defects: the first in file order is the one reported
    [["0", "0"], ["x", "0"], ["1", "0", "0"], ["0", "1"]],
    [["0", "0"], ["1", "0", "0"], ["x", "0"], ["0", "1"]],
    [["0", "0"], ["1", "0"], ["2/2", "0.0"], ["0", "1"]],
    [["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"], ["2", "2"]],
    [["0", "0"], ["2", "0"], ["1", "0"], ["1", "1"]],
    STAR_PENTAGON,
]


def claim_texts(value: Fraction) -> list:
    """written_forms, and the tripled terms padded with spaces."""
    return [*written_forms(value), f" {3 * value.numerator}/{3 * value.denominator} "]


class TestPairReader:
    @pytest.mark.parametrize("reader", PAIR_READERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_written_claims_read_as_validated_fractions(self, reader, seed):
        points = HALVES_PENTAGON if seed < 2 else random_convex_polygon(random.Random(seed), 3 + seed).vertices
        rng = random.Random(seed)
        for _ in range(8):
            order = list(points) if rng.random() < 0.5 else list(points)[::-1]
            raw = [[rng.choice(claim_texts(c)) for c in p] for p in order]
            expected = read_outcome(fraction_pair_polygon, raw)
            assert read_outcome(PAIR_READERS[reader], raw) == expected
            assert expected[1] == validate(points).lifts

    def test_every_zero_form_and_term_form_is_read(self):
        raw = [["0.5", "-0"], ["14e-1", " 3/6 "], [" 3/6 ", "14e-1"], [0, "3/6"], ["0/7", 0]]
        polygon = polygon_from_obj({"vertices": raw})
        assert polygon == validate(HALVES_PENTAGON)
        assert polygon.vertices == validate(HALVES_PENTAGON).vertices
        assert polygon.lifts == ((0, 0, 1), (0, 1, 2), (5, 14, 10), (14, 5, 10), (1, 0, 2))

    @pytest.mark.parametrize("reader", PAIR_READERS)
    @pytest.mark.parametrize("raw", MALFORMED_CLAIMS, ids=range(len(MALFORMED_CLAIMS)))
    def test_malformed_claims_raise_the_same_errors(self, reader, raw):
        expected = read_outcome(fraction_pair_polygon, raw)
        assert isinstance(expected[0], type) and issubclass(expected[0], PolysecError)
        assert read_outcome(PAIR_READERS[reader], raw) == expected


    @pytest.mark.parametrize("vertices", MALFORMED_VERTICES, ids=range(len(MALFORMED_VERTICES)))
    def test_malformed_vertices_raise_the_first_error_in_file_order(self, vertices):
        doc = {"dim": 3, "vertices": vertices, "claimed": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}}
        expected = read_outcome(one_by_one_rows, doc)
        assert isinstance(expected[0], type) and issubclass(expected[0], ParseError)
        assert read_outcome(lambda d: sectioned_from_obj(d).rows, doc) == expected
        # and the vertex defect comes before a defect of the claim
        doc["claimed"] = {"vertices": [["0", "0"], ["y", "0"]]}
        assert read_outcome(lambda d: sectioned_from_obj(d).rows, doc) == expected


class TestLiftAndPullback:
    def test_identity_lift(self):
        point = (Fraction(3), Fraction(4), Fraction(5), Fraction(6))
        assert pullback([row_of(point)], ProjMap2(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == [(3, 4, 5, 6, 1)]

    def test_translation_lift_fixes_transverse_coords(self):
        t = ProjMap2(((1, 0, 5), (0, 1, -2), (0, 0, 1)))
        assert pullback([row_of((Fraction(1), Fraction(1), Fraction(9)))], t) == [(6, -1, 9, 1)]

    def test_horizon_hazard(self):
        # the map sending x = -1 to infinity kills points with x = -1 at any height
        t = ProjMap2(((0, 1, 0), (0, 0, 1), (1, 0, 1)))
        with pytest.raises(PullbackUnbounded):
            pullback([row_of((Fraction(-1), Fraction(2), Fraction(5)))], t)

    def test_affine_pullback_always_succeeds(self):
        section = validate(TETRA_SECTION)
        s = SectionedPolytope(3, map(row_of, TETRA), section)
        verify_section(s)
        t = ProjMap2(((2, 0, 1), (0, 2, -3), (0, 0, 1)))
        out = SectionedPolytope(3, pullback(s.rows, t), apply_map(section, t))
        assert verify_section(out) and out.dim == 3 and len(out.vertices) == 4

    def test_adversarial_pullback_unbounded(self):
        s = SectionedPolytope(3, map(row_of, TETRA), validate(TETRA_SECTION))
        verify_section(s)
        # sends the plane x = -1 to infinity: tetrahedron has x in [0, 1],
        # but shift it so the horizon cuts it first
        bad = ProjMap2(((0, 1, 0), (0, 0, 1), (2, 0, -1)))  # horizon x = 1/2
        with pytest.raises(PullbackUnbounded):
            pullback(s.rows, bad)

    def test_bounded_pullback_rescues_with_shear(self):
        # horizon x = 3/4 clips the base vertex (1,0,-1) but not the section
        # (x <= 1/2 there); a shear with slope in (-3, -1) fixes every sign
        section = validate(TETRA_SECTION)
        s = SectionedPolytope(3, map(row_of, TETRA), section)
        verify_section(s)
        bad = ProjMap2(((0, 1, 0), (0, 0, 1), (-4, 0, 3)))
        with pytest.raises(PullbackUnbounded):
            pullback(s.rows, bad)
        out = SectionedPolytope(3, bounded_pullback(s.rows, bad), apply_map(section, bad))
        assert verify_section(out)

    def test_one_signed_weights_take_the_plain_lift(self, monkeypatch):
        # every weight h . (x, y, 1) of one strict sign: the plain lift,
        # whatever the heights, and no shear; the weight row (0, 0, -1) with
        # heights of one sign is the affine case
        shears = count_calls(monkeypatch, sections_module, "shear_fixing_flat")
        above = [(Fraction(0), Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(2)),
                 (Fraction(0), Fraction(1), Fraction(3))]
        cases = [
            (TETRA, ProjMap2(((2, 0, 1), (0, 2, -3), (0, 0, 1)))),
            (above, ProjMap2(((1, 0, 0), (0, 1, 0), (0, 0, -1)))),
            (TETRA, ProjMap2(((0, 1, 0), (0, 0, 1), (-4, 0, -1)))),
            (above, ProjMap2(((0, 1, 0), (0, 0, 1), (-4, 0, -1)))),
        ]
        for vertices, planar in cases:
            rows = [row_of(v) for v in vertices]
            assert bounded_pullback(rows, planar) == pullback(rows, planar)
        assert shears == []


@st.composite
def pullback_cases(draw, dims=(3, 6)):
    """An invertible integer planar map and one to six rational vertices of
    one dimension in dims: weights of both signs, and zero, occur."""
    coefficient = st.integers(-4, 4)
    m = draw(st.lists(coefficient, min_size=9, max_size=9)
             .filter(lambda m: det3(m[0:3], m[3:6], m[6:9]) != 0))
    dim = draw(st.integers(*dims))
    value = st.integers(-6, 6) | st.fractions(min_value=-5, max_value=5, max_denominator=12)
    vertices = draw(st.lists(st.tuples(*[value] * dim), min_size=1, max_size=6))
    return ProjMap2((m[0:3], m[3:6], m[6:9])), [tuple(map(Fraction, v)) for v in vertices]


def fraction_pullback(vertices, planar):
    """The reference pullback by Fraction arithmetic:
    (m0 . (x, y, 1), m1 . (x, y, 1), z_3, ..., z_d) / w with w = m2 . (x, y, 1);
    None when a weight is zero or two weights differ in sign."""
    m0, m1, m2 = planar.m
    weights = [m2[0] * v[0] + m2[1] * v[1] + m2[2] for v in vertices]
    if 0 in weights or min(weights) < 0 < max(weights):
        return None
    return [((m0[0] * v[0] + m0[1] * v[1] + m0[2]) / w, (m1[0] * v[0] + m1[1] * v[1] + m1[2]) / w,
             *(z / w for z in v[2:])) for v, w in zip(vertices, weights)]


def fraction_bounded_pullback(vertices, planar):
    """The reference of bounded_pullback on 3-D vertices, by Fraction
    arithmetic: the plain pullback for weights h . (x, y, 1) of one strict
    sign, else the pullback of the vertices sheared by the slope of their
    Fraction weights and heights; None when no slope works."""
    h = planar.m[2]
    weights = [h[0] * x + h[1] * y + h[2] for x, y, _ in vertices]
    if all(w > 0 for w in weights) or all(w < 0 for w in weights):
        return fraction_pullback(vertices, planar)
    interval = fraction_slope_interval(weights, [z for _, _, z in vertices])
    if interval is None:
        return None
    rho = interval_point(*interval)
    u1, u2 = (rho / h[0], 0) if h[0] else (0, rho / h[1])
    return fraction_pullback([(x + u1 * z, y + u2 * z, z) for x, y, z in vertices], planar)


def fraction_slope_interval(weights, heights):
    """The reference of the shear slope of sections.bounded_pullback by
    Fraction arithmetic: for the first sign s of 1, -1 such that every
    s (weight + rho height) can be positive, the ends (lo, hi) of the open
    interval of those rho, None where unbounded; None for neither sign."""
    for sign in (1, -1):
        lo = hi = None
        if any(z == 0 and sign * w <= 0 for w, z in zip(weights, heights)):
            continue
        for w, z in zip(weights, heights):
            if z:
                bound = Fraction(-w, z)
                if sign * z > 0:
                    lo = bound if lo is None else max(lo, bound)
                else:
                    hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None or lo < hi:
            return lo, hi
    return None


# the horizon row (1, 0, 0): the row (w, 0, z, 1) has horizon value w and height z
SLOPE_MAP = ProjMap2(((0, 1, 0), (0, 0, 1), (1, 0, 0)))


def shipped_slope(weights, heights):
    """The slope by which bounded_pullback shears the rows (w, 0, z, 1) of
    the weights and heights under SLOPE_MAP, read off its one
    shear_fixing_flat call, with a positive denominator; None when it
    raises PullbackUnbounded.  The weights must not have one strict sign,
    or the rows take the plain lift and no slope."""
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, sections_module, "shear_fixing_flat")
        try:
            bounded_pullback([(w, 0, z, 1) for w, z in zip(weights, heights)], SLOPE_MAP)
        except PullbackUnbounded:
            assert calls == []
            return None
    [(_, ((rn, rd), zero))] = calls
    assert zero == (0, 1) and rd > 0
    return Fraction(rn, rd)


class TestRowPullback:
    @settings(max_examples=300, deadline=None)
    @given(case=pullback_cases())
    def test_matches_fraction_reference(self, case):
        # the rows map in integers to the rows of the reference's vertices,
        # primitive with W > 0; PullbackUnbounded exactly when a weight is
        # zero or two weights differ in sign
        planar, vertices = case
        expected = fraction_pullback(vertices, planar)
        rows = [row_of(v) for v in vertices]
        if expected is None:
            with pytest.raises(PullbackUnbounded):
                pullback(rows, planar)
            return
        out = pullback(rows, planar)
        assert [vertex_of(row) for row in out] == expected
        assert all(row[-1] > 0 and gcd(*row) == 1 for row in out)

    @settings(max_examples=300, deadline=None)
    @given(case=pullback_cases(dims=(3, 3)))
    def test_shear_matches_fraction_reference(self, case):
        # the weights h . P and heights Z of the rows give the slope of the
        # Fraction weights and heights, as W > 0 cancels
        planar, vertices = case
        expected = fraction_bounded_pullback(vertices, planar)
        rows = [row_of(v) for v in vertices]
        if expected is None:
            with pytest.raises(PullbackUnbounded):
                bounded_pullback(rows, planar)
            return
        out = bounded_pullback(rows, planar)
        assert [vertex_of(row) for row in out] == expected
        assert all(row[-1] > 0 and gcd(*row) == 1 for row in out)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6))
    @example([(1, 1), (-1, -1)])  # for s = 1 the closed interval [-1, -1]
    @example([(1, 1), (0, 0), (-1, -1)])  # and a row of zero height and weight
    @example([(-2, 0), (1, -1)])  # s = 1 fails on the zero height; s = -1: rho > 1, slope 2
    @example([(-3, 1), (1, -1)])  # s = 1 fails on the bounds 3 > 1; s = -1: 1 < rho < 3, slope 2
    def test_slope_interval_matches_fraction_reference(self, slopes):
        # integer weights and heights of both signs: the shipped slope is
        # the midpoint rule of the Fraction reference's interval
        weights, heights = zip(*slopes)
        assume(not (all(w > 0 for w in weights) or all(w < 0 for w in weights)))
        expected = fraction_slope_interval(weights, heights)
        assert shipped_slope(weights, heights) == (None if expected is None else interval_point(*expected))

    def test_first_sign_failing_only_on_strictness_refuses(self):
        # the Fourier-Motzkin point of s = 1 exists, but some row is 0 at
        # it: the single point -1 of [-1, -1], or a row of zero height and
        # weight.  In one variable the second sign cannot do better: the
        # two rows tight at -1 have opposite signs at every other slope,
        # and the zero row is 0 at every slope
        for weights, heights in (((1, -1), (1, -1)), ((1, 0, -1), (1, 0, -1)), ((1, 0), (1, 0))):
            point = _fourier_motzkin_pairs([(0, z, -w) if z else (None, 0, -w)
                                            for w, z in zip(weights, heights)], 1)
            assert point is not None
            assert shipped_slope(weights, heights) is None
            assert fraction_slope_interval(weights, heights) is None

    def test_both_branches_drawn(self):
        # the cases above reach the plain lift, the shear and both refusals
        outcomes = set()

        @settings(max_examples=100, deadline=None)
        @given(case=pullback_cases(dims=(3, 3)))
        def record(case):
            planar, vertices = case
            plain = fraction_pullback(vertices, planar)
            outcomes.add((plain is None, fraction_bounded_pullback(vertices, planar) is None))

        record()
        assert outcomes == {(False, False), (True, False), (True, True)}


class TestConstructor:
    def test_rows_of_other_length_or_weight_refused(self):
        # a negative W would flip every turn sign that the matching reads
        for rows in ([(0, 0, 1, 1, 1)], [(0, 0, 1)], [(1, 0, 1, 0)], [(1, 0, 1, -2)],
                     [(0, 0, 0, 1), (1, 1, 1)]):
            with pytest.raises(ValueError):
                SectionedPolytope(3, rows, TRIANGLE)

    def test_vertices_derived_from_the_rows(self):
        s = SectionedPolytope(3, [(1, 0, 1, 2), (0, 0, -3, 1)], TRIANGLE)
        assert s.vertices == ((Fraction(1, 2), 0, Fraction(1, 2)), (0, 0, -3))
        assert s.blocks == (2, 2)

    def test_list_rows_verify_as_tuple_rows(self):
        # rows are the keys of repeated vertices: list rows are stored as
        # tuples, and verify gives the same result as for tuple rows
        rows = [[0, 0, -1, 1], [2, 0, -1, 1], [0, 2, -1, 1], [0, 0, 1, 1]]
        claim = validate([(0, 0), (1, 0), (0, 1)])
        as_lists = SectionedPolytope(3, rows, claim)
        assert as_lists.rows == tuple(map(tuple, rows))
        assert verify_section(as_lists) is verify_section(SectionedPolytope(3, map(tuple, rows), claim)) is True


class TestCanonicalHull:
    def test_three_collinear_points_make_segment(self):
        assert convex_hull_2d([(2, 2), (1, 1), (0, 0)]) == ((0, 0), (2, 2))

    def test_polygon_round_trip(self):
        poly = validate([(0, 0), (3, 0), (0, 3)])
        assert convex_hull_2d(poly.vertices) == poly.vertices
        assert convex_hull_2d([(3, 0), (0, 0), (1, 1), (0, 3)]) == poly.vertices

    def test_polygon_is_not_revalidated(self, monkeypatch):
        # one monotone chain per section; validate would run a second
        validations = count_calls_everywhere(monkeypatch, polygon_module, "validate")
        hulls = count_calls_everywhere(monkeypatch, polygon_module, "convex_hull_2d")
        hull = compute_section([(0, 0, 0), (3, 0, 0), (1, 1, -1), (1, 1, 1), (0, 3, 0)], 3)
        assert validations == [] and len(hulls) == 1
        assert hull == validate([(3, 0), (0, 3), (0, 0)]).vertices
