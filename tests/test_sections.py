import random
from fractions import Fraction
from itertools import combinations

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
    PullbackUnbounded,
    ScaleExceeded,
    TooFewVertices,
)
from polysec.linalg import convex_coefficients, solve_linear
from polysec.heptagon import heptagon_extension
from polysec.hexagon import hexagon_extension5, hexagon_ic
from polysec.polygon import ProjMap2, _lift, convex_hull_2d, validate
from polysec.randgen import random_convex_polygon
from polysec.sections import (
    SectionedPolytope,
    _section_columns,
    _section_points,
    _support,
    bounded_pullback,
    compute_section,
    distinct_points,
    extreme_points,
    pullback,
    verify_section,
)
from polysec.slack import factorize_from_section

from conftest import SIX_CROSSING_HEPTAGON, apply_map, count_calls, count_calls_everywhere, raw_polygon

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


def point_key(point):
    """The lift of a planar point, through its Fraction pair."""
    return _lift(tuple(Fraction(c) for c in point))


def all_pairs_columns(gens):
    columns = {}
    for k, g in enumerate(gens):
        if _on_flat(g):
            columns.setdefault(point_key(g[:2]), {k: Fraction(1)})
    for i, j, t, point in all_pairs_crossings(gens):
        columns.setdefault(point_key(point), {i: 1 - t, j: t})
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
        assert _section_columns(verts) == all_pairs_columns(verts)

    def test_pairs_tested_only_within_a_support(self, monkeypatch):
        # two blocks of three vertices in 4-space, two vertices on H
        verts = [(0, 0, 1, 0), (1, 0, -1, 0), (0, 1, -2, 0), (5, 5, 0, 0),
                 (0, 0, 0, 1), (2, 0, 0, -1), (0, 2, 0, -1), (7, 7, 0, 0)]
        calls = count_calls(monkeypatch, sections_module, "_segment_flat_crossing")
        hull = compute_section(verts, 4)
        assert len(calls) == 3 + 3
        assert hull == all_pairs_section(verts)


def first_copies_crossings(verts):
    """All-coordinate crossings of the pairs i < j of first copies of equal
    vertices with one common nonempty support, in lexicographic order."""
    firsts = [k for k, v in enumerate(verts) if all(tuple(v) != tuple(w) for w in verts[:k])]
    for i, j in combinations(firsts, 2):
        if _support(verts[i]) == _support(verts[j]) != ():
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


class TestFlatCrossingsOracle:
    @settings(max_examples=200)
    @given(verts=st.one_of(support_files(single=True), support_files(single=False)))
    @example(verts=HUGE_PAIR)
    @example(verts=HUGE_PAIR[::-1])
    @example(verts=TWO_SUPPORT_PAIR)
    @example(verts=TWO_SUPPORT_PAIR[::-1])
    def test_matches_all_coordinate_reference(self, verts):
        supports = [_support(v) for v in verts]
        expected = [(i, j, point_key(point)) for i, j, _, point in first_copies_crossings(verts)]
        assert [entry for entry in _section_points(verts, supports) if entry[1] is not None] == expected

    def test_vertices_on_flat_come_first(self):
        # the vertices on H, lifted, in index order, then the crossings;
        # a repeated vertex on H is listed at each index
        verts = [(0, 0, 1), (Fraction(1, 2), 3, 0), (2, 0, -1), (0, 2, -1),
                 (-1, Fraction(-2, 3), 0), (Fraction(1, 2), 3, 0)]
        supports = [_support(v) for v in verts]
        points = list(_section_points(verts, supports))
        on_flat = [(k, None, point_key(v[:2])) for k, v in enumerate(verts) if not supports[k]]
        assert points[:3] == on_flat and len(on_flat) == 3
        assert points[3:] == [(0, 2, point_key((1, 0))), (0, 3, point_key((0, 1)))]

    def test_no_fraction_hashing(self, monkeypatch):
        # the repeated-vertex key is integers: hashing a Fraction costs a
        # modular inverse
        verts = ngon_extension(random_convex_polygon(random.Random(28), 28)).vertices
        supports = [_support(v) for v in verts]
        hashes = count_calls(monkeypatch, Fraction, "__hash__")
        points = list(_section_points(verts, supports))
        assert any(j is not None for _, j, _ in points) and hashes == []

    def test_two_fractions_per_crossing_point(self, monkeypatch):
        # compute_section forms the two coordinates of each section point
        # (a vertex on H or a crossing) and no parameter t, which only the
        # columns of factorize and the LP path use
        verts = ngon_extension(random_convex_polygon(random.Random(28), 28)).vertices
        supports = [_support(v) for v in verts]
        points = list(_section_points(verts, supports))
        made = count_calls(monkeypatch, sections_module, "Fraction")
        compute_section(verts, len(verts[0]))
        assert any(j is not None for _, j, _ in points) and len(made) == 2 * len(points)


class TestVerifySection:
    def test_certifies_true_claim(self):
        s = SectionedPolytope(3, TETRA, validate(TETRA_SECTION))
        assert verify_section(s) and s.certified

    def test_rejects_perturbed_claim(self):
        wrong = [(0, 0), (Fraction(1, 2) + Fraction(1, 1000), 0), (0, Fraction(1, 2))]
        s = SectionedPolytope(3, TETRA, validate(wrong))
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
        s = SectionedPolytope(4, flat + [(1, 1, 1, 0), (1, 1, -1, 0), (0, 1, 0, 1), (0, 1, 0, -1)],
                              square)
        assert s.blocks == (None, None, 2, 2, 3, 3)
        assert verify_section(s) and len(sections) == 1 and lps == []
        s = SectionedPolytope(4, flat + [(1, 1, 1, 0), (1, 1, -1, 0), (0, 1, 1, 1), (0, 1, -1, -1)],
                              square)
        assert s.blocks is None
        assert verify_section(s) and len(sections) == 1 and len(lps) == 1

    def test_relabeled_claim_still_verifies(self):
        relabeled = [TETRA_SECTION[2], TETRA_SECTION[0], TETRA_SECTION[1]]
        s = SectionedPolytope(3, TETRA, validate(relabeled))
        assert verify_section(s)


def crossing_points(verts):
    """The planar crossings of a file of at most one nonzero coordinate
    off H per vertex, as Fraction pairs (compute_section's points off H)."""
    supports = [_support(v) for v in verts]
    return {(Fraction(x, w), Fraction(y, w))
            for _, j, (x, y, w) in _section_points(verts, supports) if j is not None}


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
    return verify_section(SectionedPolytope(len(verts[0]), verts, raw_polygon(claim)))


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
    return SectionedPolytope(ext.dim, ext.vertices, claim)


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
            s = SectionedPolytope(dim, verts, claim)
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
    verts = distinct_points(vertices, dim)
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
        supports = {_support(p) for p in pts}
        if () in supports and len(supports) > 2:
            break
    u, v = rng.sample(pts, 2)
    if len(set(_support(u) + _support(v))) < 2:
        pts.insert(rng.randrange(len(pts) + 1), tuple((a + b) / 2 for a, b in zip(u, v)))
    for p in rng.sample(pts, 2):
        pts.insert(rng.randrange(len(pts) + 1), p)
    return pts


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
            assert set(extreme_points(pts, 3)) == set(brute_force_extreme(pts, 3))

    @pytest.mark.parametrize("dim", [4, 5])
    def test_single_support_sets_match_bruteforce_oracle(self, rng, dim):
        # several blocks, points on H and duplicates: the block rule against
        # the subset oracle, in first-occurrence order
        for _ in range(12):
            pts = single_support_set(rng, dim)
            assert extreme_points(pts, dim) == brute_force_extreme(list(dict.fromkeys(pts)), dim)

    def test_crossing_through_a_vertex_on_the_flat(self):
        # block 2's segment from (0, 0, 1, 0) to (2, 0, -1, 0) crosses H at
        # the vertex (1, 0) on H, which is therefore not extreme
        pts = [(0, 0, 1, 0), (2, 0, -1, 0), (1, 0, 0, 0), (0, 3, 0, 1), (3, 3, 0, -1), (3, -1, 0, 0)]
        pts = [tuple(map(Fraction, p)) for p in pts]
        out = extreme_points(pts, 4)
        assert out == [p for p in pts if p != (1, 0, 0, 0)] == brute_force_extreme(pts, 4)

    def test_block_with_one_vertex(self):
        # block 3 is the single vertex (1, 1, 0, 1), which crosses nothing
        # and is extreme; (1, 1, 1, 0) lies inside block 2's segment and
        # (1, 2) on H inside the triangle on H
        pts = [(0, 0, 0, 0), (4, 0, 0, 0), (0, 4, 0, 0), (1, 1, 2, 0), (1, 1, -1, 0), (1, 1, 0, 1),
               (1, 1, 1, 0), (1, 2, 0, 0)]
        pts = [tuple(map(Fraction, p)) for p in pts]
        out = extreme_points(pts, 4)
        assert out == pts[:6] == brute_force_extreme(pts, 4)

    def test_join_with_a_midpoint_of_one_block(self):
        ext = ngon_extension(random_convex_polygon(random.Random(14), 14))
        u, v = [w for w in ext.vertices if _support(w) == (2,)][:2]
        midpoint = tuple((a + b) / 2 for a, b in zip(u, v))
        out = extreme_points([*ext.vertices, midpoint], ext.dim)
        assert out == list(ext.vertices) == lp_over_all_others(ext.vertices, ext.dim)

    def test_package_heptagons_and_hexagons_match_all_vertex_lp(self, rng, ic6_hexagon, regular_hexagon):
        polytopes = [heptagon_extension(validate(SIX_CROSSING_HEPTAGON))]
        polytopes += [heptagon_extension(random_convex_polygon(rng, 7)) for _ in range(4)]
        polytopes.append(hexagon_extension5(regular_hexagon, hexagon_ic(regular_hexagon)))
        polytopes.append(SectionedPolytope(3, [(x, y, 0) for x, y in ic6_hexagon.vertices], ic6_hexagon))
        for s in polytopes:
            assert extreme_points(s.vertices, s.dim) == lp_over_all_others(s.vertices, s.dim)

    @pytest.mark.parametrize("n", range(8, 36, 3))
    def test_package_ngons_match_all_vertex_lp(self, n):
        # every remainder n mod 7 from 0 to 6, in both constructions
        polygon = random_convex_polygon(random.Random(n), n)
        for s in (ngon_extension(polygon), ngon_3d_extension(polygon)):
            assert extreme_points(s.vertices, s.dim) == lp_over_all_others(s.vertices, s.dim)

    def test_join_lps_are_block_sized(self, monkeypatch):
        # one LP per distinct vertex, each in its block's (x, y, z_j);
        # over all the other vertices each point would have 6 coordinates
        ext = ngon_extension(random_convex_polygon(random.Random(1), 28))
        calls = count_calls(monkeypatch, sections_module, "convex_coefficients")
        extreme_points(ext.vertices, ext.dim)
        assert ext.dim == 6 and len(calls) == 24
        assert all(len(point) <= 3 for point, _ in calls)

    def test_one_block_is_not_crossed(self, monkeypatch, rng):
        ext = heptagon_extension(random_convex_polygon(rng, 7))
        crossings = count_calls(monkeypatch, sections_module, "_section_points")
        lps = count_calls(monkeypatch, sections_module, "convex_coefficients")
        assert len(extreme_points(ext.vertices, 3)) == 6
        assert crossings == [] and len(lps) == 6

    def test_scale_guard(self):
        pts = [tuple(Fraction(k + j) for j in range(5)) for k in range(65)]
        with pytest.raises(ScaleExceeded):
            extreme_points(pts, 5)

    def test_single_support_refusal_comes_first(self, monkeypatch):
        # the 120 vertices of a 140-gon join are refused before any
        # crossing or LP, as CLI extend refuses them
        ext = ngon_extension(random_convex_polygon(random.Random(1), 140))
        crossings = count_calls(monkeypatch, sections_module, "_section_points")
        lps = count_calls(monkeypatch, sections_module, "convex_coefficients")
        with pytest.raises(ScaleExceeded):
            extreme_points(ext.vertices, ext.dim)
        assert crossings == [] and lps == []


class TestLiftAndPullback:
    def test_identity_lift(self):
        point = (Fraction(3), Fraction(4), Fraction(5), Fraction(6))
        assert pullback([point], ProjMap2(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == [(3, 4, 5, 6)]

    def test_translation_lift_fixes_transverse_coords(self):
        t = ProjMap2(((1, 0, 5), (0, 1, -2), (0, 0, 1)))
        assert pullback([(Fraction(1), Fraction(1), Fraction(9))], t) == [(6, -1, 9)]

    def test_horizon_hazard(self):
        # the map sending x = -1 to infinity kills points with x = -1 at any height
        t = ProjMap2(((0, 1, 0), (0, 0, 1), (1, 0, 1)))
        with pytest.raises(PullbackUnbounded):
            pullback([(Fraction(-1), Fraction(2), Fraction(5))], t)

    def test_affine_pullback_always_succeeds(self):
        section = validate(TETRA_SECTION)
        s = SectionedPolytope(3, TETRA, section)
        verify_section(s)
        t = ProjMap2(((2, 0, 1), (0, 2, -3), (0, 0, 1)))
        out = SectionedPolytope(3, pullback(s.vertices, t), apply_map(section, t))
        assert verify_section(out) and out.dim == 3 and len(out.vertices) == 4

    def test_adversarial_pullback_unbounded(self):
        s = SectionedPolytope(3, TETRA, validate(TETRA_SECTION))
        verify_section(s)
        # sends the plane x = -1 to infinity: tetrahedron has x in [0, 1],
        # but shift it so the horizon cuts it first
        bad = ProjMap2(((0, 1, 0), (0, 0, 1), (2, 0, -1)))  # horizon x = 1/2
        with pytest.raises(PullbackUnbounded):
            pullback(s.vertices, bad)

    def test_bounded_pullback_rescues_with_shear(self):
        # horizon x = 3/4 clips the base vertex (1,0,-1) but not the section
        # (x <= 1/2 there); a shear with slope in (-3, -1) fixes every sign
        section = validate(TETRA_SECTION)
        s = SectionedPolytope(3, TETRA, section)
        verify_section(s)
        bad = ProjMap2(((0, 1, 0), (0, 0, 1), (-4, 0, 3)))
        with pytest.raises(PullbackUnbounded):
            pullback(s.vertices, bad)
        out = SectionedPolytope(3, bounded_pullback(s.vertices, bad), apply_map(section, bad))
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
            assert bounded_pullback(vertices, planar) == pullback(vertices, planar)
        assert shears == []


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
