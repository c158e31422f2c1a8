"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Everything is exact: zero tolerated failures throughout.
"""

import random

import pytest

from polysec.compose import lower_bound_3d, ngon_3d_extension, ngon_extension, optimal_even_gon
from polysec.exactgeom import cross, det3, join, meet
from polysec.heptagon import (
    Crossing,
    StandardHeptagon,
    build_standard_extension,
    classify_line,
    find_noncrossing,
    heptagon_extension,
)
from polysec.hexagon import HexNormalForm, build_bipyramid, hexagon_extension5, hexagon_ic
from polysec.polygon import validate
from polysec.randgen import random_convex_polygon, random_hexagon_params
from polysec.slack import factorize_from_section, slack_matrix, verify_factorization

from conftest import (
    AFFINE_REGULAR_HEXAGON,
    SIX_CROSSING_HEPTAGON,
    SIX_VERTEX_HEXAGON,
    extreme_vertices,
    flat_crossing,
    homogeneous,
    incident,
    rank,
    octuple_sums,
    pair_sum,
    point,
    symbol,
    symbolic_octuples,
    symbolic_pair,
)

HEPTAGON_SEED = 20260809
HEPTAGON_COUNT = 1000


@pytest.fixture(scope="module")
def heptagon_pool():
    rng = random.Random(HEPTAGON_SEED)
    return [random_convex_polygon(rng, 7) for _ in range(HEPTAGON_COUNT)]


def report(criterion: str):
    print(f"PASS {criterion}")


@pytest.mark.slow
def test_criterion_1_heptagon_intersection_complexity(heptagon_pool):
    """Every heptagon is a certified section of a 3-polytope with <= 6 vertices."""
    assert lower_bound_3d(7) == 6
    for polygon in heptagon_pool:
        ext = heptagon_extension(polygon)
        assert ext.certified and ext.dim == 3
        assert ext.claimed == polygon
        assert len(extreme_vertices(ext.vertices, 3)) <= 6
    report(f"criterion 1: {HEPTAGON_COUNT} heptagons -> certified 3D extensions "
           "with <= 6 extreme points (lower bound 6: complexity is exactly 6)")


def test_criterion_1_gadget_crossings_proved():
    """The shipped heptagon core, on symbols: for any parameters and K,
    as integer pairs, the nine crossings of H by the segments from the
    three rows above it to the three below are the seven standard
    vertices and the two points (a, b + lam) and (c + mu, d), as
    polynomial identities (the cross product of two homogeneous triples
    vanishes, and no weight is the zero polynomial).

    With b, c < 0 < a, d, lam, mu and K > lam - 1, mu - 1, 0, every row
    weight is positive and the three rows after (0, 0, 1) lie above H
    exactly when they have Z > 0, so each crossing is a point."""
    a, b, c, d, lam, mu, k = map(symbolic_pair, ("a", "b", "c", "d", "lam", "mu", "K"))
    rows = build_standard_extension(StandardHeptagon(a, b, c, d, lam, mu), k)
    zero, one = (0, 1), (1, 1)
    expected = {  # (row above, row below): the point
        (0, 1): (zero, zero), (0, 2): (one, zero), (0, 3): (zero, one),
        (4, 1): (a, b), (4, 2): (pair_sum(a, lam), b), (4, 3): (a, pair_sum(b, lam)),
        (5, 1): (c, d), (5, 2): (pair_sum(c, mu), d), (5, 3): (c, pair_sum(d, mu)),
    }
    for (i, j), (x, y) in expected.items():
        crossing = flat_crossing(rows[i], rows[j])
        assert crossing[2] != 0
        assert cross(crossing, homogeneous(x, y)) == (0, 0, 0)
    report("criterion 1: the nine crossings of the shipped heptagon core proved "
           "for symbolic parameters and K")


def test_criterion_1_extra_crossings_inside_proved():
    """The two crossings (a, b + lam) and (c + mu, d) of the shipped
    heptagon core lie strictly inside the standard heptagon: their 14 edge
    turns, as polynomial identities, are sums of terms of known sign.

    D(i, j) is the turn of vertex j against edge (i, i+1), < 0 for every
    vertex off the edge of a strictly convex clockwise heptagon, and
    b, c < 0 < a, d, lam, mu (heptagon._read_standard), so a term with an
    odd number of negative factors is negative.  The parameters are
    symbols over 1 and K a symbolic pair; each crossing is
    W (x, y, 1) with W its weight (criterion 1's proof above)."""
    a, b, c, d, lam, mu = syms = [symbol(n) for n in ("a", "b", "c", "d", "lam", "mu")]
    rows = build_standard_extension(StandardHeptagon(*[(v, 1) for v in syms]), symbolic_pair("K"))
    p = [(0, 0, 1), (c, d, 1), (c, d + mu, 1), (0, 1, 1), (1, 0, 1), (a + lam, b, 1), (a, b, 1)]
    negative = {"b": b, "c": c, "-1": -1}
    negative.update({f"D{i}{j}": det3(p[i], p[(i + 1) % 7], p[j])
                     for i in range(7) for j in range(7) if j not in (i, (i + 1) % 7)})
    positive = {"a": a, "d": d, "lam": lam, "mu": mu, "-b": -b, "-c": -c}
    certificates = {  # crossing (row above, row below): its turns against edges 0..6
        (4, 3): ["D06 + c lam", "D16", "a D24 + -c D35", "D35", "lam D35", "-1 lam lam", "-1 a lam"],
        (5, 2): ["-1 d mu", "-1 mu mu", "mu D24", "D32", "d D35 + -b D24", "D51", "D61 + b mu"],
    }
    for (i, j), turns in certificates.items():
        crossing = flat_crossing(rows[i], rows[j])
        for edge, certificate in enumerate(turns):
            total = 0
            for term in certificate.split(" + "):
                value = 1
                factors = term.split()
                assert sum(f in negative for f in factors) % 2 == 1
                for f in factors:
                    value = value * (negative[f] if f in negative else positive[f])
                total = total + value
            assert det3(p[edge], p[(edge + 1) % 7], crossing) == crossing[2] * total
    report("criterion 1: the two extra crossings of the shipped heptagon core lie "
           "strictly inside, by 14 sign certificates proved on symbols")


def test_criterion_2_noncrossing_existence_and_compatibility(heptagon_pool):
    """A non-crossing standardization line always exists; +-crossing at i
    excludes --crossing at i - 3."""
    pairs = 0
    for polygon in heptagon_pool:
        index = find_noncrossing(polygon)
        kinds = [classify_line(polygon, i) for i in range(7)]
        assert kinds[index] is Crossing.NON_CROSSING
        for i in range(7):
            pairs += 1
            assert not (kinds[i] is Crossing.PLUS_CROSSING
                        and kinds[(i - 3) % 7] is Crossing.MINUS_CROSSING)
    assert pairs == 7 * HEPTAGON_COUNT
    report(f"criterion 2: non-crossing line found for all {HEPTAGON_COUNT} heptagons; "
           f"compatibility holds on {pairs} (heptagon, index) pairs")


def test_criterion_3_determinant_identity():
    """The cyclic determinant identity and all sub-identities, proved as
    polynomial identities in the coordinates of seven arbitrary (not
    necessarily convex) points, on the octuples of the shipped _octuple."""
    octs = symbolic_octuples()
    sum_ab, sum_cd, sum_ef, sum_gh = octuple_sums(octs)
    assert sum_ab - sum_cd + sum_ef - sum_gh == 0
    assert sum_ab == sum_gh and sum_ef == sum_cd
    for i in range(7):
        assert octs[i].c == octs[(i - 2) % 7].e
        assert octs[i].d + octs[(i - 3) % 7].c == \
            octs[(i - 2) % 7].f + octs[(i + 1) % 7].e
    report("criterion 3: determinant identity, both halves and both index "
           "identities proved as polynomial identities in the 14 coordinates")


def test_criterion_4_six_crossing_heptagon():
    """The published heptagon with six crossing standardization lines."""
    polygon = validate(SIX_CROSSING_HEPTAGON)
    kinds = [classify_line(polygon, i) for i in range(7)]
    assert sum(k is not Crossing.NON_CROSSING for k in kinds) == 6
    assert kinds.count(Crossing.NON_CROSSING) == 1
    # the mirror symmetry makes two of the six crossing lines coincide
    # (published indices 2 and -2; canonical 6 and 2)
    from polysec.heptagon import std_points

    assert cross(std_points(polygon, 6).line, std_points(polygon, 2).line) == (0, 0, 0)
    ext = heptagon_extension(polygon)
    assert ext.certified and len(extreme_vertices(ext.vertices, 3)) == 6
    report("criterion 4: six-crossing heptagon has exactly 6 crossing lines, "
           "one coincident mirror pair, and a certified 6-vertex extension")


def test_criterion_5_bipyramid_crossings_proved():
    """The shipped bipyramid core, on symbols: for any normal-form
    parameters and K, as integer pairs, the six crossings of H by the
    segments from the three rows above it to the two below are the six
    normal-form vertices, as polynomial identities.  With K > alpha,
    beta, gamma > 1 and x, y > 0, every row weight is positive."""
    alpha, beta, gamma, x, y, k = map(symbolic_pair, ("alpha", "beta", "gamma", "x", "y", "K"))
    rows = build_bipyramid(HexNormalForm(alpha, beta, gamma, x, y, False, None), k)
    zero, one = (0, 1), (1, 1)
    beta_x, beta_y = (beta[0] * x[0], beta[1] * x[1]), (beta[0] * y[0], beta[1] * y[1])
    expected = {  # (row above, row below): the point
        (2, 0): (gamma, zero), (2, 1): (one, zero), (3, 0): (beta_x, beta_y),
        (3, 1): (x, y), (4, 0): (zero, alpha), (4, 1): (zero, one),
    }
    for (i, j), (px, py) in expected.items():
        crossing = flat_crossing(rows[i], rows[j])
        assert crossing[2] != 0
        assert cross(crossing, homogeneous(px, py)) == (0, 0, 0)
    report("criterion 5: the six crossings of the shipped bipyramid core proved "
           "for symbolic parameters and K")


def test_criterion_5_hexagon_dichotomy():
    """Hexagons decide to complexity 5 (certified bipyramid) or 6."""
    regular = validate(AFFINE_REGULAR_HEXAGON)
    assert hexagon_ic(regular).ic == 5
    ext = hexagon_extension5(regular)
    assert ext.certified and len(extreme_vertices(ext.vertices, 3)) == 5
    below = [v for v in ext.vertices if v[2] < 0]
    above = [v for v in ext.vertices if v[2] > 0]
    pair = below if len(below) == 2 else above
    u, v = pair
    direction = (v[0] - u[0], v[1] - u[1], v[2] - u[2])
    assert direction[2] == 0
    pts = regular.vertices
    edge_dirs = [(pts[(i + 1) % 6][0] - pts[i][0], pts[(i + 1) % 6][1] - pts[i][1])
                 for i in range(6)]
    assert any(direction[0] * ey - direction[1] * ex == 0 for ex, ey in edge_dirs)

    assert hexagon_ic(validate(SIX_VERTEX_HEXAGON)).ic == 6

    rng = random.Random(90210)
    fives = sixes = 0
    for trial in range(200):
        if trial % 2 == 0:
            polygon = random_convex_polygon(rng, 6)
        else:
            alpha, beta, gamma, x, y = random_hexagon_params(rng)
            polygon = validate([(0, alpha), (beta * x, beta * y), (gamma, 0),
                                (1, 0), (x, y), (0, 1)])
        decision = hexagon_ic(polygon)
        assert decision.ic in (5, 6)
        if decision.ic == 5:
            fives += 1
            ext = hexagon_extension5(polygon)
            assert ext.certified
            assert len(extreme_vertices(ext.vertices, 3)) == 5
        else:
            sixes += 1
    assert fives >= 100  # every constructed witness hexagon certifies
    report(f"criterion 5: dichotomy holds on 200 fuzzed hexagons "
           f"({fives} certified at 5, {sixes} at 6), regular and perturbed "
           "hexagons behave as published")


def test_criterion_6_general_ngon_bounds():
    """3D extensions with <= n-1 vertices; joins with dimension 2+floor(n/7)
    and <= ceil(6n/7) vertices."""
    rng = random.Random(61803)
    for n in (8, 10, 13, 14, 16, 21):
        polygon = random_convex_polygon(rng, n)
        flat = ngon_3d_extension(polygon)
        assert flat.certified and flat.dim == 3
        assert len(extreme_vertices(flat.vertices, 3)) <= n - 1
        assert flat.claimed == polygon
        joined = ngon_extension(polygon)
        assert joined.certified
        assert joined.dim == 2 + n // 7
        assert len(joined.vertices) <= -((6 * n) // -7)
        assert joined.claimed == polygon
        if n == 14:
            assert joined.dim == 4 and len(joined.vertices) <= 12
        if n == 21:
            assert joined.dim == 5 and len(joined.vertices) <= 18
    report("criterion 6: n in {8,10,13,14,16,21}: certified 3D (<= n-1 vertices) "
           "and join (dim 2+floor(n/7), <= ceil(6n/7) vertices) extensions")


def test_criterion_7_lower_bound_tightness():
    """Stacked 3-polytopes with m+2 vertices cutting out 2m-gons."""
    for m in range(2, 7):
        s = optimal_even_gon(m)
        assert s.certified
        assert s.claimed.n == 2 * m
        count = len(extreme_vertices(s.vertices, 3))
        assert count == m + 2 == lower_bound_3d(2 * m)
    report("criterion 7: optimal even-gon witnesses for m = 2..6 match the "
           "3-dimensional lower bound exactly")


def test_criterion_8_nonnegative_rank():
    """Exact nonnegative slack factorizations with inner dimension at most
    ceil(6n/7), slack rank exactly 3."""
    rng = random.Random(31415)
    for _ in range(100):
        polygon = random_convex_polygon(rng, 7)
        sm = slack_matrix(polygon)
        assert rank(sm) == 3
        ext = heptagon_extension(polygon)
        fact = factorize_from_section(polygon, ext)
        assert fact.inner_dim <= 6
        assert verify_factorization(sm, fact)
    for n in (14, 16):
        polygon = random_convex_polygon(rng, n)
        sm = slack_matrix(polygon)
        assert rank(sm) == 3
        ext = ngon_extension(polygon)
        fact = factorize_from_section(polygon, ext)
        assert fact.inner_dim <= -((6 * n) // -7)
        assert verify_factorization(sm, fact)
    report("criterion 8: 100 heptagons and n in {14, 16} factor exactly with "
           "inner dimension <= ceil(6n/7); slack rank 3 throughout")


def test_criterion_9_kernel_identities():
    """Cross-product expansion and join/meet incidence, 10000 instances each."""
    rng = random.Random(2718)

    def raw_point():
        return (rng.randrange(-60, 61), rng.randrange(-60, 61), 1)

    for _ in range(10000):
        a, b, c, d = (raw_point() for _ in range(4))
        lhs = cross(cross(a, b), cross(c, d))
        abd, abc = det3(a, b, d), det3(a, b, c)
        assert lhs == tuple(abd * c[k] - abc * d[k] for k in range(3))

    checked = 0
    while checked < 10000:
        pa, pb, pc = (point(*raw_point()) for _ in range(3))
        if pa == pb or pa == pc:
            continue
        line = join(pa, pb)
        assert incident(line, pa) and incident(line, pb)
        assert (det3(pa, pb, pc) == 0) == incident(line, pc)
        if det3(pa, pb, pc) != 0:
            assert meet(join(pa, pb), join(pa, pc)) == pa
        checked += 1
    report("criterion 9: cross-product expansion and join/meet incidence hold "
           "exactly on 10000 random instances each")
