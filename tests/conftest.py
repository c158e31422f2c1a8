import random
import sys
from fractions import Fraction
from math import lcm
from typing import Sequence

import pytest
from hypothesis import settings

from polysec import validate
from polysec.errors import DuplicateVertex, ImageNotConvex, NotConvex, TooFewVertices
from polysec.exactgeom import _canonical_int_triple, _row, det3
from polysec.heptagon import _octuple
from polysec.linalg import _nonnegative_combination, feasible_nonnegative_solution
from polysec.polygon import Polygon, ProjMap2, convex_hull_2d
from polysec.sections import extreme_points

# every property test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

# the seven-vertex example with six crossing standardization lines,
# in its published labeling (clockwise, starting from the rightmost vertex)
SIX_CROSSING_HEPTAGON = [
    (Fraction(7, 5), Fraction(1, 2)),
    (Fraction(6, 5), Fraction(1, 10)),
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(1)),
    (Fraction(6, 5), Fraction(9, 10)),
]

# canonical labels rotate the published ones by 4: canonical i = published i + 4
PUBLISHED_TO_CANONICAL_SHIFT = 4

AFFINE_REGULAR_HEXAGON = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]

# one vertex of the affine-regular hexagon moved off all three concurrency loci
SIX_VERTEX_HEXAGON = [(0, 0), (1, 0), (2, 1), (Fraction(21, 10), Fraction(23, 10)), (1, 2), (0, 1)]


@pytest.fixture
def obs_heptagon():
    return validate(SIX_CROSSING_HEPTAGON)


@pytest.fixture
def regular_hexagon():
    return validate(AFFINE_REGULAR_HEXAGON)


@pytest.fixture
def ic6_hexagon():
    return validate(SIX_VERTEX_HEXAGON)


@pytest.fixture
def rng():
    return random.Random(20240913)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name for the test; the returned list grows by one per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_calls_everywhere(monkeypatch, module, name: str) -> list:
    """count_calls, also through every polysec module that imported module.name."""
    original = getattr(module, name)
    calls = count_calls(monkeypatch, module, name)
    _rebind_everywhere(monkeypatch, name, original, getattr(module, name))
    return calls


def _rebind_everywhere(monkeypatch, name: str, original, replacement) -> None:
    """Bind name to replacement in every polysec module that binds it to original."""
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("polysec.") and vars(other).get(name) is original:
            monkeypatch.setattr(other, name, replacement)


def fractions_made_inside(monkeypatch, module, name: str) -> list:
    """The arguments of each Fraction made while module.name runs, through
    every polysec module that imported it.  Fraction() goes through
    __new__; from Python 3.12 on, Fraction arithmetic makes its results
    through Fraction._from_coprime_ints, which does not, so that is
    counted too where it exists."""
    made, depth = [], []
    original = getattr(module, name)

    def inside(*args, **kwargs):
        depth.append(None)
        try:
            return original(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(module, name, inside)
    _rebind_everywhere(monkeypatch, name, original, inside)
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        if depth:
            made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    coprime = vars(Fraction).get("_from_coprime_ints")
    if coprime is not None:
        def counted_coprime(cls, numerator, denominator):
            if depth:
                made.append((numerator, denominator))
            return coprime.__func__(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return made


def reference_random_convex_polygon(rng: random.Random, n: int) -> Polygon:
    """The Fraction generator that randgen.random_convex_polygon replaced,
    its oracle: distinct draws u = a / 2^16, a in [1, 2^16), until there
    are n distinct parameters t = (2u - 1) / (2u(1 - u)), then the points
    ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) in increasing t, validated."""
    params = set()
    while len(params) < n:
        u = Fraction(rng.randrange(1, 2**16), 2**16)
        params.add((2 * u - 1) / (2 * u * (1 - u)))
    points = []
    for t in sorted(params):
        t2 = t * t
        points.append(((1 - t2) / (1 + t2), 2 * t / (1 + t2)))
    return validate(points)


def reference_verify_factorization(sm, r, c) -> bool:
    """The product check on Fractions, the oracle of
    slack.verify_factorization: for the slack matrix sm and the factors R
    and C, matrices of Fractions or ints, the shapes n x r and r x n, every
    entry of R and C nonnegative, and the dense sum over k of
    Fraction(R_ik) C_kj equal to S_ij for every i, j."""
    n = len(sm)
    if len(r) != n or any(len(row) != len(c) for row in r) or any(len(row) != n for row in c):
        return False
    if any(v < 0 for factor in (r, c) for row in factor for v in row):
        return False
    return all(sum(Fraction(r[i][k]) * c[k][j] for k in range(len(c))) == sm[i][j]
               for i in range(n) for j in range(n))


def convex_coefficients(point, generators):
    """Nonnegative weights summing to 1 with sum(w_k g_k) = point exactly, or
    None outside conv(generators): one linalg._nonnegative_combination on
    the row (g W, W) of each vector (exactgeom._row), the weights
    mu_k W_k / W_p (linalg module docstring)."""
    if not generators:
        return None
    p, *gens = [_row([Fraction(c).as_integer_ratio() for c in v]) for v in (point, *generators)]
    mu = _nonnegative_combination(p, gens)
    return None if mu is None else [m * g[-1] / p[-1] for m, g in zip(mu, gens)]


def reference_convex_coefficients(point, generators):
    """convex_coefficients on Fraction columns: the coordinates of the point
    and of the generators where one of them is nonzero, and a row of ones,
    as one rational LP.  The integer columns of convex_coefficients must
    give these weights exactly."""
    if not generators:
        return None
    rows = [k for k, v in enumerate(point) if v or any(g[k] for g in generators)]
    matrix = [[Fraction(g[k]) for g in generators] for k in rows]
    matrix.append([Fraction(1)] * len(generators))
    rhs = [Fraction(point[k]) for k in rows] + [Fraction(1)]
    return feasible_nonnegative_solution(matrix, rhs)


def apply_map(polygon: Polygon, t: ProjMap2) -> Polygon:
    """Vertexwise image of the polygon, revalidated.

    The line t sends to infinity must miss the polygon (ProjMap2.apply).
    """
    images = t.apply(polygon.lifts)
    try:
        return validate([vertex_of(image) for image in images])
    except (NotConvex, DuplicateVertex, TooFewVertices) as exc:
        raise ImageNotConvex(str(exc)) from exc


def point(*coords) -> tuple:
    """The canonical integer triple of the affine point (x, y), or of the
    homogeneous triple (x, y, w), rational coordinates allowed."""
    coords = [Fraction(c) for c in (coords if len(coords) == 3 else (*coords, 1))]
    scale = lcm(*(c.denominator for c in coords))
    return _canonical_int_triple([int(c * scale) for c in coords])


def row_of(v) -> tuple:
    """The row of a point of rationals, by Fraction arithmetic: (c W, W) for
    its coordinates c, W the lcm of their denominators; primitive, as a
    prime misses the coordinate whose denominator holds its full power."""
    v = [Fraction(c) for c in v]
    w = lcm(*(c.denominator for c in v))
    return (*(int(c * w) for c in v), w)


def vertex_of(row) -> tuple:
    """The point of a row, as Fractions."""
    return tuple(Fraction(c, row[-1]) for c in row[:-1])


def extreme_vertices(vertices, dim) -> list:
    """extreme_points on the rows of the vertices, read back as points."""
    return [vertex_of(row) for row in extreme_points([row_of(v) for v in vertices], dim)]


def raw_polygon(points) -> Polygon:
    """A Polygon of the given pairs in their given order, not validated."""
    return Polygon([row_of(p) for p in points])


def side(line, p) -> int:
    """Sign of the homogeneous product of a line and a point: 0 when the
    point is on the line, and one nonzero sign per side for points of
    positive weight, such as the lifts of Polygon.vertex."""
    d = sum(a * b for a, b in zip(line, p))
    return (d > 0) - (d < 0)


def map_line_to_infinity(line, polygon: Polygon) -> ProjMap2:
    """An invertible map sending the given line to the line at infinity,
    for building projective images of test polygons.

    The third row is proportional to the line's coordinates, with the sign
    chosen so every polygon vertex maps to w > 0; the other two rows are the
    standard basis rows away from the line's pivot coordinate.  Requires the
    line to miss the polygon (ValueError otherwise).
    """
    sides = {side(line, polygon.vertex(k)) for k in range(polygon.n)}
    if 0 in sides or len(sides) != 1:
        raise ValueError(f"line {line!r} meets the polygon")
    sign = sides.pop()
    l = tuple(sign * v for v in line)
    pivot = next(k for k in range(3) if l[k] != 0)
    basis_rows = [row for k, row in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))) if k != pivot]
    return ProjMap2((basis_rows[0], basis_rows[1], l))


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    rows = [list(map(Fraction, row)) for row in matrix]
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    rk = 0
    for col in range(n):
        pivot = next((i for i in range(rk, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        pv = rows[rk][col]
        for i in range(rk + 1, m):
            if rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
        if rk == m:
            break
    return rk


def incident(line, p) -> bool:
    """Whether the point lies on the line: their homogeneous product is zero."""
    return side(line, p) == 0


def edge_turns(polygon: Polygon, x, y) -> list:
    """The determinant of (p_i, p_{i+1}, (x, y)) along every edge; all
    points have w > 0, so each is the sign of that turn."""
    q = point(x, y)
    return [det3(polygon.vertex(i), polygon.vertex(i + 1), q) for i in range(polygon.n)]


def contains(polygon: Polygon, x, y) -> bool:
    """Point in the closed polygon: clockwise labels put the interior where
    every edge turn is <= 0."""
    return all(d <= 0 for d in edge_turns(polygon, x, y))


def strictly_contains(polygon: Polygon, x, y) -> bool:
    return all(d < 0 for d in edge_turns(polygon, x, y))


def lattice_polygon(r: random.Random, n: int, spread: int = 12) -> Polygon:
    """A strictly convex n-gon with integer vertices: the hull of n to 2n
    points of the square [-spread, spread]^2, drawn until it has n vertices."""
    while True:
        points = {(r.randint(-spread, spread), r.randint(-spread, spread)) for _ in range(r.randint(n, 2 * n))}
        hull = convex_hull_2d(points)
        if len(hull) == n:
            return validate(hull)


def rational_grid_point(r: random.Random, spread: int = 200, denom: int = 32):
    return (Fraction(r.randrange(-spread, spread + 1), denom),
            Fraction(r.randrange(-spread, spread + 1), denom))


class Poly:
    """An integer polynomial: a dict from monomials (sorted tuples of variable
    names, repeated by degree) to nonzero int coefficients, with +, - and *
    against Polys and ints."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def lift(value) -> "Poly":
        return value if isinstance(value, Poly) else Poly({(): value})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in Poly.lift(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.lift(other).terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms


def symbol(name: str) -> Poly:
    """The Poly of one variable."""
    return Poly({(name,): 1})


def symbolic_points(n: int) -> list:
    """The homogeneous triples (x_k, y_k, 1) of n generic affine points."""
    return [(symbol(f"x{k}"), symbol(f"y{k}"), 1) for k in range(n)]


def symbolic_octuples() -> list:
    """The determinant octuples at indices 0..6 of seven generic affine points
    (x0, y0), ..., (x6, y6), built by the shipped _octuple and det3 on Polys."""
    rows = symbolic_points(7)
    return [_octuple(rows, i) for i in range(7)]


def octuple_sums(octs) -> tuple:
    """sum(AB), sum(CD), sum(EF) and sum(GH) over seven octuples, the partial
    sums of the cyclic determinant identity."""
    return (sum(o.a * o.b for o in octs), sum(o.c * o.d for o in octs),
            sum(o.e * o.f for o in octs), sum(o.g * o.h for o in octs))


def symbolic_pair(name: str) -> tuple:
    """The integer pair (N, D) of a symbolic rational: two Poly variables."""
    return symbol(name + "_n"), symbol(name + "_d")


def homogeneous(x, y) -> tuple:
    """The homogeneous triple of the point (x, y), each an integer pair
    (N, D): (x_N y_D, y_N x_D, x_D y_D)."""
    return x[0] * y[1], y[0] * x[1], x[1] * y[1]


def pair_sum(p, q) -> tuple:
    """The pair of the sum of two rationals given as pairs."""
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def flat_crossing(above, below) -> tuple:
    """The homogeneous triple where the segment between two rows
    (X, Y, Z, W) of 3-D points, above H (Z > 0) and below it (Z < 0),
    meets H: |Z_below| (X, Y, W)_above + |Z_above| (X, Y, W)_below, the
    rule of sections._segment_flat_crossing.  Its weight is a sum of
    positive terms whenever both weights are positive."""
    return tuple(-below[2] * above[k] + above[2] * below[k] for k in (0, 1, 3))
