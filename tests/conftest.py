import random
import sys
from dataclasses import fields
from fractions import Fraction
from math import lcm
from typing import Sequence

import pytest
from hypothesis import settings

from polysec import validate
from polysec.errors import DuplicateVertex, ImageNotConvex, NotConvex, TooFewVertices
from polysec.exactgeom import _canonical_int_triple, det3
from polysec.heptagon import DetOctuple, _octuple
from polysec.polygon import Polygon, ProjMap2, _lift

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
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("polysec.") and vars(other).get(name) is original:
            monkeypatch.setattr(other, name, getattr(module, name))
    return calls


def apply_map(polygon: Polygon, t: ProjMap2) -> Polygon:
    """Vertexwise image of the polygon, revalidated.

    The line t sends to infinity must miss the polygon (ProjMap2.apply_affine).
    """
    images, _ = t.apply_affine(polygon.vertices)
    try:
        return validate(images)
    except (NotConvex, DuplicateVertex, TooFewVertices) as exc:
        raise ImageNotConvex(str(exc)) from exc


def point(*coords) -> tuple:
    """The canonical integer triple of the affine point (x, y), or of the
    homogeneous triple (x, y, w), rational coordinates allowed."""
    coords = [Fraction(c) for c in (coords if len(coords) == 3 else (*coords, 1))]
    scale = lcm(*(c.denominator for c in coords))
    return _canonical_int_triple([int(c * scale) for c in coords])


def raw_polygon(points) -> Polygon:
    """A Polygon of the given pairs as they are, not validated."""
    return Polygon(points, [_lift(p) for p in points])


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


def rational_grid_point(r: random.Random, spread: int = 200, denom: int = 32):
    return (Fraction(r.randrange(-spread, spread + 1), denom),
            Fraction(r.randrange(-spread, spread + 1), denom))


class Poly:
    """An integer polynomial: a dict from monomials (sorted tuples of variable
    names, repeated by degree) to nonzero int coefficients, with +, - and *
    against Polys and ints, and evaluation at a dict of values."""

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

    def __call__(self, values: dict):
        total = 0
        for m, c in self.terms.items():
            for name in m:
                c *= values[name]
            total += c
        return total


def symbolic_octuples() -> list:
    """The determinant octuples at indices 0..6 of seven generic affine points
    (x0, y0), ..., (x6, y6), built by the shipped _octuple and det3 on Polys."""
    rows = [(Poly({(f"x{k}",): 1}), Poly({(f"y{k}",): 1}), 1) for k in range(7)]
    return [_octuple(rows, i) for i in range(7)]


def octuple_at(octuple, values: dict) -> DetOctuple:
    """A symbolic octuple evaluated at values."""
    return DetOctuple(*(getattr(octuple, f.name)(values) for f in fields(DetOctuple)))


def octuple_sums(octs) -> tuple:
    """sum(AB), sum(CD), sum(EF) and sum(GH) over seven octuples, the partial
    sums of invariant_sum."""
    return (sum(o.a * o.b for o in octs), sum(o.c * o.d for o in octs),
            sum(o.e * o.f for o in octs), sum(o.g * o.h for o in octs))


def point_values(points) -> dict:
    """The values of x0, y0, ..., x6, y6 at seven affine points."""
    return {f"{axis}{k}": Fraction(c) for k, p in enumerate(points) for axis, c in zip("xy", p)}
