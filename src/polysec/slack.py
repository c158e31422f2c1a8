"""Polygon slack matrices and exact nonnegative factorizations.

A polytope whose section by H is the polygon gives a nonnegative
factorization S = R * C of the polygon's slack matrix (Yannakakis 1991),
with one inner index per distinct polytope vertex.  The factorization is
also the proof that the claimed polygon is the section, in any dimension:

- R (row factor): each facet inequality b - a . x >= 0 of the polygon
  extends, through free coefficients c on coordinates 3..d, to the affine
  functional b - a . x[:2] + c . x[2:], nonnegative at every polytope
  vertex; on H it is the facet's slack, so the section lies in the
  polygon.  Each free coefficient is the midpoint of the interval that
  the vertices of its block bound (SectionedPolytope.blocks), or, when a
  vertex has two nonzero coordinates off H, one linear program gives
  them.  Entry (i, k) of R is that functional at generator k.  With
  L_i = (X_i, Y_i, W_i) the rows of the polygon's vertices (Polygon.lifts)
  and l_i = cross(L_i, L_{i+1}), l_i . (x, y, 1) = det(L_i, L_{i+1}, (x, y, 1)),
  so S_ij = -l_i . L_j / (W_i W_{i+1} W_j), and at the row (X, Y, Z, W) of
  generator k (SectionedPolytope.rows), (D c_i, D) the row of c_i,
  R_ik = (W_i W_{i+1} D c_i . Z - D l_i . (X, Y, W)) / (D W_i W_{i+1} W):
  one integer expression over one denominator, as each Fourier-Motzkin
  bound.  Each is a ratio in which a positive multiple of any of the rows
  cancels, so it reads the same value off any representatives.
- C (column factor): each polygon vertex is an exact convex combination
  of polytope vertices that lands on H, so the polygon lies in the
  section.  A vertex on H or a crossing of H by a vertex segment is read
  off with no search, any other polygon vertex by one linear program
  (sections._claim_columns, which verify uses too).

The product is checked exactly, once, summing only over the nonzero
entries of each column of C.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificationFailure, DomainError, NoExtension, NotInPolytope
from .exactgeom import _row, cross
from .linalg import fourier_motzkin_point
from .polygon import Polygon
from .sections import SectionedPolytope, _claim_columns, _distinct_rows, edge_extension

__all__ = [
    "SlackFactorization",
    "slack_matrix",
    "extend_facet_inequality",
    "factorize_from_section",
    "verify_factorization",
]

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SlackFactorization:
    """Exact nonnegative factors with R * C = S and unit column sums in C."""

    r_factor: Matrix
    c_factor: Matrix

    @property
    def inner_dim(self) -> int:
        return len(self.r_factor[0]) if self.r_factor else 0


def _edge_values(polygon: Polygon, i: int, points: Sequence[tuple], tail: Sequence[Fraction] = ()) -> tuple:
    """R_ik (module docstring) at each point, a row or a lift, with tail as c_i."""
    p, q = polygon.lifts[i], polygon.lifts[(i + 1) % polygon.n]
    (a, b, c), m = cross(p, q), p[2] * q[2]
    *tail, d = _row([ck.as_integer_ratio() for ck in tail])
    return tuple(Fraction(m * sum(ck * zk for ck, zk in zip(tail, g[2:-1]) if zk)
                          - d * (a * g[0] + b * g[1] + c * g[-1]), d * m * g[-1]) for g in points)


def slack_matrix(polygon: Polygon) -> Matrix:
    """Row i holds the slack of each vertex in the inequality of edge (i, i+1)."""
    return tuple(_edge_values(polygon, i, polygon.lifts) for i in range(polygon.n))


def extend_facet_inequality(facet: int, s: SectionedPolytope) -> tuple[Fraction, ...]:
    """Free coefficients c on coordinates 3..d that extend the facet slack
    of the claimed polygon to all of the polytope, a tuple of s.dim - 2,
    read off the rows of s.

    For the facet inequality a . x <= b, the functional
    b - a . x[:2] + c . x[2:] is the planar slack on H and is nonnegative
    at every polytope vertex; factorize_from_section evaluates it at each
    generator.  When no vertex has two nonzero coordinates off H
    (s.blocks is not None), vertex v of block j bounds coefficient j
    alone: fourier_motzkin_point takes the integer triple
    (j - 2, W_f W_{f+1} Z_j, l_f . (X, Y, W)) of its row (module
    docstring), or (None, 0, l_f . (X, Y, W)) on H, and the midpoint of
    each coefficient's interval; otherwise they come from the edge LP over
    the distinct rows of s (sections._distinct_rows, sections.edge_extension).
    NoExtension when there are none.
    """
    polygon = s.claimed
    facet %= polygon.n
    if s.blocks is not None:
        p, q = polygon.lifts[facet], polygon.lifts[(facet + 1) % polygon.n]
        (a, b, c), m = cross(p, q), p[2] * q[2]
        constraints = []
        for row, j in zip(s.rows, s.blocks):
            rhs = a * row[0] + b * row[1] + c * row[-1]
            constraints.append((None, 0, rhs) if j is None else (j - 2, m * row[j], rhs))
        tail = fourier_motzkin_point(constraints, s.dim - 2)
    else:
        tail = edge_extension(polygon, facet, list(_distinct_rows(s.rows, s.dim)))
    if tail is None:
        raise NoExtension(f"no nonnegative extension for facet {facet}")
    return tuple(tail)


def factorize_from_section(polygon: Polygon, s: SectionedPolytope) -> SlackFactorization:
    """Nonnegative factorization of the slack matrix through the section of s.

    s need not be certified: the factorization is the proof.  Every R entry
    is the value at a vertex of a functional that is nonnegative at every
    vertex, and every C column is an exact convex combination of vertices
    that lands on H; together they prove that the polygon is the section of
    the hull of s.rows, in any dimension (module docstring).

    The generators are the distinct vertices of s in file order, so the
    inner dimension is their count.  C comes first, from the columns verify
    uses (sections._claim_columns), so a file past the pair bound is
    refused before any row of R.  Column j is read off the section when
    polygon vertex j is a generator on H or a crossing of H by a generator
    segment, as every vertex of a true claim is when no vertex has two
    nonzero coordinates off H.  In the package's constructions a crossing
    polygon vertex lies in the relative interior of one edge of the
    polytope (in a join, of one edge of one block), so exactly one
    generator segment passes through it and the combination is unique.  On
    other input the first segment in lexicographic (i, j) order is taken,
    and any other vertex costs one exact LP.  Row i of R is the extended
    functional of edge (i, i+1), with free coefficients c
    (extend_facet_inequality), at each generator g: b - a . g[:2] plus
    c . g[2:] (module docstring).

    A claim that is not the section fails: a facet with no nonnegative
    extension raises NoExtension, a vertex outside the polytope
    NotInPolytope.  The product R * C is checked against the slack matrix
    once; a mismatch is a CertificationFailure.
    """
    if s.claimed != polygon:
        raise DomainError("the extension's section is not this polygon")
    distinct = _distinct_rows(s.rows, s.dim)
    c_cols = _claim_columns(s, distinct)
    if c_cols is None:
        raise NotInPolytope("a vertex of the polygon is not in the polytope")
    r_rows = tuple(_edge_values(polygon, i, distinct, extend_facet_inequality(i, s))
                   for i in range(polygon.n))
    zero = Fraction(0)
    c_rows = tuple(tuple(col.get(k, zero) for col in c_cols) for k in range(len(distinct)))
    fact = SlackFactorization(r_factor=r_rows, c_factor=c_rows)
    if not verify_factorization(slack_matrix(polygon), fact):
        raise CertificationFailure("factor product failed to reproduce the slack matrix")
    return fact


def verify_factorization(sm: Matrix, fact: SlackFactorization) -> bool:
    """Exact check: factors nonnegative and R * C equals the slack matrix.

    Each product entry sums over the nonzero entries of its C column only,
    which omits exactly the zero terms.
    """
    r, c = fact.r_factor, fact.c_factor
    n = len(sm)
    if len(r) != n or (r and len(c) != len(r[0])) or any(len(row) != n for row in c):
        return False
    if any(v < 0 for row in r for v in row) or any(v < 0 for row in c for v in row):
        return False
    for j in range(n):
        column = [(k, row[j]) for k, row in enumerate(c) if row[j]]
        for i in range(n):
            if sum(r[i][k] * w for k, w in column) != sm[i][j]:
                return False
    return True
