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
  them.  Entry (i, k) of R is that functional at generator k.
- C (column factor): each polygon vertex is an exact convex combination
  of polytope vertices that lands on H, so the polygon lies in the
  section.  A vertex on H or a crossing of H by a vertex segment is read
  off with no search, any other polygon vertex by one linear program
  (sections._claim_columns, which verify uses too).

Every entry of S, R and C is held as an integer pair (N, D), D > 0, the
rational N/D, not reduced; C's come from sections._section_columns.
With L_i = (X_i, Y_i, W_i) the rows of the
polygon's vertices (Polygon.lifts) and l_i = cross(L_i, L_{i+1}),
l_i . (x, y, 1) = det(L_i, L_{i+1}, (x, y, 1)), so
S_ij = (-l_i . L_j, W_i W_{i+1} W_j).  At the row (X, Y, Z, W) of
generator k (SectionedPolytope.rows), R_ik starts from the pair
(-l_i . (X, Y, W), W_i W_{i+1}) and adds c_ij Z_j = (p_j Z_j, q_j) for
each coordinate j of the support of the row, its nonzero coordinates off
H, by cross-multiplication, the denominator then multiplied by W.  Only
the denominators of the c_ij on that support enter: on a file with
blocks the support is one coordinate, read off s.blocks, and
R_ik = (W_i W_{i+1} p_j Z_j - q_j l_i . (X, Y, W), q_j W_i W_{i+1} W).
One common denominator for c_i would put the lcm of all of them into
every entry.  Each pair is a ratio in which a positive multiple of any of
the rows cancels, so it reads the same value off any representatives.
The c_ij are pairs too, from the midpoint rule of the Fourier-Motzkin
point on pairs (linalg._fourier_motzkin_pairs); only the edge LP of the
multi-coordinate supports solves in Fractions, as does the LP of a
claimed vertex that is no point of the section (sections._claim_columns).
A Fraction is formed only where a library user reads one: slack_matrix,
extend_facet_inequality, SlackFactorization.r_factor and c_factor.

The product is checked exactly, once, in integers: each entry of R * C
sums only over the nonzero entries of its column of C and is compared
with S by cross-multiplication (verify_factorization).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Optional, Sequence, Union

from .errors import CertificationFailure, DomainError, NoExtension, NotInPolytope
from .exactgeom import cross
from .linalg import Pair, _fourier_motzkin_pairs
from .polygon import Polygon
from .sections import SectionedPolytope, _claim_columns, _distinct_rows, _support, edge_extension

__all__ = [
    "SlackFactorization",
    "slack_matrix",
    "extend_facet_inequality",
    "factorize_from_section",
    "verify_factorization",
]

Matrix = tuple[tuple[Fraction, ...], ...]
PairMatrix = tuple[tuple[Pair, ...], ...]


class SlackFactorization:
    """Exact nonnegative factors with R * C = S and unit column sums in C.

    R and C are held as r_pairs and c_pairs, the integer pair (N, D) of
    each entry (module docstring); their Fraction views r_factor and
    c_factor are derived on first read, for library users.  The keyword
    constructor takes R and C as Fraction matrices (ints too)."""

    def __init__(self, r_factor: Matrix, c_factor: Matrix):
        self.r_pairs, self.c_pairs = [tuple(tuple(v.as_integer_ratio() for v in row) for row in m)
                                      for m in (r_factor, c_factor)]
        self.r_factor, self.c_factor = r_factor, c_factor

    @classmethod
    def _of_pairs(cls, r_pairs: PairMatrix, c_pairs: PairMatrix) -> SlackFactorization:
        fact = cls.__new__(cls)
        fact.r_pairs, fact.c_pairs = r_pairs, c_pairs
        return fact

    @cached_property
    def r_factor(self) -> Matrix:
        """Fraction(N, D) of each pair of r_pairs."""
        return _fractions(self.r_pairs)

    @cached_property
    def c_factor(self) -> Matrix:
        """Fraction(N, D) of each pair of c_pairs."""
        return _fractions(self.c_pairs)

    @property
    def inner_dim(self) -> int:
        return len(self.r_pairs[0]) if self.r_pairs else 0


def _edge_values(polygon: Polygon, i: int, points: Sequence[tuple],
                 supports: Optional[Sequence[tuple[int, ...]]] = None, tail: Sequence[Pair] = ()) -> tuple:
    """The pair of R_ik (module docstring) at each point, a row or a lift,
    with tail the pairs (p, q) of c_i and supports[k] the coordinates j off
    H where points[k] is nonzero, whose c_ij is tail[j - 2]; with no
    supports every point is on H, and these are the pairs of S_i."""
    p, q = polygon.lifts[i], polygon.lifts[(i + 1) % polygon.n]
    (a, b, c), m = cross(p, q), p[2] * q[2]
    out = []
    for g, support in zip(points, supports or repeat(())):
        num, den = -(a * g[0] + b * g[1] + c * g[-1]), m
        for j in support:  # plus c_ij Z_j
            cp, cq = tail[j - 2]
            num, den = num * cq + cp * g[j] * den, den * cq
        out.append((num, den * g[-1]))
    return tuple(out)


def _slack_pairs(polygon: Polygon) -> PairMatrix:
    """The slack matrix as integer pairs (module docstring): row i holds
    the slack of each vertex in the inequality of edge (i, i+1)."""
    return tuple(_edge_values(polygon, i, polygon.lifts) for i in range(polygon.n))


def _fractions(pairs: PairMatrix) -> Matrix:
    """The Fraction view of a matrix of integer pairs."""
    return tuple(tuple([Fraction(n, d) for n, d in row]) for row in pairs)


def slack_matrix(polygon: Polygon) -> Matrix:
    """Row i holds the slack of each vertex in the inequality of edge (i, i+1)."""
    return _fractions(_slack_pairs(polygon))


def _extension_pairs(facet: int, s: SectionedPolytope) -> list[Pair]:
    """extend_facet_inequality with each free coefficient an integer pair
    (N, D), D > 0, in lowest terms (module docstring)."""
    polygon = s.claimed
    facet %= polygon.n
    if s.blocks is not None:
        p, q = polygon.lifts[facet], polygon.lifts[(facet + 1) % polygon.n]
        (a, b, c), m = cross(p, q), p[2] * q[2]
        constraints = []
        for row, j in zip(s.rows, s.blocks):
            rhs = a * row[0] + b * row[1] + c * row[-1]
            constraints.append((None, 0, rhs) if j is None else (j - 2, m * row[j], rhs))
        tail = _fourier_motzkin_pairs(constraints, s.dim - 2)
    else:
        tail = edge_extension(polygon, facet, list(_distinct_rows(s.rows, s.dim)))
        tail = None if tail is None else [v.as_integer_ratio() for v in tail]
    if tail is None:
        raise NoExtension(f"no nonnegative extension for facet {facet}")
    return tail


def extend_facet_inequality(facet: int, s: SectionedPolytope) -> tuple[Fraction, ...]:
    """Free coefficients c on coordinates 3..d that extend the facet slack
    of the claimed polygon to all of the polytope, a tuple of s.dim - 2,
    read off the rows of s: the Fractions of _extension_pairs, which
    factorize_from_section reads.

    For the facet inequality a . x <= b, the functional
    b - a . x[:2] + c . x[2:] is the planar slack on H and is nonnegative
    at every polytope vertex; factorize_from_section evaluates it at each
    generator, over the denominators of the c_j on the generator's own
    support (module docstring).  When no vertex has two nonzero
    coordinates off H (s.blocks is not None), vertex v of block j bounds
    coefficient j alone: linalg._fourier_motzkin_pairs takes the integer
    triple (j - 2, W_f W_{f+1} Z_j, l_f . (X, Y, W)) of its row (module
    docstring), or (None, 0, l_f . (X, Y, W)) on H, and the midpoint of
    each coefficient's interval, as an integer pair; otherwise they come
    from the edge LP over the distinct rows of s (sections._distinct_rows,
    sections.edge_extension).  NoExtension when there are none.
    """
    return tuple([Fraction(n, d) for n, d in _extension_pairs(facet, s)])


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
    (_extension_pairs), at each generator g: b - a . g[:2] plus
    c . g[2:], as integer pairs (module docstring).  A generator's support
    is its block (s.blocks), or, when some vertex has two nonzero
    coordinates off H, scanned once per factorization.

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
    gens = list(distinct)
    if s.blocks is not None:
        supports = [() if s.blocks[k] is None else (s.blocks[k],) for k in distinct.values()]
    else:
        supports = list(map(_support, gens))
    r_pairs = tuple(
        _edge_values(polygon, i, gens, supports, _extension_pairs(i, s))
        for i in range(polygon.n))
    c_pairs = tuple(tuple(col.get(k, (0, 1)) for col in c_cols) for k in range(len(distinct)))
    fact = SlackFactorization._of_pairs(r_pairs, c_pairs)
    if not verify_factorization(_slack_pairs(polygon), fact):
        raise CertificationFailure("factor product failed to reproduce the slack matrix")
    return fact


def verify_factorization(sm: Union[Matrix, PairMatrix], fact: SlackFactorization) -> bool:
    """Exact check: factors nonnegative and R * C equals the slack matrix.

    sm holds Fractions or ints (slack_matrix), or integer pairs (N, D),
    D > 0 (module docstring).  R and C are read as their pairs, so no
    Fraction is formed and no gcd taken: each factor entry is nonnegative
    when its numerator is, and each
    product entry sums over the nonzero entries of its C column only, which
    omits exactly the zero terms, into one unreduced pair compared with
    S_ij by cross-multiplication, one integer equality.
    """
    r, c = fact.r_pairs, fact.c_pairs
    n = len(sm)
    if (len(r) != n or any(len(row) != len(c) for row in r)
            or any(len(row) != n for row in c) or any(len(row) != n for row in sm)):
        return False
    if any(v < 0 for row in r for v, _ in row):
        return False
    columns = [[] for _ in range(n)]  # the nonzero entries (k, p, q) of each column of C
    for k, row in enumerate(c):
        for column, (wp, wq) in zip(columns, row):
            if wp:
                if wp < 0:
                    return False
                column.append((k, wp, wq))
    for ri, si in zip(r, sm):
        for sv, column in zip(si, columns):
            num, den = 0, 1
            for k, wp, wq in column:
                rn, rd = ri[k]
                num, den = num * rd * wq + rn * wp * den, den * rd * wq
            sn, sd = sv if type(sv) is tuple else sv.as_integer_ratio()
            if num * sd != sn * den:
                return False
    return True
