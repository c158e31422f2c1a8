"""Exact rational linear algebra helpers.

Everything here is deterministic: fixed pivoting order, Bland's rule in
the simplex, lexicographic tie-breaks.  The eliminations and the simplex
work over Fraction.  A separable system is one triple per constraint,
naming its one coordinate; its point is found on integer pairs (N, D),
D > 0 (_fourier_motzkin_pairs, _interval_pair, the one midpoint rule),
which the slack layer and the shear of sections.bounded_pullback read,
and fourier_motzkin_point and interval_point are their Fraction views.

Convex combinations run on integer columns (_nonnegative_combination), the
rows (W g, W) of the points (exactgeom._row) that callers hold: mu >= 0
with sum mu_k (W_k g_k, W_k) = (W_p p, W_p) gives the weights
w_k = mu_k W_k / W_p.  Scaling column j by D_j > 0 and the right-hand side by
s > 0 multiplies each reduced cost d_j by D_j (the Phase-I costs sit on the
unscaled artificials) and each ratio in entering column j by s / D_j, so
Bland's rule makes every choice as before.  Scaling a row reweighs its
artificial in the Phase-I objective, which can change the pivots, so the
edge LP (sections.edge_extension) keeps its rows in the affine values
Z/W that its integer rows give.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

Row = list[Fraction]


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Row]:
    """Solve A x = b exactly by Gaussian elimination.

    Returns None when the system is inconsistent or the solution is not
    unique (rank-deficient square / underdetermined systems).
    """
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivot_cols) < n:
        return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n]
    return x


def feasible_nonnegative_solution(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[Row]:
    """Find x >= 0 with A x = b exactly, or None if infeasible.

    Phase-I simplex with Bland's rule (smallest-index entering and leaving
    variable), which terminates on every input.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [[Fraction(v) for v in row] for row in matrix]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    # tableau columns: n structural + m artificial, basis starts artificial
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    total = n + m
    # objective: minimize sum of artificials; reduced costs under current basis
    cost = [Fraction(0)] * (total + 1)
    for j in range(n, n + m):
        cost[j] = Fraction(1)
    for i in range(m):
        cost = [c - t for c, t in zip(cost, tab[i])]
    while True:
        entering = next((j for j in range(total) if cost[j] < 0), None)
        if entering is None:
            break
        # Phase I is bounded below by 0, so some entry of the entering column is positive
        leaving = None
        best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][total] / tab[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        pv = tab[leaving][entering]
        tab[leaving] = [v / pv for v in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [u - f * v for u, v in zip(tab[i], tab[leaving])]
        f = cost[entering]
        if f != 0:
            cost = [u - f * v for u, v in zip(cost, tab[leaving])]
        basis[leaving] = entering
    objective = -cost[total]
    if objective != 0:
        return None
    # objective 0 forces every artificial variable, basic ones too, to 0
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][total]
    return x


def _nonnegative_combination(point: Sequence[int], columns: Sequence[Sequence[int]]) -> Optional[Row]:
    """mu >= 0 with sum(mu_k columns[k]) = point, or None, for integer vectors,
    positive weight last: one feasible_nonnegative_solution without entries
    zero in all, rows 0 = 0 whose artificial keeps reduced cost 0 and which
    never pivot.  No column: None."""
    if not columns:
        return None
    rows = [k for k, v in enumerate(point) if v or any(c[k] for c in columns)]
    return feasible_nonnegative_solution([[c[k] for c in columns] for k in rows], [point[k] for k in rows])


Constraint = tuple[Optional[int], Fraction, Fraction]  # (j, c, rhs): c x_j >= rhs, or 0 >= rhs
Pair = tuple[int, int]  # (N, D), D > 0: the rational N/D, in any terms


def _interval_pair(lo: Optional[Pair], hi: Optional[Pair]) -> Pair:
    """The one midpoint rule, on integer pairs: the deterministic point of
    [lo, hi], None marking an open end, is the midpoint, 1 inside a single
    finite end, 0 when both ends are open; in lowest terms, one gcd, so
    that the products it enters stay small."""
    if lo is not None and hi is not None:
        num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    elif lo is not None:
        num, den = lo[0] + lo[1], lo[1]
    else:
        num, den = (0, 1) if hi is None else (hi[0] - hi[1], hi[1])
    g = gcd(num, den)
    return num // g, den // g


def interval_point(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    """_interval_pair of Fraction or int ends, as a Fraction."""
    return Fraction(*_interval_pair(*[None if v is None else v.as_integer_ratio() for v in (lo, hi)]))


def _fourier_motzkin_pairs(constraints: Sequence[Constraint], nvars: int) -> Optional[list[Pair]]:
    """fourier_motzkin_point on int triples, with each coordinate an
    integer pair (N, D), D > 0, in lowest terms.  Each bound rhs / c is
    kept as the pair (rhs, c), signs turned so that c > 0; bounds are
    compared by cross-multiplication and _interval_pair takes the tightest
    ones, so no Fraction is made."""
    lowers: list[Optional[Pair]] = [None] * nvars
    uppers: list[Optional[Pair]] = [None] * nvars
    for j, c, rhs in constraints:
        if j is None:
            if rhs > 0:
                return None
        elif c > 0:
            lo = lowers[j]
            if lo is None or rhs * lo[1] > lo[0] * c:
                lowers[j] = (rhs, c)
        else:
            hi = uppers[j]
            # -rhs / -c < hi[0] / hi[1]
            if hi is None or rhs * hi[1] > hi[0] * c:
                uppers[j] = (-rhs, -c)
    point = []
    for lo, hi in zip(lowers, uppers):
        if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
            return None
        point.append(_interval_pair(lo, hi))
    return point


def fourier_motzkin_point(constraints: Sequence[Constraint], nvars: int) -> Optional[Row]:
    """Pick a deterministic feasible point of a separable system, given as
    triples (j, c, rhs): the constraint c x_j >= rhs with c nonzero, or,
    when j is None, the check 0 >= rhs.  The entries are ints, or
    Fractions.

    Each coordinate takes the midpoint rule (_interval_pair) of the
    interval its own constraints give.  Fourier-Motzkin elimination
    combines no two variables of such a system, so this is the point it
    picks with midpoint back-substitution.  The Fractions of
    _fourier_motzkin_pairs, which the slack layer reads; None when the
    system is infeasible.
    """
    scaled = []  # each triple times the denominators of c and rhs, in integers
    for j, c, rhs in constraints:
        (cn, cd), (rn, rd) = c.as_integer_ratio(), rhs.as_integer_ratio()
        scaled.append((j, cn * rd, rn * cd))
    point = _fourier_motzkin_pairs(scaled, nvars)
    return None if point is None else [Fraction(n, d) for n, d in point]
