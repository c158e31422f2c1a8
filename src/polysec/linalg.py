"""Exact rational linear algebra helpers.

Everything here works over Fraction and is deterministic: fixed pivoting
order, Bland's rule in the simplex, lexicographic tie-breaks.  A separable
system is one triple per constraint, naming its one coordinate.
"""

from __future__ import annotations

from fractions import Fraction
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
        leaving = None
        best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][total] / tab[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            break  # unbounded never happens for Phase I, defensive
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
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][total]
        elif tab[i][total] != 0:
            return None  # degenerate artificial stuck at nonzero, defensive
    return x


def convex_coefficients(
    point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]
) -> Optional[Row]:
    """Nonnegative weights summing to 1 with sum(w_k g_k) = point exactly,
    or None when the point is not in the convex hull of the generators.

    One feasible_nonnegative_solution, deterministic under Bland's rule,
    over the coordinates where the point or some generator is nonzero.  A
    coordinate where all are zero is the row 0 = 0, whose artificial
    variable keeps reduced cost 0 and whose row never has a positive
    entry in an entering column, so it never pivots: dropping it leaves
    every pivot, hence the weights, unchanged, and keeps the LP from
    growing with the square of the dimension.  No generators: None.
    """
    if not generators:
        return None
    rows = [k for k, v in enumerate(point) if v or any(g[k] for g in generators)]
    matrix = [[Fraction(g[k]) for g in generators] for k in rows]
    matrix.append([Fraction(1)] * len(generators))
    rhs = [Fraction(point[k]) for k in rows] + [Fraction(1)]
    return feasible_nonnegative_solution(matrix, rhs)


def in_convex_hull(point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test whether point is a convex combination of the generators."""
    return convex_coefficients(point, generators) is not None


Constraint = tuple[Optional[int], Fraction, Fraction]  # (j, c, rhs): c x_j >= rhs, or 0 >= rhs


def interval_point(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    """Deterministic point of [lo, hi], None marking an open end: the
    midpoint, 1 inside a single finite end, 0 when both ends are open."""
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    return Fraction(0) if hi is None else hi - 1


def fourier_motzkin_point(constraints: Sequence[Constraint], nvars: int) -> Optional[Row]:
    """Pick a deterministic feasible point of a separable system, given as
    triples (j, c, rhs): the constraint c x_j >= rhs with c nonzero, or,
    when j is None, the check 0 >= rhs.  The entries are Fractions.

    Each coordinate takes interval_point of the interval its own constraints
    give.  Fourier-Motzkin elimination combines no two variables of such a
    system, so this is the point it picks with midpoint back-substitution.
    Returns None when the system is infeasible.
    """
    lowers: list[list[Fraction]] = [[] for _ in range(nvars)]
    uppers: list[list[Fraction]] = [[] for _ in range(nvars)]
    for j, c, rhs in constraints:
        if j is not None:
            (lowers if c > 0 else uppers)[j].append(rhs / c)
        elif rhs > 0:
            return None
    lo = [max(bounds, default=None) for bounds in lowers]
    hi = [min(bounds, default=None) for bounds in uppers]
    if any(a is not None and b is not None and a > b for a, b in zip(lo, hi)):
        return None
    return [interval_point(a, b) for a, b in zip(lo, hi)]
