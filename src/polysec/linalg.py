"""Exact rational linear algebra helpers.

Everything here works over Fraction and is deterministic: fixed pivoting
order, Bland's rule in the simplex, lexicographic tie-breaks.
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


def in_convex_hull(point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test whether point is a convex combination of the generators."""
    if not generators:
        return False
    d = len(point)
    matrix = [[Fraction(g[k]) for g in generators] for k in range(d)]
    matrix.append([Fraction(1)] * len(generators))
    rhs = [Fraction(v) for v in point] + [Fraction(1)]
    return feasible_nonnegative_solution(matrix, rhs) is not None


Constraint = tuple[list[Fraction], Fraction]  # coeffs . x >= rhs


def fourier_motzkin_point(constraints: Sequence[Constraint], nvars: int) -> Optional[Row]:
    """Pick a deterministic feasible point of {x : coeffs . x >= rhs}.

    Variables are eliminated in increasing index order; on back-substitution
    each variable takes the midpoint of its residual feasible interval
    (shifted by 1 off a single finite endpoint, 0 if fully free).
    Returns None when the system is infeasible.
    """
    system = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in constraints]
    eliminated: list[list[Constraint]] = []
    for var in range(nvars):
        lowers, uppers, rest = [], [], []
        for coeffs, rhs in system:
            c = coeffs[var]
            if c > 0:
                lowers.append((coeffs, rhs))
            elif c < 0:
                uppers.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        eliminated.append(lowers + uppers)
        new_system = rest
        for lc, lr in lowers:
            for uc, ur in uppers:
                # combine to remove var: scale by |coefficients|
                a, b = lc[var], -uc[var]
                coeffs = [b * lv + a * uv for lv, uv in zip(lc, uc)]
                new_system.append((coeffs, b * lr + a * ur))
        system = new_system
    for coeffs, rhs in system:
        if rhs > 0:  # 0 >= rhs must fail
            return None
    x = [Fraction(0)] * nvars
    for var in range(nvars - 1, -1, -1):
        lo = hi = None
        for coeffs, rhs in eliminated[var]:
            acc = rhs
            for j in range(var + 1, nvars):
                acc -= coeffs[j] * x[j]
            c = coeffs[var]
            bound = acc / c
            if c > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            if lo > hi:
                return None
            x[var] = (lo + hi) / 2
        elif lo is not None:
            x[var] = lo + 1
        elif hi is not None:
            x[var] = hi - 1
        else:
            x[var] = Fraction(0)
    return x
