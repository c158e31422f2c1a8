from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from polysec import linalg
from polysec.linalg import (
    convex_coefficients,
    feasible_nonnegative_solution,
    fourier_motzkin_point,
    in_convex_hull,
    rank,
    solve_linear,
)

from conftest import count_calls


def F(a, b=1):
    return Fraction(a, b)


class TestSolveLinear:
    def test_unique_solution(self):
        x = solve_linear([[1, 1], [1, -1]], [3, 1])
        assert x == [2, 1]

    def test_inconsistent(self):
        assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None

    def test_underdetermined_rejected(self):
        assert solve_linear([[1, 1]], [1]) is None

    def test_overdetermined_consistent(self):
        x = solve_linear([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert x == [2, 3]


class TestRank:
    def test_full(self):
        assert rank([[1, 0], [0, 1]]) == 2

    def test_deficient(self):
        assert rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2


class TestSimplexFeasibility:
    def test_simple_feasible(self):
        x = feasible_nonnegative_solution([[1, 1]], [1])
        assert x is not None and sum(x) == 1 and all(v >= 0 for v in x)

    def test_infeasible_negative_target(self):
        # x1 + x2 = -1 with x >= 0
        assert feasible_nonnegative_solution([[1, 1]], [-1]) is None

    def test_agrees_with_subset_enumeration(self, rng):
        for _ in range(40):
            pts = [tuple(Fraction(rng.randrange(-5, 6)) for _ in range(2)) for _ in range(6)]
            target = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(2))
            fast = in_convex_hull(target, pts)
            slow = False
            for size in range(1, 4):
                for sub in combinations(pts, size):
                    m = [[g[k] for g in sub] for k in range(2)]
                    m.append([Fraction(1)] * size)
                    sol = solve_linear(m, list(target) + [Fraction(1)])
                    if sol is not None and all(w >= 0 for w in sol):
                        slow = True
                        break
                if slow:
                    break
            assert fast == slow


@st.composite
def padded_hull_queries(draw):
    """A point and 1-5 generators in dimension 1-3 with small integer
    coordinates (the point a convex combination of the generators half the
    time), and the slots before which a zero coordinate is padded in."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(Fraction)
    gens = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=5))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens))
                       .filter(any))
        point = tuple(sum(w * g[k] for w, g in zip(weights, gens)) / sum(weights)
                      for k in range(dim))
    else:
        point = draw(st.tuples(*[coord] * dim))
    return point, gens, draw(st.lists(st.integers(0, dim), max_size=4))


def zero_padded(v, slots):
    out = list(v)
    for slot in sorted(slots, reverse=True):
        out.insert(slot, Fraction(0))
    return tuple(out)


class TestConvexCoefficients:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(query=padded_hull_queries())
    def test_zero_coordinates_leave_weights_unchanged(self, query):
        # a coordinate where the point and every generator are zero is a
        # 0 = 0 row, which never pivots under Bland's rule
        point, gens, slots = query
        padded = convex_coefficients(zero_padded(point, slots),
                                     [zero_padded(g, slots) for g in gens])
        assert padded == convex_coefficients(point, gens)

    def test_no_generators(self):
        assert convex_coefficients((Fraction(0),) * 5, []) is None

    def test_lp_skips_coordinates_zero_everywhere(self, monkeypatch):
        # only x is nonzero somewhere: the LP has its row and the sum row,
        # not 3001 rows and as many artificial columns
        lps = count_calls(monkeypatch, linalg, "feasible_nonnegative_solution")
        zeros = (Fraction(0),) * 3000
        point = (Fraction(1, 2), *zeros)
        gens = [(Fraction(0), *zeros), (Fraction(1), *zeros)]
        assert convex_coefficients(point, gens) == [Fraction(1, 2), Fraction(1, 2)]
        [(matrix, rhs)] = lps
        assert len(matrix) == len(rhs) == 2


def reference_fourier_motzkin(constraints, nvars):
    """General Fourier-Motzkin: eliminate in increasing index, then give each
    variable the midpoint of its residual interval on back-substitution
    (shifted by 1 off a single finite endpoint, 0 if free); None if infeasible."""
    system = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in constraints]
    eliminated = []
    for var in range(nvars):
        lowers = [(c, r) for c, r in system if c[var] > 0]
        uppers = [(c, r) for c, r in system if c[var] < 0]
        eliminated.append(lowers + uppers)
        system = [(c, r) for c, r in system if c[var] == 0]
        for lc, lr in lowers:
            for uc, ur in uppers:
                a, b = lc[var], -uc[var]
                system.append(([b * lv + a * uv for lv, uv in zip(lc, uc)], b * lr + a * ur))
    if any(rhs > 0 for _, rhs in system):
        return None
    x = [Fraction(0)] * nvars
    for var in range(nvars - 1, -1, -1):
        lo = hi = None
        for coeffs, rhs in eliminated[var]:
            bound = (rhs - sum(coeffs[j] * x[j] for j in range(var + 1, nvars))) / coeffs[var]
            if coeffs[var] > 0:
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
    return x


@st.composite
def separable_systems(draw):
    """Up to 4 variables and up to 8 triples (j, c, rhs), one in eight of
    them (when there are variables) a constant check (None, 0, rhs), so some
    coordinates are free, some one-sided, and some intervals empty."""
    nvars = draw(st.integers(0, 4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    triples = []
    for _ in range(draw(st.integers(0, 8))):
        if nvars and draw(st.integers(0, 7)):
            j, c = draw(st.integers(0, nvars - 1)), draw(small.filter(bool))
        else:
            j, c = None, Fraction(0)
        triples.append((j, c, draw(small)))
    return triples, nvars


def dense_rows(triples, nvars):
    """The rows (coeffs, rhs) of coeffs . x >= rhs that the triples state."""
    rows = []
    for j, c, rhs in triples:
        coeffs = [Fraction(0)] * nvars
        if j is not None:
            coeffs[j] = c
        rows.append((coeffs, rhs))
    return rows


class TestFourierMotzkin:
    def test_interval_midpoint(self):
        # 1 <= x <= 3 picks x = 2
        point = fourier_motzkin_point([(0, F(1), F(1)), (0, F(-1), F(-3))], 1)
        assert point == [2]

    def test_one_sided(self):
        assert fourier_motzkin_point([(0, F(1), F(5))], 1) == [6]
        assert fourier_motzkin_point([(0, F(-1), F(-5))], 1) == [4]

    def test_free_variable_defaults_to_zero(self):
        assert fourier_motzkin_point([], 1) == [0]
        assert fourier_motzkin_point([(None, F(0), F(0))], 1) == [0]

    def test_infeasible(self):
        constraints = [(0, F(1), F(3)), (0, F(-1), F(0))]  # x >= 3 and x <= 0
        assert fourier_motzkin_point(constraints, 1) is None
        assert fourier_motzkin_point([(None, F(0), F(1))], 1) is None  # 0 >= 1

    def test_two_variables_feasible_point(self, rng):
        # a separable system gets a point that meets every constraint
        feasible = 0
        for _ in range(30):
            constraints = [(rng.randrange(2), F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])),
                            F(rng.randrange(-8, 3))) for _ in range(6)]
            point = fourier_motzkin_point(constraints, 2)
            if point is not None:
                feasible += 1
                assert all(c * point[j] >= rhs for j, c, rhs in constraints)
        assert feasible

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(system=separable_systems())
    def test_matches_general_elimination(self, system):
        triples, nvars = system
        assert fourier_motzkin_point(triples, nvars) == reference_fourier_motzkin(
            dense_rows(triples, nvars), nvars)
