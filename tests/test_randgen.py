import random

import pytest
from hypothesis import given, settings, strategies as st

from polysec import randgen
from polysec.errors import DomainError
from polysec.randgen import random_convex_polygon

from conftest import fractions_made_inside, reference_random_convex_polygon


class CountingRandom(random.Random):
    """A seeded generator that counts its randrange calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def assert_matches_reference(seed: int, n: int) -> None:
    # the same lifts, and the generator left in the same state: a workload
    # draws many polygons from one generator
    rng, ref = random.Random(seed), random.Random(seed)
    assert random_convex_polygon(rng, n).lifts == reference_random_convex_polygon(ref, n).lifts
    assert rng.getstate() == ref.getstate()


class TestRandomConvexPolygon:
    @pytest.mark.parametrize("n", [3, 6, 7, 8, 28, 140])
    def test_matches_fraction_reference(self, n):
        for seed in range(5 if n > 100 else 40):
            assert_matches_reference(seed, n)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32), n=st.integers(3, 64))
    def test_matches_fraction_reference_drawn(self, seed, n):
        assert_matches_reference(seed, n)

    def test_makes_no_fraction(self, monkeypatch):
        made = fractions_made_inside(monkeypatch, randgen, "random_convex_polygon")
        for n in (6, 7, 28):
            assert randgen.random_convex_polygon(random.Random(n), n).n == n
        assert made == []

    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_more_vertices_than_distinct_draws_refused_before_drawing(self, n):
        # only 2^16 - 1 distinct draws exist; no n near that bound is drawn here
        rng = CountingRandom(1)
        with pytest.raises(DomainError):
            random_convex_polygon(rng, n)
        assert rng.draws == 0
        random_convex_polygon(rng, 7)
        assert rng.draws >= 7
