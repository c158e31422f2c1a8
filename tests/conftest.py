import random
from fractions import Fraction

import pytest

from polysec import validate

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


def rational_grid_point(r: random.Random, spread: int = 200, denom: int = 32):
    return (Fraction(r.randrange(-spread, spread + 1), denom),
            Fraction(r.randrange(-spread, spread + 1), denom))
