"""Seeded generation of exact rational test geometry.

Convex polygons come from rational points on the unit circle via the
tan-half-angle parametrization t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)); distinct
parameters give distinct convex-position points, and sorting by t sorts by
angle, so no retries are needed beyond duplicate draws.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .polygon import Polygon, validate

__all__ = ["random_convex_polygon", "random_hexagon_params"]

_DENOM = 2**16


def _unit_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, _DENOM), _DENOM)


def _circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    t2 = t * t
    return ((1 - t2) / (1 + t2), 2 * t / (1 + t2))


def random_convex_polygon(rng: random.Random, n: int) -> Polygon:
    """Strictly convex n-gon with rational vertices on the unit circle."""
    params: set[Fraction] = set()
    while len(params) < n:
        u = _unit_fraction(rng)
        # monotone rational bijection (0,1) -> R, a stand-in for tan(pi(u-1/2))
        params.add((2 * u - 1) / (2 * u * (1 - u)))
    pts = [_circle_point(t) for t in sorted(params)]
    return validate(pts)


def random_hexagon_params(rng: random.Random) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """Parameters (alpha, beta, gamma, x, y) of a hexagon that is a section
    of a 5-vertex bipyramid, drawn inside the constraint region."""
    while True:
        x = Fraction(rng.randrange(1, 64), 128)
        y = Fraction(rng.randrange(1, 64), 128)
        if x + y < 1:
            break
    alpha = 1 + Fraction(rng.randrange(1, 256), 64)
    gamma = 1 + Fraction(rng.randrange(1, 256), 64)
    beta_min = max(Fraction(1), 1 / (x / gamma + y / alpha))
    beta = beta_min + Fraction(rng.randrange(1, 256), 64)
    return alpha, beta, gamma, x, y
