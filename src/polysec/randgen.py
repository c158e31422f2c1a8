"""Seeded generation of exact rational test geometry.

Convex polygons come from rational points on the unit circle via the
tan-half-angle parametrization t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)); distinct
parameters give distinct convex-position points, and sorting by t sorts by
angle, so no retries are needed beyond duplicate draws.

Each parameter comes from a draw a in [1, D), D = 2^16, through
u = a/D and t(u) = (2u-1)/(2u(1-u)) = 1/(2(1-u)) - 1/(2u), a monotone
rational bijection (0, 1) -> R standing in for tan(pi(u-1/2)): both terms
strictly rise with u.  So sorting the distinct draws sorts the parameters,
and distinct draws give distinct points.  Everything is done in integers:
t = p/q with p = D(2a-D) and q = 2a(D-a) > 0, so the point is
(q^2-p^2, 2pq)/(q^2+p^2), and its row (exactgeom._row), the unique
primitive integer triple with W > 0, is (q^2-p^2, 2pq, q^2+p^2) divided by
its gcd.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .polygon import Polygon

__all__ = ["random_convex_polygon", "random_hexagon_params"]

_DENOM = 2**16


def random_convex_polygon(rng: random.Random, n: int) -> Polygon:
    """Strictly convex n-gon with rational vertices on the unit circle.
    Only D - 1 = 65 535 distinct draws exist: DomainError, with nothing
    drawn, for a larger n."""
    if n >= _DENOM:
        raise DomainError(f"at most {_DENOM - 1} distinct vertices can be drawn, got n = {n}")
    draws: set[int] = set()
    while len(draws) < n:
        draws.add(rng.randrange(1, _DENOM))
    lifts = []
    for a in sorted(draws):
        p, q = _DENOM * (2 * a - _DENOM), 2 * a * (_DENOM - a)
        x, y, w = q * q - p * p, 2 * p * q, q * q + p * p
        g = gcd(x, y, w)
        lifts.append((x // g, y // g, w // g))
    return Polygon(lifts)


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
