"""Exact projective-plane kernel.

Points and lines of the projective plane are stored as integer homogeneous
triples.  Any rational triple can be scaled to a canonical integer
representative (denominators cleared, gcd reduced, sign fixed), so all
predicates below are exact and representative-independent.  The sign
convention puts finite points at w > 0; for points/lines at infinity the
first nonzero coordinate is positive.

No floating point is used anywhere in this module.  All values are
immutable and all operations are pure, so they are safe to share across
any number of workers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import AtInfinity, DegenerateJoin, DegenerateMeet, ParseError

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

__all__ = [
    "Scalar",
    "ProjPoint",
    "ProjLine",
    "join",
    "meet",
    "det3",
    "cross",
    "is_finite",
    "dehomogenize",
    "parse_scalar",
    "format_scalar",
]


# Longest accepted rational text.  A "p/q" whose parts both sit at the
# interpreter's 4300-digit int/str conversion limit fits, so every file this
# package writes reads back.
MAX_SCALAR_CHARS = 10_000
# Bound on text length plus decimal exponent magnitude for text with an
# exponent: it keeps the value printable within the 4300-digit limit, and
# without it "1e99999999" makes Fraction build a 10^8-digit integer.
MAX_EXPONENT_DIGITS = 4000


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational.

    Text longer than MAX_SCALAR_CHARS, or with a decimal exponent that
    takes it past MAX_EXPONENT_DIGITS, is rejected with ParseError.
    """
    s = str(text).strip()
    if len(s) > MAX_SCALAR_CHARS:
        raise ParseError(f"rational text longer than {MAX_SCALAR_CHARS} characters")
    try:
        exponent = s.lower().partition("e")[2]
        if exponent and len(s) + abs(int(exponent)) > MAX_EXPONENT_DIGITS:
            raise ParseError(f"exponent of {s[:40]!r} too large")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc


def format_scalar(value: ScalarLike) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


def _canonical_int_triple(coords: Sequence[ScalarLike]) -> tuple[int, int, int]:
    if len(coords) != 3:
        raise ValueError("homogeneous coordinates need exactly 3 entries")
    fracs = [c if isinstance(c, int) else Fraction(c) for c in coords]
    if all(v == 0 for v in fracs):
        raise ValueError("all three homogeneous coordinates are zero")
    denom_lcm = 1
    for v in fracs:
        if not isinstance(v, int):
            d = v.denominator
            denom_lcm = denom_lcm // gcd(denom_lcm, d) * d
    ints = [int(v * denom_lcm) for v in fracs]
    g = gcd(gcd(abs(ints[0]), abs(ints[1])), abs(ints[2]))
    ints = [v // g for v in ints]
    # sign: w > 0 for finite, else first nonzero positive
    if ints[2] != 0:
        if ints[2] < 0:
            ints = [-v for v in ints]
    else:
        lead = ints[0] if ints[0] != 0 else ints[1]
        if lead < 0:
            ints = [-v for v in ints]
    return (ints[0], ints[1], ints[2])


class _HomogeneousTriple:
    __slots__ = ("h",)

    def __init__(self, x: ScalarLike, y: ScalarLike, w: ScalarLike):
        self.h = _canonical_int_triple((x, y, w))

    def __eq__(self, other):
        return type(self) is type(other) and self.h == other.h

    def __hash__(self):
        return hash((type(self).__name__, self.h))

    def __repr__(self):
        return f"{type(self).__name__}{self.h}"


class ProjPoint(_HomogeneousTriple):
    """A point of the projective plane; w = 0 encodes a point at infinity."""

    @classmethod
    def from_affine(cls, x: ScalarLike, y: ScalarLike) -> "ProjPoint":
        return cls(x, y, 1)

    @property
    def is_finite(self) -> bool:
        return self.h[2] != 0

    def dehomogenize(self) -> tuple[Fraction, Fraction]:
        x, y, w = self.h
        if w == 0:
            raise AtInfinity(f"point at infinity {self.h} has no affine coordinates")
        return Fraction(x, w), Fraction(y, w)


class ProjLine(_HomogeneousTriple):
    """A line in dual homogeneous coordinates; (0, 0, 1) is the line at infinity."""

    def incident(self, p: ProjPoint) -> bool:
        return _dot(self.h, p.h) == 0

    def side(self, p: ProjPoint) -> int:
        """Sign of <line, point> for the canonical representatives.

        Zero means incident; the two nonzero signs distinguish the sides
        consistently for finite points in the w > 0 lift.
        """
        d = _dot(self.h, p.h)
        return (d > 0) - (d < 0)


Triple = tuple[int, int, int]
PointLike = Union[ProjPoint, ProjLine, Sequence[ScalarLike]]


def _raw(p: PointLike) -> tuple:
    if isinstance(p, _HomogeneousTriple):
        return p.h
    return tuple(p)


def _dot(u: Iterable, v: Iterable) -> int:
    return sum(a * b for a, b in zip(u, v))


def cross(u: PointLike, v: PointLike) -> tuple:
    """Cross product of two homogeneous triples, as a raw triple."""
    a, b = _raw(u), _raw(v)
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The line through two distinct points."""
    c = cross(p, q)
    if c == (0, 0, 0):
        raise DegenerateJoin(f"join of equal points {p!r}")
    return ProjLine(*c)


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The intersection point of two distinct lines (possibly at infinity)."""
    c = cross(l1, l2)
    if c == (0, 0, 0):
        raise DegenerateMeet(f"meet of equal lines {l1!r}")
    return ProjPoint(*c)


def det3(a: PointLike, b: PointLike, c: PointLike):
    """Signed determinant of three homogeneous coordinate rows.

    For w = 1 representatives this is twice the signed area of the triangle
    (a, b, c).  The sign is representative-independent under the w > 0
    convention; the magnitude scales with the chosen representatives.
    """
    ra, rb, rc = _raw(a), _raw(b), _raw(c)
    return (
        ra[0] * (rb[1] * rc[2] - rb[2] * rc[1])
        - ra[1] * (rb[0] * rc[2] - rb[2] * rc[0])
        + ra[2] * (rb[0] * rc[1] - rb[1] * rc[0])
    )


def is_finite(p: ProjPoint) -> bool:
    return p.is_finite


def dehomogenize(p: ProjPoint) -> tuple[Fraction, Fraction]:
    return p.dehomogenize()
