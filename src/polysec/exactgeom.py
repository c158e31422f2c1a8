"""Exact projective-plane kernel, and rational scalars as text.

Points and lines of the projective plane are integer homogeneous triples,
plain tuples of ints only; a triple and its nonzero multiples are one point
or line.  join and meet take any representatives, since a cross product
only scales with its inputs, and return the canonical one (gcd reduced,
sign fixed): finite points at w > 0, and for points and lines at infinity
the first nonzero coordinate positive.

Stored coordinates are affine rational pairs (polygon.Polygon), and
Polygon.vertex serves their positive-weight integer lifts, made once by
validate.  This kernel serves where lines are formed: the crossing
classification of standardization lines, hexagon concurrency,
polygon.frame_map and the svg rendering.

No floating point is used anywhere in this module.  All values are
immutable and all operations are pure, so they are safe to share across
any number of workers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import DegenerateJoin, DegenerateMeet, ParseError, ScaleExceeded

ScalarLike = Union[Fraction, int, str]
Triple = tuple[int, int, int]

__all__ = [
    "join",
    "meet",
    "det3",
    "cross",
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

# the value of the text "0", shared by every such coordinate: dense files
# are mostly zeros, and a Fraction is immutable
_ZERO = Fraction(0)


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational.

    ASCII "[-]digits" and "[-]digits/digits" are read with int(); any other
    text goes to Fraction(str), which accepts and rejects the same texts.
    Text longer than MAX_SCALAR_CHARS, or with a decimal exponent that
    takes it past MAX_EXPONENT_DIGITS, is rejected with ParseError.  The
    text "0" gives one shared Fraction(0).
    """
    if text == "0":
        return _ZERO
    s = str(text).strip()
    if len(s) > MAX_SCALAR_CHARS:
        raise ParseError(f"rational text longer than {MAX_SCALAR_CHARS} characters")
    num, slash, den = s.partition("/")
    try:
        if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        exponent = s.lower().partition("e")[2]
        if exponent and len(s) + abs(int(exponent)) > MAX_EXPONENT_DIGITS:
            raise ParseError(f"exponent of {s[:40]!r} too large")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc


def format_scalar(value: ScalarLike) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1.

    A numerator or denominator past the interpreter's int/str conversion
    limit (4300 digits by default) raises ScaleExceeded.
    """
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        raise ScaleExceeded("a rational has too many digits to write") from exc


def _primitive_ints(values: Sequence[int]) -> list[int]:
    """The integers divided by their gcd; signs are kept, and all zeros
    stay zeros."""
    g = gcd(*values)
    return [v // g for v in values] if g > 1 else list(values)


def _canonical_int_triple(coords: Sequence[int]) -> Triple:
    """The primitive representative of a nonzero integer triple: w > 0
    for finite points, else the first nonzero coordinate positive."""
    x, y, w = _primitive_ints(coords)
    if (w or x or y) < 0:
        return -x, -y, -w
    return x, y, w


def _dot(u: Iterable, v: Iterable) -> int:
    return sum(a * b for a, b in zip(u, v))


def cross(u: Sequence, v: Sequence) -> tuple:
    """Cross product of two homogeneous triples, as a raw triple."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def join(p: Sequence, q: Sequence) -> Triple:
    """The canonical line through two distinct points."""
    c = cross(p, q)
    if c == (0, 0, 0):
        raise DegenerateJoin(f"join of equal points {p!r}")
    return _canonical_int_triple(c)


def meet(l1: Sequence, l2: Sequence) -> Triple:
    """The canonical intersection point of two distinct lines (possibly at
    infinity)."""
    c = cross(l1, l2)
    if c == (0, 0, 0):
        raise DegenerateMeet(f"meet of equal lines {l1!r}")
    return _canonical_int_triple(c)


def det3(a: Sequence, b: Sequence, c: Sequence):
    """Signed determinant of three homogeneous coordinate rows.

    For w = 1 representatives this is twice the signed area of the triangle
    (a, b, c).  The sign is representative-independent for rows of positive
    weight; the magnitude scales with the chosen representatives.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c
    return (
        a0 * (b1 * c2 - b2 * c1)
        - a1 * (b0 * c2 - b2 * c0)
        + a2 * (b0 * c1 - b1 * c0)
    )

