"""Exact projective-plane kernel, and rational scalars as text.

Points and lines of the projective plane are integer homogeneous triples,
plain tuples; a triple and its nonzero multiples are one point or line.
join and meet take any representatives, since a cross product only scales
with its inputs, and return the canonical one (denominators cleared, gcd
reduced, sign fixed): finite points at w > 0, and for points and lines at
infinity the first nonzero coordinate positive.

Stored coordinates are affine rational pairs (polygon.Polygon);
Polygon.vertex lifts them to the positive-weight integer triples that the
hull also uses.  This kernel serves where lines are formed: the crossing
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


def _primitive_ints(values: Sequence[ScalarLike]) -> list[int]:
    """The rationals scaled by one positive factor to coprime integers.

    Denominators are cleared by their lcm and the common gcd is divided out;
    signs are kept, and all zeros stay zeros.
    """
    fracs = [v if isinstance(v, int) else Fraction(v) for v in values]
    denom_lcm = 1
    for v in fracs:
        if not isinstance(v, int):
            d = v.denominator
            denom_lcm = denom_lcm // gcd(denom_lcm, d) * d
    ints = [int(v * denom_lcm) for v in fracs]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _canonical_int_triple(coords: Sequence[ScalarLike]) -> Triple:
    if len(coords) != 3:
        raise ValueError("homogeneous coordinates need exactly 3 entries")
    ints = _primitive_ints(coords)
    if not any(ints):
        raise ValueError("all three homogeneous coordinates are zero")
    # sign: w > 0 for finite, else first nonzero positive
    if ints[2] != 0:
        if ints[2] < 0:
            ints = [-v for v in ints]
    else:
        lead = ints[0] if ints[0] != 0 else ints[1]
        if lead < 0:
            ints = [-v for v in ints]
    return (ints[0], ints[1], ints[2])


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

