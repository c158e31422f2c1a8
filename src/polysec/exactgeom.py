"""Exact projective-plane kernel, and rational scalars as text.

Points and lines of the projective plane are integer homogeneous triples,
plain tuples of ints only; a triple and its nonzero multiples are one point
or line.  join and meet take any representatives, since a cross product
only scales with its inputs, and return the canonical one (gcd reduced,
sign fixed): finite points at w > 0, and for points and lines at infinity
the first nonzero coordinate positive.

Every exact point also has one integer form, its row (_row): for rational
coordinates c_1, ..., c_k, the primitive (c_1 W, ..., c_k W, W), W > 0 the
lcm of the denominators.  The row of an affine point (x, y) is its
canonical triple, its lift: Polygon.lifts, the form a Polygon stores and
Polygon.vertex serves.  An ambient point's row is
sections.SectionedPolytope.rows, the form constructions build and
pullbacks map.  This kernel serves where lines are formed: the crossing
classification of standardization lines, hexagon concurrency,
polygon.frame_map and the svg rendering.

Coordinate text has one reader, _ratio, giving integers (p, q), and one
writer, _format_ratio, writing p/q in lowest terms.  _ratios reads a list
of texts as _ratio reads each, with int() alone when every text is plain
"[-]digits[/digits]" and through _ratio otherwise.  jsonio reads each
file's texts with one _ratios call into lifts and an extension's rows, and
writes rows and the slack layer's integer pairs back as texts, with no
Fraction either way; parse_scalar makes a Fraction of a text, for
library callers.

No floating point is used anywhere in this module.  All values are
immutable and all operations are pure, so they are safe to share across
any number of workers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DegenerateJoin, DegenerateMeet, ParseError, ScaleExceeded

Triple = tuple[int, int, int]

__all__ = [
    "join",
    "meet",
    "det3",
    "cross",
    "parse_scalar",
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


def _ratio(text) -> tuple[int, int]:
    """The one coordinate-text reader: integers (p, q), q > 0, with p/q the
    value of the text, not reduced.

    ASCII "[-]digits" and "[-]digits/digits" are read with int(); any other
    text goes to Fraction(str), which accepts and rejects the same texts.
    Text longer than MAX_SCALAR_CHARS, or with a decimal exponent that
    takes it past MAX_EXPONENT_DIGITS, is rejected with ParseError.
    """
    s = str(text).strip()
    if len(s) > MAX_SCALAR_CHARS:
        raise ParseError(f"rational text longer than {MAX_SCALAR_CHARS} characters")
    num, slash, den = s.partition("/")
    try:
        if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            q = int(den or 1)
            if q:  # "p/0" is left to Fraction, which rejects it
                return int(num), q
        exponent = s.lower().partition("e")[2]
        if exponent and len(s) + abs(int(exponent)) > MAX_EXPONENT_DIGITS:
            raise ParseError(f"exponent of {s[:40]!r} too large")
        return Fraction(s).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc


# the characters int() reads in an ASCII text besides "-" and the digits
_INT_EXTRAS = "+_" + "".join(c for c in map(chr, range(128)) if c.isspace())


def _ratios(texts: Sequence) -> list[tuple[int, int]]:
    """[_ratio(t) for t in texts]: the same values, and the same first
    error.

    When every text is an ASCII str of at most MAX_SCALAR_CHARS characters
    with none of _INT_EXTRAS, int() accepts a part exactly when it has
    _ratio's plain shape "[-]digits", so each text is read with int()
    alone.  Any other case goes whole to _ratio, the one definition of an
    accepted text: an item that is not a str, a text of another shape, a
    part past int()'s digit limit, or a denominator that is not positive.
    """
    try:
        joined = "".join(texts)
    except TypeError:  # an item that is not a str
        return [_ratio(t) for t in texts]
    if (
        joined.isascii()
        and not any(c in joined for c in _INT_EXTRAS)
        and max(map(len, texts), default=0) <= MAX_SCALAR_CHARS
    ):
        try:
            out = [(int(num), int(den) if slash else 1)
                   for num, slash, den in map(str.partition, texts, repeat("/"))]
        except ValueError:  # a text of another shape, or a part past the digit limit
            pass
        else:
            if all(q > 0 for _, q in out):
                return out
    return [_ratio(t) for t in texts]


def parse_scalar(text: str) -> Fraction:
    """Fraction(p, q) of _ratio(text); the text "0" gives one shared zero."""
    if text == "0":
        return _ZERO
    return Fraction(*_ratio(text))


def _format_ratio(p: int, q: int) -> str:
    """The one coordinate-text writer: the rational p/q, q > 0, in lowest
    terms as "p/q", or "p" when the denominator is 1, the text of
    str(Fraction(p, q)) with one gcd and no Fraction.

    A reduced numerator or denominator past the interpreter's int/str
    conversion limit (4300 digits by default) raises ScaleExceeded.
    """
    g = gcd(p, q)
    try:
        return str(p // g) if g == q else f"{p // g}/{q // g}"
    except ValueError as exc:
        raise ScaleExceeded("a rational has too many digits to write") from exc


def _primitive_ints(values: Sequence[int]) -> list[int]:
    """The integers divided by their gcd; signs are kept, and all zeros
    stay zeros."""
    g = gcd(*values)
    return [v // g for v in values] if g > 1 else list(values)


def _row(ratios: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The row of the rationals p_1/q_1, ..., p_k/q_k, q_i > 0, in any terms:
    (p_1 W/q_1, ..., p_k W/q_k, W), W the lcm of the q_i, divided by its
    gcd.  Equal values give equal rows; no ratio gives (1,).  The q of a
    zero is left out of W, which the gcd would take out again.  A term
    whose q is W already, as in a file written in lowest terms over one
    denominator, is kept with no division; _pair_row is this for k = 2."""
    w = lcm(*[q for p, q in ratios if p])
    row = (*[p if q == w else p * (w // q) for p, q in ratios], w)
    g = gcd(*row)
    return row if g == 1 else tuple([v // g for v in row])


def _pair_row(x: tuple[int, int], y: tuple[int, int]) -> Triple:
    """_row([x, y]): the lift (X, Y, W) of the point (p/q, r/s) for
    x = (p, q) and y = (r, s), with no list.  The one step that reads a
    claimed or polygon vertex (jsonio._parse_pairs)."""
    (p, q), (r, s) = x, y
    if not p:
        q = 1
    if not r:
        s = 1
    w = q if q == s else lcm(q, s)
    if q != w:
        p *= w // q
    if s != w:
        r *= w // s
    g = gcd(p, r, w)
    return (p, r, w) if g == 1 else (p // g, r // g, w // g)


_by_value = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])  # pairs (N, D), D > 0, by N/D


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

