from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polysec.errors import DegenerateJoin, DegenerateMeet, ParseError
from polysec.exactgeom import (
    MAX_EXPONENT_DIGITS,
    MAX_SCALAR_CHARS,
    _canonical_int_triple,
    cross,
    det3,
    format_scalar,
    join,
    meet,
    parse_scalar,
)

from conftest import incident, point

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=16)


class TestJoinMeet:
    def test_join_x_axis(self):
        line = join(point(0, 0), point(1, 0))
        assert line == _canonical_int_triple((0, -1, 0)) == (0, 1, 0)

    def test_join_y_axis(self):
        assert join(point(0, 0), point(0, 1)) == (1, 0, 0)

    def test_join_diagonal(self):
        # cross product of (1,0,1) and (0,1,1) worked out by hand
        assert join(point(1, 0), point(0, 1)) == (-1, -1, 1)

    def test_join_equal_points_degenerate(self):
        with pytest.raises(DegenerateJoin):
            join(point(2, 3), (4, 6, 2))

    def test_meet_axes_at_origin(self):
        x_axis = join(point(0, 0), point(1, 0))
        y_axis = join(point(0, 0), point(0, 1))
        assert meet(x_axis, y_axis) == point(0, 0)

    def test_meet_parallels_at_infinity(self):
        l0 = join(point(0, 0), point(1, 0))
        l1 = join(point(0, 1), point(1, 1))
        assert meet(l0, l1) == (1, 0, 0)

    def test_meet_solves_two_by_two_system(self):
        # x + y = 1 and x - y = 0 meet at (1/2, 1/2)
        assert meet((1, 1, -1), (1, -1, 0)) == point(Fraction(1, 2), Fraction(1, 2)) == (1, 1, 2)

    def test_meet_equal_lines_degenerate(self):
        with pytest.raises(DegenerateMeet):
            meet((1, 2, 3), (2, 4, 6))


class TestDet3:
    def test_unit_right_triangle(self):
        assert det3((0, 0, 1), (1, 0, 1), (0, 1, 1)) == 1

    def test_repeated_row_vanishes(self):
        a, b = (3, 7, 1), (-2, 5, 1)
        assert det3(a, a, b) == 0

    def test_swap_antisymmetry(self):
        assert det3((0, 0, 1), (0, 1, 1), (1, 0, 1)) == -1

    @given(st.tuples(rationals, rationals, rationals),
           st.tuples(rationals, rationals, rationals),
           st.tuples(rationals, rationals, rationals),
           rationals)
    @settings(max_examples=150, deadline=None)
    def test_multilinear_and_alternating(self, a, b, c, s):
        scaled = tuple(s * v for v in a)
        assert det3(scaled, b, c) == s * det3(a, b, c)
        assert det3(a, b, c) == -det3(b, a, c)
        assert det3(a, a, c) == 0


class TestCanonicalTriple:
    def test_scales_out(self):
        assert _canonical_int_triple((2, 4, 2)) == (1, 2, 1)

    def test_infinite_point(self):
        # at infinity the first nonzero coordinate is positive
        assert _canonical_int_triple((-2, 0, 0)) == (1, 0, 0)
        assert _canonical_int_triple((0, -3, 0)) == (0, 1, 0)

    def test_fractional_weight(self):
        assert _canonical_int_triple((6, -20, 2)) == point(3, -10)

    def test_negative_weight_normalized_on_construction(self):
        assert _canonical_int_triple((-1, -2, -1)) == point(1, 2)


class TestScalars:
    def test_parse_and_format_round_trip(self):
        for text in ("7/5", "-3", "0", "22/7"):
            assert format_scalar(parse_scalar(text)) == text

    def test_integer_rendering_drops_denominator(self):
        assert format_scalar(Fraction(4, 2)) == "2"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("1/0")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("one half")

    def test_size_caps(self):
        # the longest "p/q" the interpreter converts, 4300 digits a part
        fraction = "-" + "7" * 4300 + "/" + "9" * 4299 + "8"
        assert len(fraction) <= MAX_SCALAR_CHARS
        value = parse_scalar(fraction)
        assert value == Fraction(-int("7" * 4300), int("9" * 4299 + "8"))
        assert parse_scalar(format_scalar(value)) == value
        exponent = MAX_EXPONENT_DIGITS - len("1e0000")
        assert format_scalar(parse_scalar(f"1e{exponent}")) == "1" + "0" * exponent
        for text in (" " + "8" * MAX_SCALAR_CHARS + "/3", f"1e{exponent + 1}",
                     f"1e-{exponent + 1}", "1e99999999", "-1.5E+99999999"):
            with pytest.raises(ParseError):
                parse_scalar(text)


def fraction_parse(text):
    """parse_scalar through Fraction(str) alone, under the same caps: the
    reference for its int() fast path."""
    s = str(text).strip()
    if len(s) > MAX_SCALAR_CHARS:
        raise ParseError("too long")
    try:
        exponent = s.lower().partition("e")[2]
        if exponent and len(s) + abs(int(exponent)) > MAX_EXPONENT_DIGITS:
            raise ParseError("exponent too large")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("invalid") from exc


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


PARITY_TEXTS = [
    "+3", " -0 ", "-0/5", "3/0", "4/6", "007", "1_0", "\u0661\u0662", "-", "/5", "5/", "--3",
    "-3/-4", "3/+4", "3 /4", "1/2/3", "0.5", "1e3", "\u00b2", "-" + "7" * 4300 + "/" + "9" * 4300,
    "0", " 0", "0 ", "-0", "+0", "00", "0/1", "0/0", "0.0", "0e5", "\u0660",
    *("1" + "0" * (MAX_SCALAR_CHARS + d) for d in (-2, -1, 0)),
    *("1/" + "3" * (MAX_SCALAR_CHARS + d) for d in (-3, -2, -1)),
    *(" " * 5 + "1" * (MAX_SCALAR_CHARS + d) for d in (-1, 0, 1)),
]


class TestParseScalarFastPath:
    @pytest.mark.parametrize("text", PARITY_TEXTS, ids=range(len(PARITY_TEXTS)))
    def test_same_value_or_same_error_as_fraction(self, text):
        assert outcome(parse_scalar, text) == outcome(fraction_parse, text)

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789-+/ ._e\u0661", max_size=12) | st.integers())
    def test_random_texts(self, text):
        assert outcome(parse_scalar, text) == outcome(fraction_parse, text)


point_triples = st.tuples(rationals, rationals, st.sampled_from([Fraction(1)]))


class TestIdentities:
    @given(point_triples, point_triples, point_triples, point_triples)
    @settings(max_examples=200, deadline=None)
    def test_cross_product_expansion(self, a, b, c, d):
        lhs = cross(cross(a, b), cross(c, d))
        abd, abc = det3(a, b, d), det3(a, b, c)
        rhs = tuple(abd * c[k] - abc * d[k] for k in range(3))
        assert lhs == rhs

    @given(point_triples, point_triples, point_triples)
    @settings(max_examples=200, deadline=None)
    def test_incidence(self, a, b, c):
        pa, pb, pc = (point(*v) for v in (a, b, c))
        if pa == pb:
            return
        line = join(pa, pb)
        assert incident(line, pa) and incident(line, pb)
        assert (det3(pa, pb, pc) == 0) == incident(line, pc)

    @given(point_triples, point_triples, point_triples)
    @settings(max_examples=200, deadline=None)
    def test_meet_of_joins_recovers_common_point(self, a, b, c):
        pa, pb, pc = (point(*v) for v in (a, b, c))
        if pa == pb or pa == pc or det3(pa, pb, pc) == 0:
            return
        assert meet(join(pa, pb), join(pa, pc)) == pa

    def test_representative_independent_predicates(self):
        p, q, r = (2, 4, 2), (1, 2, 1), (3, -1, 1)
        line = join(p, r)
        assert line == join(q, r) == join((-1, -2, -1), r) == (-3, -2, 7)
        assert meet(line, (0, 0, 1)) == meet(line, (0, 0, -5)) == (2, -3, 0)

