import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import polysec.exactgeom as exactgeom
from polysec.errors import DegenerateJoin, DegenerateMeet, ParseError, ScaleExceeded
from polysec.exactgeom import (
    MAX_EXPONENT_DIGITS,
    MAX_SCALAR_CHARS,
    _canonical_int_triple,
    _format_ratio,
    _pair_row,
    _ratio,
    _ratios,
    _row,
    cross,
    det3,
    join,
    meet,
    parse_scalar,
)

from conftest import count_calls, incident, point, row_of

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
            assert _format_ratio(*_ratio(text)) == text

    def test_integer_rendering_drops_denominator(self):
        assert _format_ratio(*_ratio("4/2")) == "2"

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
        assert parse_scalar(_format_ratio(*_ratio(fraction))) == value
        exponent = MAX_EXPONENT_DIGITS - len("1e0000")
        assert _format_ratio(*_ratio(f"1e{exponent}")) == "1" + "0" * exponent
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


def read_ratio(text):
    """_ratio's (p, q) as the Fraction p/q, after checking that p and q are
    ints with q > 0."""
    p, q = _ratio(text)
    assert type(p) is int and type(q) is int and q > 0
    return Fraction(p, q)


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
        # parse_scalar and the reader under it, _ratio
        expected = outcome(fraction_parse, text)
        assert outcome(parse_scalar, text) == expected == outcome(read_ratio, text)

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789-+/ ._e\u0661", max_size=12) | st.integers())
    def test_random_texts(self, text):
        expected = outcome(fraction_parse, text)
        assert outcome(parse_scalar, text) == expected == outcome(read_ratio, text)

    def test_reader_keeps_the_written_terms(self):
        # the int() path returns the integers as written, unreduced; the
        # row reader divides the row by its gcd instead
        assert _ratio(" -4/6 ") == (-4, 6) and _ratio("0/7") == (0, 7) and _ratio(12) == (12, 1)
        assert _ratio("-0") == (0, 1) and _ratio("5e-1") == (1, 2)


def read_outcome(read, texts):
    """The (p, q) list read, or the class and message of its ParseError."""
    try:
        return read(texts)
    except ParseError as exc:
        return ParseError, str(exc)


def one_by_one(texts):
    return [_ratio(t) for t in texts]


PLAIN_TEXTS = ["3", "-4/6", "0/7", "12", "-0", "1/" + "9" * 40]

# plain texts, and texts of the plain shape but for "\n", "," or a space
SEPARATED_TEXTS = [
    ["1,2"], ["1", "2,3"], ["1,", "2"], [",1"], ["1", ",", "2"], [","], ["1/2,3/4"],
    ["1\n"], ["\n1"], ["1\n2"], ["1/2\n", "3"], ["1\r\n"], ["1\x1c"], [" 1 ", "2"], ["1\t/2"],
    ["1", "\n"], ["3/,4"], ["3/\n4"], [""], ["", "1"],
]


class TestRatios:
    """_ratios(texts) is [_ratio(t) for t in texts]: the same values, or the
    same first ParseError."""

    @pytest.mark.parametrize("text", PARITY_TEXTS, ids=range(len(PARITY_TEXTS)))
    def test_each_parity_text_alone(self, text):
        assert read_outcome(_ratios, [text]) == read_outcome(one_by_one, [text])

    @pytest.mark.parametrize("text", PARITY_TEXTS, ids=range(len(PARITY_TEXTS)))
    def test_each_parity_text_among_plain_texts(self, text):
        # one odd text sends the whole list to _ratio, wherever it stands
        for k in (0, 3, len(PLAIN_TEXTS)):
            texts = [*PLAIN_TEXTS[:k], text, *PLAIN_TEXTS[k:]]
            assert read_outcome(_ratios, texts) == read_outcome(one_by_one, texts)
        # and the first of two bad texts is the one reported
        texts = [*PLAIN_TEXTS, text, "x", text]
        assert read_outcome(_ratios, texts) == read_outcome(one_by_one, texts)

    @pytest.mark.parametrize("texts", SEPARATED_TEXTS, ids=range(len(SEPARATED_TEXTS)))
    def test_texts_with_newlines_commas_and_spaces(self, texts):
        assert read_outcome(_ratios, texts) == read_outcome(one_by_one, texts)
        texts = [*PLAIN_TEXTS, *texts]
        assert read_outcome(_ratios, texts) == read_outcome(one_by_one, texts)

    def test_json_ints_and_other_items(self):
        for texts in ([0, 5, -3], ["1/2", 10**30, "0"], [True], ["1", None], [[1], "2"], [{"x": 1}],
                      [1.5], [Fraction(1, 2), "3"], []):
            assert read_outcome(_ratios, texts) == read_outcome(one_by_one, texts)
        assert _ratios(["1/2", 7, "-3"]) == [(1, 2), (7, 1), (-3, 1)]

    def test_plain_texts_are_read_without_ratio(self, monkeypatch):
        # the fast path keeps the written terms, as _ratio does
        calls = count_calls(monkeypatch, exactgeom, "_ratio")
        texts = [*PLAIN_TEXTS, "-" + "7" * 4300 + "/" + "9" * 4300]
        assert _ratios(texts) == [(3, 1), (-4, 6), (0, 7), (12, 1), (0, 1), (1, int("9" * 40)),
                                  (-int("7" * 4300), int("9" * 4300))]
        assert calls == []
        # a zero denominator and a part past int()'s digit limit take the
        # slow path, which raises
        for odd in ("3/0", "3/00", "1" * 4301):
            with pytest.raises(ParseError):
                _ratios([*PLAIN_TEXTS, odd])

    def test_length_cap_without_a_digit_limit(self):
        # past MAX_SCALAR_CHARS a text is refused even where int() would
        # read it, as with the interpreter's digit limit switched off
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for text in ("1" * (MAX_SCALAR_CHARS + 1), "1/" + "3" * (MAX_SCALAR_CHARS - 1)):
                texts = [*PLAIN_TEXTS, text]
                assert read_outcome(_ratios, texts) == read_outcome(one_by_one, texts)
                assert read_outcome(_ratios, texts)[0] is ParseError
        finally:
            sys.set_int_max_str_digits(limit)

    @settings(max_examples=400, derandomize=True)
    @given(st.lists(
        st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,4})?", fullmatch=True)
        | st.text(alphabet="0123456789-+/ ,\n\t\x1c_.e\u0661", max_size=8)
        | st.integers(-10**6, 10**6),
        max_size=8,
    ))
    def test_random_lists(self, texts):
        assert read_outcome(_ratios, texts) == read_outcome(one_by_one, texts)


# integer parts of up to 450 bits, and small ones, so that equal and
# dividing denominators are drawn too
_parts = st.integers(0, 2**450) | st.integers(0, 12)
# a coordinate text: "p/q" with its terms multiplied by k >= 1 (unreduced
# when k > 1), an integer text, or a zero over any denominator
coordinate_texts = (
    st.builds(lambda sign, p, q, k: f"{sign}{p * k}/{(q + 1) * k}", st.sampled_from(["", "-"]),
              _parts, _parts, st.integers(1, 2**40) | st.just(1))
    | st.builds(lambda sign, p: f"{sign}{p}", st.sampled_from(["", "-"]), _parts)
    | st.builds(lambda sign, q: f"{sign}0/{q + 1}", st.sampled_from(["", "-"]), _parts)
    | st.sampled_from(["0", "-0", "0/7"])
)


class TestPairRow:
    @settings(max_examples=500, derandomize=True)
    @given(st.tuples(coordinate_texts, coordinate_texts))
    @example(("0/7", "-0"))
    @example(("-0", "6/4"))
    @example(("3", "-9/6"))
    def test_pair_row_is_the_generic_row(self, texts):
        # the reader's two-coordinate step (jsonio._parse_pairs) against
        # the generic _row and the row of the parsed Fractions
        x, y = _ratios(list(texts))
        assert _pair_row(x, y) == _row([x, y]) == row_of([Fraction(*x), Fraction(*y)])


def written(write, p, q):
    """The text write(p, q) gives, or ScaleExceeded when it has too many
    digits: a ValueError from str of a Fraction, the interpreter's
    int/str conversion limit, counts as ScaleExceeded."""
    try:
        return write(p, q)
    except (ScaleExceeded, ValueError):
        return ScaleExceeded


def fraction_text(p, q):
    return str(Fraction(p, q))


class TestFormatRatio:
    @given(st.integers(-10**30, 10**30), st.integers(1, 10**12), st.integers(1, 10**6))
    @example(0, 7, 3)
    @example(-6, 4, 1)
    @example(-9, 3, 5)
    def test_str_of_the_fraction(self, p, q, k):
        # unreduced terms k p / k q, negative and zero numerators
        assert _format_ratio(k * p, k * q) == fraction_text(k * p, k * q)

    @settings(max_examples=60)
    @given(st.integers(4297, 4303), st.sampled_from([1, 2, 3, 10, 7 * 10**3]), st.booleans(),
           st.sampled_from([0, 1]), st.sampled_from([1, -1]))
    def test_same_text_or_refusal_at_the_digit_limit(self, digits, k, big_numerator, offset, sign):
        # a part of 4297-4303 digits, the other small, both scaled by k
        # (the reduced parts have fewer digits than the written ones): the
        # same text, or ScaleExceeded where str of the Fraction fails
        big = 10 ** (digits - 1) + offset
        p, q = (big, 7) if big_numerator else (3, big)
        p, q = sign * k * p, k * q
        assert written(_format_ratio, p, q) == written(fraction_text, p, q)

    def test_limit_cases_reached(self):
        # the unreduced 10^4300 / 10 is written as 10^4299, 4300 digits
        assert _format_ratio(10**4300, 10) == "1" + "0" * 4299
        with pytest.raises(ScaleExceeded):
            _format_ratio(-(10**4300), 3)
        with pytest.raises(ScaleExceeded):
            _format_ratio(1, 10**4300 + 1)


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

