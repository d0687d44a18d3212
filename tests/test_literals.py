import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicut.exact import KElement, sqrt_adjoin
from equicut.literals import ParseError, format_k_element, format_number, parse_number


class TestParse:
    def test_integers_and_fractions(self):
        assert parse_number("2").as_fraction() == 2
        assert parse_number("-3/2").as_fraction() == Fraction(-3, 2)
        assert parse_number("0").is_zero()

    def test_roots(self):
        assert parse_number("sqrt(2)") == sqrt_adjoin(2)
        assert parse_number("2*sqrt(3)") == 2 * sqrt_adjoin(3)
        assert parse_number("sqrt(4)").as_fraction() == 2

    def test_expressions(self):
        v = parse_number("1/2 + 3*sqrt(5) - sqrt(2)")
        assert v == Fraction(1, 2) + 3 * sqrt_adjoin(5) - sqrt_adjoin(2)
        assert parse_number("(1 + sqrt(2))*sqrt(3)") == (1 + sqrt_adjoin(2)) * sqrt_adjoin(3)
        assert parse_number("-1*sqrt(2) + 1") == 1 - sqrt_adjoin(2)

    def test_nested_roots(self):
        v = parse_number("sqrt(2 + sqrt(3))")
        assert v * v == 2 + sqrt_adjoin(3)

    def test_whitespace_tolerance(self):
        assert parse_number("  1   +2* sqrt( 2 )  ") == 1 + 2 * sqrt_adjoin(2)

    def test_negative_factor_after_star(self):
        assert parse_number("2*-3").as_fraction() == -6

    def test_root_simplifies(self):
        assert parse_number("sqrt(8)") == 2 * sqrt_adjoin(2)
        assert parse_number("sqrt(2)*sqrt(2)").as_fraction() == 2


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "sqrt 2",
            "- sqrt(2)",
            "1 +",
            "sqrt(2",
            "1/0",
            "foo",
            "1)",
            "1 2",
            "sqrt()",
            "1//2",
            "*2",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_number(text)

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_number("1 + foo")
        assert err.value.position == 4

    @pytest.mark.parametrize("opening", ["(", "sqrt("])
    def test_nesting_past_the_limit_rejected(self, opening):
        with pytest.raises(ParseError, match="nesting deeper than 100"):
            parse_number(opening * 3000 + "1" + ")" * 3000)
        with pytest.raises(ParseError, match="nesting deeper than 100"):
            parse_number("(" * 101 + "1" + ")" * 101)
        assert parse_number("(" * 100 + "1" + ")" * 100).as_fraction() == 1

    def test_eight_roots_parse(self):
        value = parse_number("sqrt(2 + " * 8 + "1" + ")" * 8)
        assert value.depth == 8

    def test_more_than_eight_roots_fail_fast(self):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="more than 8 square roots") as err:
            parse_number("sqrt(2 + " * 12 + "1" + ")" * 12)
        assert time.perf_counter() - start < 1
        assert err.value.position == 27  # the ninth sqrt( from the inside
        flat = " + ".join(f"sqrt({p})" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        with pytest.raises(ParseError, match="more than 8 square roots"):
            parse_number(flat)

    def test_negative_sqrt_literal_rejected(self):
        with pytest.raises(Exception):
            parse_number("sqrt(-2)")


class TestFormat:
    def test_rationals(self):
        assert format_number(0) == "0"
        assert format_number(Fraction(-3, 2)) == "-3/2"
        assert format_number(7) == "7"

    def test_simple_roots(self):
        assert format_number(sqrt_adjoin(2)) == "sqrt(2)"
        assert format_number(2 * sqrt_adjoin(3)) == "2*sqrt(3)"
        assert format_number(-sqrt_adjoin(2)) == "-1*sqrt(2)"
        assert format_number(1 - sqrt_adjoin(2)) == "1 - sqrt(2)"

    def test_multiquadratic_flattens(self):
        v = (1 + sqrt_adjoin(2)) * sqrt_adjoin(3)
        assert format_number(v) == "sqrt(3) + sqrt(6)"

    def test_composite_coefficient(self):
        v = (1 + sqrt_adjoin(3)) * sqrt_adjoin(2 + sqrt_adjoin(3))
        assert format_number(v) == "(1 + sqrt(3))*sqrt(2 + sqrt(3))"

    def test_nested_radicand(self):
        v = sqrt_adjoin(2 + sqrt_adjoin(3))
        assert format_number(v) == "sqrt(2 + sqrt(3))"

    def test_k_element(self):
        x = KElement([(1, Fraction(1, 2)), (5, 3), (2, -1)])
        assert format_k_element(x) == "1/2 - sqrt(2) + 3*sqrt(5)"
        assert format_k_element(KElement.zero()) == "0"
        assert format_k_element(KElement([(2, -1)])) == "-1*sqrt(2)"


CANONICAL = [
    "0",
    "7",
    "-3/2",
    "sqrt(2)",
    "-1*sqrt(2)",
    "2*sqrt(3)",
    "1/2 + 3*sqrt(5)",
    "1 - sqrt(2)",
    "-5 + 3*sqrt(2) - 2*sqrt(3) + sqrt(6)",
    "sqrt(2 + sqrt(3))",
    "1/3 + 2*sqrt(3) - sqrt(6)",
    "(1 + sqrt(3))*sqrt(2 + sqrt(3))",
    "2 - sqrt(2 + sqrt(3))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", CANONICAL)
    def test_format_parse_identity(self, text):
        assert format_number(parse_number(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["sqrt(8)", "sqrt(2)*sqrt(3)", "1 + 1", "sqrt(4/9)", "2/4", "sqrt(9)"],
    )
    def test_format_parse_stabilizes(self, text):
        once = format_number(parse_number(text))
        assert format_number(parse_number(once)) == once

    def test_value_preserved(self):
        for text in CANONICAL:
            v = parse_number(text)
            assert parse_number(format_number(v)) == v

    def test_rational_radicands_after_a_nested_one(self):
        """sqrt(3) is adjoined after the nested sqrt(1 + sqrt(5)), yet the
        value lies in Q(sqrt(3), sqrt(5)) and prints in that basis, as its
        re-parse does."""
        v = parse_number("sqrt(5) + 0*sqrt(1 + sqrt(5)) + sqrt(3)")
        assert len(v.ctx._prods) < 1 << v.ctx.depth  # nested
        assert format_number(v) == "sqrt(3) + sqrt(5)"
        w = v * parse_number("1/2*sqrt(5)") + sqrt_adjoin(3) * v
        assert format_number(w) == "11/2 + 3/2*sqrt(15)"
        for x in (v, w):
            again = parse_number(format_number(x))
            assert again == x
            assert format_number(again) == format_number(x)
        # a coordinate on the nested radicand still prints structurally
        u = v + parse_number("sqrt(1 + sqrt(5))")
        assert format_number(u) == "sqrt(5) + sqrt(1 + sqrt(5)) + sqrt(3)"
        assert format_number(parse_number(format_number(u))) == format_number(u)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=9)


def k_elements():
    return st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 5, 6, 15]), small_fracs),
        min_size=0,
        max_size=4,
    ).map(KElement)


class TestHypothesisRoundTrip:
    @given(k_elements())
    @settings(max_examples=60, deadline=None)
    def test_k_element_round_trip(self, x):
        text = format_k_element(x)
        parsed = parse_number(text)
        assert parsed == x.to_tower()
        assert format_number(parsed) == text
