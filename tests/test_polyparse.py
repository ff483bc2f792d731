import pytest
from hypothesis import given, settings, strategies as st

from chowforge.intpoly import Polynomial, ring_make
from chowforge.polyparse import (
    ParseError,
    format_ideal_file,
    format_ring_header,
    parse_ideal_file,
    parse_poly,
)

RING = ring_make([("t", 1), ("c1", 1), ("c2", 2)])
PXP = ring_make([("c1", 1), ("c2", 2), ("xi2a", 1), ("xi2b", 1)])


def V(ring, name):
    return Polynomial.var(ring, name)


class TestParsePoly:
    def test_constant_folding(self):
        assert parse_poly("2*(2*3-1)*t", RING) == 10 * V(RING, "t")

    def test_quadratic_row(self):
        p = parse_poly("xi2a^2 - c1*xi2a - 4*c2", PXP)
        xa, c1, c2 = V(PXP, "xi2a"), V(PXP, "c1"), V(PXP, "c2")
        assert p == xa ** 2 - c1 * xa - 4 * c2

    def test_stray_operator_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("t + * c1", RING)
        assert err.value.pos == 4

    def test_precedence(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        assert parse_poly("2*t^2", RING) == 2 * t ** 2
        assert parse_poly("-t^2", RING) == -(t ** 2)
        assert parse_poly("(t + c1)^2", RING) == (t + c1) ** 2
        assert parse_poly("2^3", RING) == Polynomial.const(RING, 8)
        assert parse_poly("t - -c1", RING) == t + c1

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_poly("2t", RING)
        assert err.value.pos == 1

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError, match="undeclared") as err:
            parse_poly("t + xi", RING)
        assert err.value.pos == 4

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse_poly("t^c1", RING)
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse_poly("t^(2)", RING)
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse_poly("t^-2", RING)

    def test_lexical_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("t + $", RING)
        assert err.value.pos == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_poly("t t", RING)

    @pytest.mark.parametrize("src, pos", [("2*t + %s*t", 6), ("t + t^%s", 6)], ids=["atom", "power"])
    def test_literal_beyond_the_int_string_limit(self, src, pos):
        # Python's int() refuses a string of more than 4300 digits
        long = "9" * 5000
        with pytest.raises(ParseError, match="integer literal of 5000 digits is too long") as err:
            parse_poly(src % long, RING)
        assert err.value.pos == pos
        assert parse_poly(src % long[:4300], RING).terms

    @pytest.mark.parametrize(
        "src, pos, base",
        [("t + (t + c1)^9999", 4, 2), ("t*(t + c1 + c2)^62", 2, 3), ("-(t - c1)^2000", 1, 2)],
    )
    def test_power_beyond_the_term_bound(self, src, pos, base):
        # a base of m terms to the n predicts C(n + m - 1, m - 1) terms
        with pytest.raises(ParseError, match="power of a %d-term base would have more" % base) as err:
            parse_poly(src, RING)
        assert err.value.pos == pos

    @pytest.mark.parametrize(
        "src, pos",
        [
            ("(2*t)^9999999999", 0),
            ("2^9999999999", 0),
            ("t + (-3*t)^9999999999", 4),
            ("2^14285*t", 0),
            ("(2^4000*t + c1)^4", 0),
            ("c1*(c1 - 2^4000*t)^400", 3),
            ("(t + 3*c1 - 2^4000*c2)^4", 0),
            ("(t + 2^4000*c1 + c2)^61", 0),
            ("c2 - (t + 2^4000*c1 + c2)^61", 5),
        ],
    )
    def test_power_beyond_the_int_string_limit(self, src, pos):
        # c^n is refused from n and the bits of c, before it is expanded; of
        # a base of several terms, c is the largest coefficient of its
        # lex-largest and lex-smallest terms under each rotation of the
        # variable order, and base^n has c^n.  2^4000*c1 is neither
        # lex-extreme term in the order t, c1, c2, but it is the largest
        # in the order c1, c2, t
        with pytest.raises(ParseError, match="power would have a coefficient of more than 4300 digits") as err:
            parse_poly(src, RING)
        assert err.value.pos == pos

    def test_power_at_the_term_bound(self):
        # C(61 + 2, 2) = 1953 terms are allowed, C(62 + 2, 2) = 2016 are not
        assert len(parse_poly("(t + c1 + c2)^61", RING).terms) == 1953
        # the term bound never refuses a single term, nor a power of zero terms
        assert parse_poly("(2*t*c1)^300", RING) == (2 * V(RING, "t") * V(RING, "c1")) ** 300
        # 2^14284 has 4300 digits, as many as Python prints; 2^14285 is refused
        assert parse_poly("2^14284*t", RING) == 2 ** 14284 * V(RING, "t")
        # 3 * 4000 bits, 3612 digits: the bound passes a base of several terms too
        big = parse_poly("(2^4000*t + c1)^3", RING)
        assert big == (2 ** 4000 * V(RING, "t") + V(RING, "c1")) ** 3
        assert parse_poly("(t - t)^99999", RING).is_zero()
        assert parse_poly("(t + c1)^0", RING) == Polynomial.const(RING, 1)

    @pytest.mark.parametrize(
        "src, pos",
        [("t*\u00b2", 2), ("t^\u00b2", 2), ("\u0663*t", 0), ("t\u00b2", 1), ("c1\u0663", 2), ("2\u0663", 1)],
        ids=["superscript-factor", "superscript-exponent", "arabic-indic-literal",
             "superscript-ident-tail", "arabic-indic-ident-tail", "arabic-indic-literal-tail"],
    )
    def test_only_ascii_digits(self, src, pos):
        # str.isdigit() is true for these; each is a lexical error at its offset
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_poly(src, RING)
        assert err.value.pos == pos


class TestIdealFile:
    def test_two_line_file(self):
        ring, rels = parse_ideal_file("ring: t:1, c1:1\n2*t\n")
        assert ring.names == ("t", "c1")
        assert rels == [2 * V(ring, "t")]

    def test_inhomogeneous_relation_reports_degrees(self):
        src = "ring: t:1, c2:2\nt + c2\n"
        with pytest.raises(ParseError, match="degrees 1 and 2|degrees 2 and 1") as err:
            parse_ideal_file(src)
        assert err.value.line == 2

    def test_header_missing(self):
        with pytest.raises(ParseError, match="header missing"):
            parse_ideal_file("2*t\n")
        with pytest.raises(ParseError, match="header missing"):
            parse_ideal_file("# only a comment\n")

    def test_comments_and_blank_lines(self):
        src = "# catalog excerpt\nring: t:1, c1:1, c2:2  # weights\n\n2*t # row 1\n# done\n"
        ring, rels = parse_ideal_file(src)
        assert rels == [2 * V(ring, "t")]

    def test_error_line_numbers(self):
        src = "ring: t:1\n2*t\nt + * t\n"
        with pytest.raises(ParseError) as err:
            parse_ideal_file(src)
        assert err.value.line == 3

    def test_literal_beyond_the_int_string_limit(self):
        with pytest.raises(ParseError, match="5000 digits is too long") as err:
            parse_ideal_file("ring: t:1\n2*t\nt^2 - %s*t^2\n" % ("1" * 5000))
        assert err.value.line == 3 and err.value.pos == len("ring: t:1\n2*t\nt^2 - ")

    def test_coefficient_beyond_the_int_string_limit(self):
        # each power has 3817 digits, their product 7634: refused at its line
        with pytest.raises(ParseError, match="coefficient of more than 4300 digits") as err:
            parse_ideal_file("ring: t:1\n2*t\n9^4000*9^4000*t\n")
        assert err.value.line == 3 and err.value.pos == len("ring: t:1\n2*t\n")
        ring, rels = parse_ideal_file("ring: t:1\n%s*t\n" % ("9" * 4300))
        assert rels == [(10 ** 4300 - 1) * V(ring, "t")]

    def test_header_validation(self):
        with pytest.raises(ParseError):
            parse_ideal_file("ring: t\n")
        with pytest.raises(ParseError):
            parse_ideal_file("ring: t:0\n2*t\n")
        for weight in ("\u0663", "\u00b2", "-\u0663"):
            with pytest.raises(ParseError, match="name:weight") as err:
                parse_ideal_file("ring: t:%s\n2*t\n" % weight)
            assert err.value.line == 1

    def test_format_round_trip(self):
        rels = [
            2 * V(RING, "t"),
            V(RING, "t") ** 2 - V(RING, "c1") * V(RING, "t"),
            4 * V(RING, "c2") - V(RING, "c1") ** 2,
        ]
        text = format_ideal_file(RING, rels)
        ring2, rels2 = parse_ideal_file(text)
        assert ring2 == RING and rels2 == rels

    def test_ring_header_format(self):
        assert format_ring_header(RING) == "ring: t:1, c1:1, c2:2"


def test_catalog_round_trips():
    from chowforge.catalog import (
        cor_1_10_presentation,
        thm_1_2_presentation,
        thm_1_3_presentation,
        thm_1_9_presentation,
    )

    presentations = [
        thm_1_2_presentation(1, 1),
        thm_1_2_presentation(3, 5),
        thm_1_3_presentation(2, 1),
        thm_1_3_presentation(8, 3),
        thm_1_9_presentation(9, 3),
        cor_1_10_presentation(6, 2),
        cor_1_10_presentation(6, 3),
    ]
    for P in presentations:
        ring, rels = parse_ideal_file(format_ideal_file(P.ring, P.relations))
        assert ring == P.ring
        assert tuple(rels) == P.relations


_exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2))
_polys = st.dictionaries(_exps, st.integers(-99, 99), max_size=8).map(
    lambda d: Polynomial(RING, d)
)


@settings(max_examples=1000, deadline=None)
@given(_polys)
def test_parse_print_round_trip(p):
    assert parse_poly(p.canonical(), RING) == p
