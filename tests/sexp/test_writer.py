"""Writer tests, including reader/writer round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.sexp.datum import (
    Char,
    MutableString,
    NIL,
    Pair,
    Symbol,
    UNSPECIFIED,
    list_to_pairs,
)
from repro.sexp.reader import read
from repro.sexp.writer import display_datum, write_datum


class TestWrite:
    def test_fixnum(self):
        assert write_datum(42) == "42"

    def test_flonum(self):
        assert write_datum(2.5) == "2.5"

    def test_flonum_integral(self):
        assert write_datum(2.0) == "2.0"

    def test_booleans(self):
        assert write_datum(True) == "#t"
        assert write_datum(False) == "#f"

    def test_nil(self):
        assert write_datum(NIL) == "()"

    def test_symbol(self):
        assert write_datum(Symbol("abc")) == "abc"

    def test_string_quoted(self):
        assert write_datum(MutableString('a"b')) == '"a\\"b"'

    def test_string_newline_escape(self):
        assert write_datum(MutableString("a\nb")) == '"a\\nb"'

    def test_char(self):
        assert write_datum(Char("x")) == "#\\x"

    def test_char_space(self):
        assert write_datum(Char(" ")) == "#\\space"

    def test_proper_list(self):
        assert write_datum(list_to_pairs([1, 2, 3])) == "(1 2 3)"

    def test_dotted_pair(self):
        assert write_datum(Pair(1, 2)) == "(1 . 2)"

    def test_improper_list(self):
        assert write_datum(list_to_pairs([1, 2], tail=3)) == "(1 2 . 3)"

    def test_vector(self):
        assert write_datum([1, 2]) == "#(1 2)"

    def test_quote_abbreviation(self):
        assert write_datum(read("'x")) == "'x"

    def test_unspecified(self):
        assert write_datum(UNSPECIFIED) == "#<void>"

    def test_integer_past_the_int_digit_limit(self):
        # 5000 digits is past CPython's default int-to-text limit.
        sevens = (10**5000 - 1) // 9 * 7
        assert write_datum(sevens) == "7" * 5000
        assert display_datum(-sevens) == "-" + "7" * 5000
        assert read(write_datum(sevens)) == sevens


class TestDisplay:
    def test_string_unquoted(self):
        assert display_datum(MutableString("hi")) == "hi"

    def test_char_bare(self):
        assert display_datum(Char("x")) == "x"

    def test_list_recursive_display(self):
        datum = list_to_pairs([MutableString("a"), Char("b")])
        assert display_datum(datum) == "(a b)"


class TestRoundTrip:
    CASES = [
        "42",
        "-3.5",
        "#t",
        "#f",
        "()",
        "(1 2 3)",
        "(1 . 2)",
        "(1 2 . 3)",
        "#(1 #(2 3) ())",
        '"str\\ning"',
        "#\\a",
        "#\\space",
        "(a (b (c (d))))",
        "'(quoted thing)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        datum = read(text)
        assert write_datum(read(write_datum(datum))) == write_datum(datum)


# Hypothesis: structural round-trip over generated datums.

_atoms = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.booleans(),
    st.sampled_from([Symbol(s) for s in ("a", "foo", "x->y", "+", "p?")]),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126, exclude_characters='"\\'),
        max_size=8,
    ).map(MutableString),
    st.just(NIL),
)


def _to_scheme_list(items):
    return list_to_pairs(items)


_datums = st.recursive(
    _atoms,
    lambda children: st.lists(children, max_size=4).map(_to_scheme_list),
    max_leaves=20,
)


@given(_datums)
def test_write_read_round_trip(datum):
    from repro.sexp.datum import scheme_equal

    assert scheme_equal(read(write_datum(datum)), datum)
