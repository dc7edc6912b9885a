"""Reader tests: datum syntax accepted by the front end."""

import pytest

from repro.sexp.datum import Char, NIL, Pair, Symbol, pairs_to_list
from repro.sexp.reader import ReaderError, read, read_all


class TestAtoms:
    def test_fixnum(self):
        assert read("42") == 42

    def test_negative_fixnum(self):
        assert read("-17") == -17

    def test_positive_sign(self):
        assert read("+9") == 9

    def test_flonum(self):
        assert read("3.25") == 3.25

    def test_flonum_negative(self):
        assert read("-0.5") == -0.5

    def test_flonum_exponent(self):
        assert read("1e3") == 1000.0

    def test_integer_past_the_int_digit_limit(self):
        # 5000 digits is past CPython's default int-from-text limit;
        # the literal must read as that integer, not as the float inf.
        sevens = (10**5000 - 1) // 9 * 7
        assert read("7" * 5000) == sevens
        assert read("-" + "7" * 5000) == -sevens

    def test_symbol(self):
        assert read("foo") is Symbol("foo")

    def test_symbol_with_punctuation(self):
        assert read("list->vector!?") is Symbol("list->vector!?")

    def test_plus_is_symbol(self):
        assert read("+") is Symbol("+")

    def test_minus_is_symbol(self):
        assert read("-") is Symbol("-")

    def test_ellipsis_is_symbol(self):
        assert read("...") is Symbol("...")

    def test_arrow_symbol(self):
        assert read("->x") is Symbol("->x")

    def test_true(self):
        assert read("#t") is True

    def test_false(self):
        assert read("#f") is False

    def test_malformed_number_raises(self):
        with pytest.raises(ReaderError):
            read("1.2.3")


class TestCharacters:
    def test_simple_char(self):
        assert read("#\\a") is Char("a")

    def test_space_char(self):
        assert read("#\\space") is Char(" ")

    def test_newline_char(self):
        assert read("#\\newline") is Char("\n")

    def test_tab_char(self):
        assert read("#\\tab") is Char("\t")

    def test_paren_char(self):
        assert read("#\\(") is Char("(")

    def test_digit_char(self):
        assert read("#\\0") is Char("0")

    def test_unknown_char_name(self):
        with pytest.raises(ReaderError):
            read("#\\bogus")


class TestStrings:
    def test_empty_string(self):
        assert read('""').text == ""

    def test_simple_string(self):
        assert read('"hello"').text == "hello"

    def test_escapes(self):
        assert read(r'"a\nb\t\"q\""').text == 'a\nb\t"q"'

    def test_unterminated(self):
        with pytest.raises(ReaderError):
            read('"oops')

    def test_bad_escape(self):
        with pytest.raises(ReaderError):
            read(r'"\q"')


class TestLists:
    def test_empty_list(self):
        assert read("()") is NIL

    def test_flat_list(self):
        assert pairs_to_list(read("(1 2 3)")) == [1, 2, 3]

    def test_nested_list(self):
        datum = read("(a (b c) d)")
        items = pairs_to_list(datum)
        assert items[0] is Symbol("a")
        assert pairs_to_list(items[1]) == [Symbol("b"), Symbol("c")]

    def test_dotted_pair(self):
        datum = read("(1 . 2)")
        assert isinstance(datum, Pair)
        assert datum.car == 1 and datum.cdr == 2

    def test_dotted_list(self):
        datum = read("(1 2 . 3)")
        assert datum.car == 1
        assert datum.cdr.car == 2
        assert datum.cdr.cdr == 3

    def test_dot_requires_prefix(self):
        with pytest.raises(ReaderError):
            read("(. 2)")

    def test_dot_requires_single_tail(self):
        with pytest.raises(ReaderError):
            read("(1 . 2 3)")

    def test_unterminated_list(self):
        with pytest.raises(ReaderError):
            read("(1 2")

    def test_stray_close(self):
        with pytest.raises(ReaderError):
            read(")")

    def test_symbol_starting_with_dot(self):
        # ".x" is a symbol, not a dot
        assert pairs_to_list(read("(.x)")) == [Symbol(".x")]


class TestVectors:
    def test_empty_vector(self):
        assert read("#()") == []

    def test_vector(self):
        assert read("#(1 2 3)") == [1, 2, 3]

    def test_nested_vector(self):
        assert read("#(1 #(2) 3)") == [1, [2], 3]


class TestQuotation:
    def test_quote(self):
        datum = read("'x")
        assert pairs_to_list(datum) == [Symbol("quote"), Symbol("x")]

    def test_quasiquote(self):
        assert read("`x").car is Symbol("quasiquote")

    def test_unquote(self):
        assert read(",x").car is Symbol("unquote")

    def test_unquote_splicing(self):
        assert read(",@x").car is Symbol("unquote-splicing")

    def test_quoted_list(self):
        datum = read("'(1 2)")
        assert pairs_to_list(pairs_to_list(datum)[1]) == [1, 2]


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert read("; comment\n42") == 42

    def test_comment_inside_list(self):
        assert pairs_to_list(read("(1 ; two\n 3)")) == [1, 3]

    def test_block_comment(self):
        assert read("#| ignore |# 7") == 7

    def test_nested_block_comment(self):
        assert read("#| a #| b |# c |# 8") == 8

    def test_datum_comment(self):
        assert pairs_to_list(read("(1 #;(2 3) 4)")) == [1, 4]

    def test_unterminated_block_comment(self):
        with pytest.raises(ReaderError):
            read("#| forever")


class TestReadAll:
    def test_multiple_datums(self):
        assert read_all("1 2 3") == [1, 2, 3]

    def test_empty_input(self):
        assert read_all("   ; nothing\n") == []

    def test_read_requires_datum(self):
        with pytest.raises(ReaderError):
            read("   ")

    def test_error_position(self):
        try:
            read('(1\n"unterminated')
        except ReaderError as e:
            assert e.line == 2
        else:  # pragma: no cover
            raise AssertionError("expected ReaderError")
