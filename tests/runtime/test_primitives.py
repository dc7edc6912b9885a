"""Primitive operation tests (shared by interpreter and VM)."""

import pytest

from repro.runtime.primitives import PRIMITIVES, is_primitive, prim_spec
from repro.runtime.values import Box, OutputPort, SchemeError
from repro.sexp.datum import (
    Char,
    MutableString,
    NIL,
    Pair,
    Symbol,
    UNSPECIFIED,
    list_to_pairs,
    pairs_to_list,
)


def call(name, *args, port=None):
    return PRIMITIVES[name].fn(list(args), port or OutputPort())


def slist(*items):
    return list_to_pairs(list(items))


class TestPairs:
    def test_cons_car_cdr(self):
        p = call("cons", 1, 2)
        assert call("car", p) == 1
        assert call("cdr", p) == 2

    def test_car_type_error(self):
        with pytest.raises(SchemeError):
            call("car", 5)

    def test_set_car(self):
        p = call("cons", 1, 2)
        call("set-car!", p, 9)
        assert p.car == 9

    def test_set_cdr(self):
        p = call("cons", 1, 2)
        call("set-cdr!", p, 9)
        assert p.cdr == 9

    def test_predicates(self):
        assert call("pair?", Pair(1, 2)) is True
        assert call("pair?", NIL) is False
        assert call("null?", NIL) is True
        assert call("null?", Pair(1, 2)) is False
        assert call("atom?", 5) is True
        assert call("atom?", Pair(1, 2)) is False

    def test_list_p(self):
        assert call("list?", slist(1, 2)) is True
        assert call("list?", Pair(1, 2)) is False


class TestListOps:
    def test_length(self):
        assert call("length", slist(1, 2, 3)) == 3
        assert call("length", NIL) == 0

    def test_length_improper(self):
        with pytest.raises(SchemeError):
            call("length", Pair(1, 2))

    def test_append(self):
        result = call("append", slist(1, 2), slist(3))
        assert pairs_to_list(result) == [1, 2, 3]

    def test_append_shares_tail(self):
        tail = slist(3)
        result = call("append", slist(1), tail)
        assert result.cdr is tail

    def test_reverse(self):
        assert pairs_to_list(call("reverse", slist(1, 2, 3))) == [3, 2, 1]

    def test_memq_found(self):
        ls = slist(Symbol("a"), Symbol("b"))
        hit = call("memq", Symbol("b"), ls)
        assert hit.car is Symbol("b")

    def test_memq_fixnums(self):
        assert call("memq", 2, slist(1, 2, 3)) is not False

    def test_memq_missing(self):
        assert call("memq", Symbol("z"), slist(Symbol("a"))) is False

    def test_member_structural(self):
        inner = slist(1, 2)
        assert call("member", slist(1, 2), slist(inner)) is not False

    def test_assq(self):
        alist = slist(Pair(Symbol("a"), 1), Pair(Symbol("b"), 2))
        assert call("assq", Symbol("b"), alist).cdr == 2
        assert call("assq", Symbol("c"), alist) is False

    def test_assoc(self):
        alist = slist(Pair(slist(1), Symbol("hit")))
        assert call("assoc", slist(1), alist).cdr is Symbol("hit")

    def test_list_tail(self):
        assert pairs_to_list(call("list-tail", slist(1, 2, 3), 1)) == [2, 3]

    def test_list_ref(self):
        assert call("list-ref", slist(10, 20, 30), 2) == 30

    def test_last_pair(self):
        assert call("last-pair", slist(1, 2, 3)).car == 3


class TestArithmetic:
    def test_basic(self):
        assert call("+", 2, 3) == 5
        assert call("-", 2, 3) == -1
        assert call("*", 4, 3) == 12

    def test_division(self):
        assert call("/", 6, 3) == 2
        assert call("/", 7, 2) == 3.5
        with pytest.raises(SchemeError):
            call("/", 1, 0)

    def test_quotient_truncates_toward_zero(self):
        assert call("quotient", 7, 2) == 3
        assert call("quotient", -7, 2) == -3
        assert call("quotient", 7, -2) == -3

    def test_remainder_sign_of_dividend(self):
        assert call("remainder", 7, 2) == 1
        assert call("remainder", -7, 2) == -1
        assert call("remainder", 7, -2) == 1

    def test_modulo_sign_of_divisor(self):
        assert call("modulo", -7, 2) == 1
        assert call("modulo", 7, -2) == -1

    def test_quotient_by_zero(self):
        with pytest.raises(SchemeError):
            call("quotient", 1, 0)

    def test_abs_min_max(self):
        assert call("abs", -4) == 4
        assert call("min", 2, 5) == 2
        assert call("max", 2, 5) == 5

    def test_expt_gcd(self):
        assert call("expt", 2, 10) == 1024
        assert call("gcd", 12, 18) == 6

    def test_sqrt_exact(self):
        assert call("sqrt", 16) == 4
        assert isinstance(call("sqrt", 16), int)

    def test_sqrt_inexact(self):
        assert call("sqrt", 2.0) == pytest.approx(1.41421356)

    def test_comparisons(self):
        assert call("<", 1, 2) is True
        assert call(">", 1, 2) is False
        assert call("<=", 2, 2) is True
        assert call(">=", 2, 3) is False
        assert call("=", 3, 3) is True

    def test_sign_predicates(self):
        assert call("zero?", 0) is True
        assert call("positive?", 3) is True
        assert call("negative?", -3) is True
        assert call("even?", 4) is True
        assert call("odd?", 3) is True

    def test_add1_sub1(self):
        assert call("add1", 4) == 5
        assert call("sub1", 4) == 3

    def test_type_errors(self):
        with pytest.raises(SchemeError):
            call("+", 1, Symbol("x"))
        with pytest.raises(SchemeError):
            call("<", True, 1)

    def test_floor(self):
        assert call("floor", 2.7) == 2.0
        assert call("floor", 5) == 5

    def test_exactness_conversions(self):
        assert call("exact->inexact", 3) == 3.0
        assert call("inexact->exact", 3.9) == 3


class TestEquality:
    def test_eq_symbols(self):
        assert call("eq?", Symbol("a"), Symbol("a")) is True

    def test_eq_fixnums_immediate(self):
        assert call("eq?", 10**6, 10**6) is True

    def test_eq_distinct_pairs(self):
        assert call("eq?", Pair(1, NIL), Pair(1, NIL)) is False

    def test_eqv_floats(self):
        assert call("eqv?", 1.5, 1.5) is True

    def test_equal_nested(self):
        assert call("equal?", slist(1, slist(2)), slist(1, slist(2))) is True

    def test_not(self):
        assert call("not", False) is True
        assert call("not", 0) is False
        assert call("not", NIL) is False


class TestTypePredicates:
    def test_all(self):
        assert call("boolean?", True) is True
        assert call("boolean?", 0) is False
        assert call("symbol?", Symbol("s")) is True
        assert call("number?", 3) is True
        assert call("number?", True) is False
        assert call("integer?", 3) is True
        assert call("integer?", 3.0) is True
        assert call("integer?", 3.5) is False
        assert call("string?", MutableString("")) is True
        assert call("char?", Char("c")) is True
        assert call("vector?", [1]) is True
        assert call("box?", Box(1)) is True


class TestVectors:
    def test_make_and_access(self):
        v = call("make-vector", 3, 0)
        assert call("vector-length", v) == 3
        call("vector-set!", v, 1, 9)
        assert call("vector-ref", v, 1) == 9

    def test_bounds(self):
        v = call("make-vector", 2, 0)
        with pytest.raises(SchemeError):
            call("vector-ref", v, 2)
        with pytest.raises(SchemeError):
            call("vector-set!", v, -1, 0)

    def test_negative_length(self):
        with pytest.raises(SchemeError):
            call("make-vector", -1, 0)

    def test_fill(self):
        v = call("make-vector", 3, 0)
        call("vector-fill!", v, 7)
        assert v == [7, 7, 7]


class TestStringsChars:
    def test_length_ref(self):
        s = MutableString("abc")
        assert call("string-length", s) == 3
        assert call("string-ref", s, 1) is Char("b")

    def test_set(self):
        s = MutableString("abc")
        call("string-set!", s, 0, Char("X"))
        assert s.text == "Xbc"

    def test_make_string(self):
        assert call("make-string", 3, Char("z")).text == "zzz"

    def test_append_and_compare(self):
        a = call("string-append", MutableString("ab"), MutableString("cd"))
        assert a.text == "abcd"
        assert call("string=?", a, MutableString("abcd")) is True
        assert call("string<?", MutableString("ab"), MutableString("b")) is True

    def test_substring(self):
        assert call("substring", MutableString("hello"), 1, 3).text == "el"
        with pytest.raises(SchemeError):
            call("substring", MutableString("hi"), 0, 5)

    def test_symbol_conversions(self):
        assert call("string->symbol", MutableString("foo")) is Symbol("foo")
        assert call("symbol->string", Symbol("bar")).text == "bar"

    def test_number_to_string(self):
        assert call("number->string", 42).text == "42"

    def test_number_to_string_past_the_int_digit_limit(self):
        sevens = (10**5000 - 1) // 9 * 7
        assert call("number->string", sevens).text == "7" * 5000

    def test_string_to_list(self):
        chars = pairs_to_list(call("string->list", MutableString("ab")))
        assert chars == [Char("a"), Char("b")]

    def test_char_conversions(self):
        assert call("char->integer", Char("A")) == 65
        assert call("integer->char", 97) is Char("a")

    def test_char_comparisons_and_case(self):
        assert call("char=?", Char("a"), Char("a")) is True
        assert call("char<?", Char("a"), Char("b")) is True
        assert call("char-upcase", Char("a")) is Char("A")
        assert call("char-downcase", Char("Z")) is Char("z")
        assert call("char-alphabetic?", Char("q")) is True
        assert call("char-numeric?", Char("4")) is True


class TestBoxes:
    def test_box_life_cycle(self):
        b = call("box", 1)
        assert call("unbox", b) == 1
        call("set-box!", b, 2)
        assert call("unbox", b) == 2

    def test_unbox_type_error(self):
        with pytest.raises(SchemeError):
            call("unbox", 5)


class TestOutputAndMisc:
    def test_display(self):
        port = OutputPort()
        call("display", MutableString("hi"), port=port)
        assert port.contents() == "hi"

    def test_write_quotes_strings(self):
        port = OutputPort()
        call("write", MutableString("hi"), port=port)
        assert port.contents() == '"hi"'

    def test_newline(self):
        port = OutputPort()
        call("newline", port=port)
        assert port.contents() == "\n"

    def test_void(self):
        assert call("void") is UNSPECIFIED

    def test_error_raises(self):
        with pytest.raises(SchemeError) as exc:
            call("error", MutableString("boom"), slist(1))
        assert "boom" in str(exc.value)


class TestSpecTable:
    def test_is_primitive(self):
        assert is_primitive("cons")
        assert not is_primitive("frobnicate")

    def test_arities_positive(self):
        for name, spec in PRIMITIVES.items():
            assert spec.arity >= 0, name
            assert spec.name == name

    def test_table_covers_core_set(self):
        for name in ("cons", "car", "cdr", "+", "-", "vector-ref", "eq?", "display"):
            assert is_primitive(name)

    def test_prim_spec_lookup(self):
        assert prim_spec("cons").arity == 2
