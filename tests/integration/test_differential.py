"""Differential testing: the compiled VM must agree with the reference
interpreter on every configuration, including hypothesis-generated
programs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CompilerConfig
from repro.fuzz.genprog import ProgramGenerator
from repro.pipeline import run_source
from repro.sexp.writer import write_datum
from tests.conftest import CONFIG_MATRIX, assert_compiles_like_interpreter, interp_value

PROGRAMS = [
    "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)",
    """(define (tak x y z)
         (if (not (< y x)) z
             (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
       (tak 7 5 2)""",
    "(let loop ((i 0) (acc 1)) (if (= i 12) acc (loop (+ i 1) (* acc 2))))",
    "(call/cc (lambda (k) (+ 1 (k 42))))",
    "(+ 1 (call/cc (lambda (k) (+ 1 (k 40)))))",
    "(define (make-adder n) (lambda (x) (+ x n))) ((make-adder 3) 4)",
    "(let ((x 1)) (set! x (+ x 41)) x)",
    "(map (lambda (x) (* x x)) '(1 2 3 4))",
    "(define (sw a b) (cons a b)) (define (go x y) (sw y x)) (go 10 4)",
    "(define (rot a b c) (if (zero? a) (list a b c) (rot (- a 1) c b))) (rot 5 'x 'y)",
    "(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 10) s))",
    "(filter odd? (iota 10))",
    "(define (f8 a b c d e f g h) (list a b c d e f g h)) (f8 1 2 3 4 5 6 7 8)",
    "(define (deep x) (+ (+ (+ x 1) (+ x 2)) (+ (+ x 3) (+ (+ x 4) (+ x 5))))) (deep 1)",
    "(define (g n) (if (and (> n 0) (even? n)) 'pos-even (if (or (= n 1) (= n -1)) 'unit 'other))) (list (g 2) (g 1) (g 5))",
    "(define v (make-vector 4 0)) (vector-set! v 2 'z) (vector-ref v 2)",
    "(append '(1) (append '(2) '(3)))",
    "(define (two-calls x) (+ (two x) (two x))) (define (two n) (* n 2)) (two-calls 3)",
]


@pytest.mark.parametrize("config", CONFIG_MATRIX)
@pytest.mark.parametrize("source", PROGRAMS)
def test_fixed_programs(source, config):
    assert_compiles_like_interpreter(source, config)


# ---------------------------------------------------------------------------
# Random first-order programs
# ---------------------------------------------------------------------------

_HELPERS = """
(define (h0 a) (+ a 1))
(define (h1 a b) (if (< a b) (h0 a) (h0 b)))
(define (h2 a b) (- (h1 a b) (h1 b a)))
"""

_VARS = ("va", "vb", "vc")


@st.composite
def _int_expr(draw, depth=3, scope=_VARS):
    if depth == 0:
        return draw(
            st.one_of(
                st.integers(min_value=-50, max_value=50).map(str),
                st.sampled_from(scope),
            )
        )
    kind = draw(
        st.sampled_from(
            ["leaf", "add", "sub", "mul", "if", "let", "call1", "call2", "seq"]
        )
    )
    def sub():
        return draw(_int_expr(depth=depth - 1, scope=scope))

    if kind == "leaf":
        return draw(_int_expr(depth=0, scope=scope))
    if kind == "add":
        return f"(+ {sub()} {sub()})"
    if kind == "sub":
        return f"(- {sub()} {sub()})"
    if kind == "mul":
        return f"(* {sub()} {sub()})"
    if kind == "if":
        test = draw(_bool_expr(depth=depth - 1, scope=scope))
        return f"(if {test} {sub()} {sub()})"
    if kind == "let":
        var = draw(st.sampled_from(("la", "lb")))
        inner = draw(_int_expr(depth=depth - 1, scope=(*scope, var)))
        return f"(let (({var} {sub()})) {inner})"
    if kind == "call1":
        return f"(h0 {sub()})"
    if kind == "call2":
        return f"(h2 {sub()} {sub()})"
    return f"(begin {sub()} {sub()})"


@st.composite
def _bool_expr(draw, depth=2, scope=_VARS):
    a = draw(_int_expr(depth=depth, scope=scope))
    b = draw(_int_expr(depth=depth, scope=scope))
    op = draw(st.sampled_from(["<", ">", "=", "<=", ">="]))
    base = f"({op} {a} {b})"
    combo = draw(st.sampled_from(["plain", "not", "and", "or"]))
    if combo == "plain":
        return base
    if combo == "not":
        return f"(not {base})"
    c = draw(_int_expr(depth=1, scope=scope))
    other = f"(odd? {c})"
    return f"({combo} {base} {other})"


@st.composite
def random_program(draw):
    body = draw(_int_expr(depth=4))
    return f"{_HELPERS}\n(define (main va vb vc) {body})\n(main 3 -7 11)"


_SAMPLED_CONFIGS = [
    CompilerConfig(),
    CompilerConfig.baseline(),
    CompilerConfig(save_strategy="late", restore_strategy="lazy"),
    CompilerConfig(num_arg_regs=2, num_temp_regs=1, shuffle_strategy="naive"),
    CompilerConfig(save_convention="callee", save_strategy="lazy"),
]


@given(random_program(), st.sampled_from(range(len(_SAMPLED_CONFIGS))))
@settings(max_examples=60, deadline=None)
def test_random_programs(source, config_index):
    assert_compiles_like_interpreter(
        source, _SAMPLED_CONFIGS[config_index], prelude=False
    )


def test_generated_bignum_result():
    """Program 94 of ``ProgramGenerator(1)`` returns an integer past
    CPython's 4300-digit int-to-text limit; the default fast path must
    print it exactly as the interpreter's value prints."""
    source = ProgramGenerator(1).generate(94).source
    expected = write_datum(interp_value(source))
    assert len(expected) > 4300
    assert write_datum(run_source(source).value) == expected
