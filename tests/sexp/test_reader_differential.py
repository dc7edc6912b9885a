"""The regex-tokenized reader against the reader it replaced.

``tests/sexp/reference_reader.py`` is the old character-at-a-time
reader, kept verbatim.  Both must return the same datums, or raise the
same :class:`ReaderError` at the same line and column, for ``read`` and
``read_all`` alike.  The one intended difference is a dot inside a
vector: the reference read on past it (and ``#(1 . 2)`` then failed
with a bare ``ValueError``); the new reader stops at the dot.

Canonical forms, the source half of every compile-cache key, must not
move either, so existing disk caches still hit.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite.programs import BENCHMARKS
from repro.fuzz.genprog import ProgramGenerator
from repro.pipeline import PRELUDE
from repro.serve.cache import canonical_source
from repro.sexp import reader
from repro.sexp.datum import Pair
from repro.sexp.writer import write_datum
from tests.sexp import reference_reader

#: Pieces that matter to a reader, glued together without separators
#: so that their boundaries make new tokens too.
_PIECES = [
    "(", ")", "(", ")", "((", "))",
    " ", "  ", "\n", "\t", "\r\n",
    ";", "; note\n", "#|", "|#", "#| c |#", "#;", "#; ",
    "'", "`", ",", ",@", ".", " . ", "..",
    '"', '"s"', '"a\\nb"', '"\\t\\"\\\\\\0"', '"\\q"', '"\\', "\\",
    "#t", "#f", "#(", "#", "#x", "#\\a", "#\\space", "#\\newline",
    "#\\(", "#\\", "#\\bogus", "#\\a1", "#\\1",
    "0", "1", "-2", "+7", "3.5", "-.5", "1e3", "1.2.3", "1x", "1_0",
    "1+", "-1+", "...", "+", "-", ".5", "+.x", "..5",
    "x", "foo", "a.b", "->y", "|", "@", "²", " ",
]

_texts = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


def _outcome(module, fn, text):
    try:
        value = getattr(module, fn)(text)
    except module.ReaderError as exc:
        return ("error", str(exc), exc.line, exc.column)
    except Exception as exc:  # noqa: BLE001 - the reference's ValueError
        return ("raised", type(exc).__name__, str(exc))
    if fn == "read":
        return ("ok", write_datum(value), type(value).__name__)
    return ("ok", [write_datum(v) for v in value], [type(v).__name__ for v in value])


def _assert_same(fn, text):
    new = _outcome(reader, fn, text)
    old = _outcome(reference_reader, fn, text)
    if new[0] == "error" and new[1].startswith("dot in vector"):
        # The intended difference: whatever the reference did, it did
        # on reading past the dot.
        if old[0] == "error":
            assert (old[2], old[3]) >= (new[2], new[3]), (text, old, new)
        return
    assert new == old, text


@settings(max_examples=1000, deadline=None)
@given(_texts)
def test_read_matches_the_reference_reader(text):
    _assert_same("read", text)


@settings(max_examples=1000, deadline=None)
@given(_texts)
def test_read_all_matches_the_reference_reader(text):
    _assert_same("read_all", text)


@pytest.mark.parametrize(
    "text",
    [
        "(1 . 2 x)", "(1 . 2 #;3)", "(1 . 2 #;)", "(1 . .)", "(. 2)",
        "(#;1 . 2)", "(1 #;. 2)", "#;#;a b c", "'#;a", "#|#||#|#",
        "#tfoo", "²", "1_000", "٣", '(a\n b\n  "x', "7" * 5000,
    ],
)
def test_edge_cases_match_the_reference_reader(text):
    _assert_same("read", text)
    _assert_same("read_all", text)


@pytest.mark.parametrize(
    "text, column",
    [("#(1 . 2)", 5), ("#(1 . ())", 5), ("(a #(b . c))", 8), ("#(a .\n", 5)],
)
def test_a_dotted_vector_is_a_read_error(text, column):
    with pytest.raises(reader.ReaderError) as info:
        reader.read(text)
    assert str(info.value).startswith("dot in vector")
    assert (info.value.line, info.value.column) == (1, column)


def _corpus():
    yield "prelude", PRELUDE
    for name in sorted(BENCHMARKS):
        yield name, BENCHMARKS[name].source
    for seed in (1, 2, 7):
        generator = ProgramGenerator(seed)
        for index in range(240):
            yield f"gen{seed}-{index}", generator.generate(index).source


def test_canonical_forms_do_not_move():
    checked = 0
    for name, source in _corpus():
        expected = "prelude\n" + "\n".join(
            write_datum(form) for form in reference_reader.read_all(source)
        )
        assert canonical_source(source) == expected, name
        checked += 1
    assert checked == 1 + len(BENCHMARKS) + 3 * 240


DEPTH = 100_000


@pytest.mark.parametrize(
    "text",
    ["(" * DEPTH + ")" * DEPTH, "#(" * DEPTH + ")" * DEPTH, "'" * DEPTH + "x",
     "(" * DEPTH + "1 . 2" + ")" * DEPTH],
    ids=["lists", "vectors", "quotes", "dotted"],
)
def test_depth_is_bounded_by_memory_not_the_recursion_limit(text):
    limit = sys.getrecursionlimit()
    assert write_datum(reader.read(text)) == text
    assert len(reader.read_all(text + "\n" + text)) == 2
    assert sys.getrecursionlimit() == limit


def test_a_deep_value_writes_iteratively():
    # Vectors holding dotted pairs whose tails nest: every kind of
    # frame the writer keeps, 100,000 deep.
    value = []
    for _ in range(DEPTH):
        value = [Pair(1, value)]
    assert write_datum(value) == "#((1 . " * DEPTH + "#()" + "))" * DEPTH
