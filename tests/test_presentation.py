import random
import string
import time
import tracemalloc

import pytest

from acforge.intmatrix import matrix_from_text
from acforge.moves import parse_certificate
from acforge.presentation import (
    EMPTY_PRESENTATION,
    AugmentedPresentation,
    ParseError,
    Presentation,
    content_lines,
    format_presentation,
    format_word,
    is_balanced,
    parse_presentation,
    parse_raw,
    parse_word,
    write_text,
)

RAPAPORT = "< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >"
POINCARE = "< a, b | a b^2 a b^-1, a^4 b a^-1 b >"


@pytest.mark.parametrize("record", [Presentation, AugmentedPresentation])
@pytest.mark.parametrize("x", [0, 3, 1.0], ids=["zero", "out-of-range", "float"])
def test_records_check_the_letters_of_their_words(record, x):
    with pytest.raises(ValueError) as info:
        record(("a", "b"), ((1, x), (2,)))
    assert str(info.value) == f"entry 2 of the word, {x!r}, is not a letter of 2 generator(s)"


def test_parse_rapaport():
    p = parse_presentation(RAPAPORT)
    assert p.generators == ("a", "b", "c")
    assert len(p.relators) == 3
    assert p.relators[0] == (-2, -3, -3, 2, 3, 3, 3)
    assert p.relators[1] == (-3, -1, -1, 3, 1, 1, 1)
    assert p.relators[2] == (-1, -2, -2, 1, 2, 2, 2)


def test_parse_empty():
    assert parse_presentation("< | >") == EMPTY_PRESENTATION


def test_parse_poincare():
    p = parse_presentation(POINCARE)
    assert p.generators == ("a", "b")
    assert p.relators == ((1, 2, 2, 1, -2), (1, 1, 1, 1, 2, -1, 2))


def test_relators_reduced_at_construction():
    p = parse_presentation("< alpha | alpha^3 alpha^-2 >")
    assert p.relators == ((1,),)
    assert format_presentation(p) == "< alpha | alpha >"


def test_print_examples():
    assert format_presentation(EMPTY_PRESENTATION) == "< | >"
    assert format_presentation(parse_presentation(RAPAPORT)) == RAPAPORT
    assert format_presentation(parse_presentation("< a | >")) == "< a | >"
    assert format_presentation(parse_presentation("< | 1 >")) == "< | 1 >"


def test_round_trip():
    for text in (RAPAPORT, POINCARE, "< | >", "< a | >", "< x_1, Y2 | x_1^-5 Y2 >"):
        p = parse_presentation(text)
        assert parse_presentation(format_presentation(p)) == p


def test_comments_and_whitespace():
    p = parse_presentation("# heading\n< a,\n  b |  # gens done\n a b^2 a b^-1,\n a^4 b a^-1 b >\n")
    assert p == parse_presentation(POINCARE)


def test_is_balanced():
    assert is_balanced(parse_presentation(RAPAPORT))
    assert not is_balanced(parse_presentation("< a | >"))
    assert not is_balanced(parse_presentation("< a, b | a b a b^-1 >"))
    assert is_balanced(EMPTY_PRESENTATION)


@pytest.mark.parametrize(
    "text",
    [
        "< a, a | >",  # duplicate generator
        "< a | b >",  # undeclared generator
        "< a | a^0 >",  # zero exponent
        "< a | a",  # missing '>'
        "a | a >",  # missing '<'
        "< a | , a >",  # empty word slot
        "< a, | a >",  # dangling comma
        "< a | a > junk",  # trailing input
        "< a | a ^ >",  # missing exponent
        "< a | a^1000001 >",  # expands past MAX_LETTERS
        "< a | a^600000, a^-600000 >",  # the cap counts every word of the text
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_presentation("< a |\n b >")
    assert exc.value.line == 2
    assert exc.value.col == 2


@pytest.mark.parametrize(
    "text, position, message",
    [
        # the first fault in reading order wins, however far ahead a bad character is
        ("< a | b a $ >", "1:7", "undeclared generator 'b'"),
        # ... but the scanner reads one token ahead of the parser
        ("< a | b é >", "1:9", "unexpected character 'é'"),
        ("< a | a^5 $ >", "1:11", "unexpected character '$'"),
        # the end of input after an unterminated comment is the end of the text
        ("< a | # done", "1:13", "expected a word ('1' or terms)"),
        # an exponent too long for int() is still past the letter cap
        ("< a | a^" + "9" * 5000 + " >", "1:7", "input expands to more than"),
    ],
    ids=[
        "undeclared-before-bad-char",
        "bad-char-in-lookahead",
        "bad-char-after-exponent",
        "open-comment",
        "huge-exponent",
    ],
)
def test_parse_error_reading_order(text, position, message):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value).startswith(f"{position}: {message}")


def test_early_error_in_long_text_allocates_little():
    text = "< a | b" + " a" * 10**6 + " >"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^1:7: undeclared generator 'b'"):
            parse_presentation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_many_generator_names_parse_fast():
    names = [f"g{i}" for i in range(40_000)]
    text = f"< {', '.join(names)} | >"
    t0 = time.perf_counter()
    p = parse_presentation(text)
    assert time.perf_counter() - t0 < 3
    assert p.generators == tuple(names)


def test_fuzz_never_crashes():
    rng = random.Random(13)
    alphabet = "<>|,^ab1- \n#_" + string.digits + "é²٣\v\u00a0"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse_presentation(text)
        except ParseError:
            pass


def test_parse_raw_keeps_pairs():
    names, rels = parse_raw("< a | a a a^-1 >")
    assert names == ("a",)
    assert rels == ((1, 1, -1),)
    # the standard parse reduces the same text
    assert parse_presentation("< a | a a a^-1 >").relators == ((1,),)


def test_format_word_collapses_runs():
    assert format_word((1, 1, -1), ("a",)) == "a^2 a^-1"
    assert format_word((), ("a",)) == "1"
    assert parse_word("b^-1 c^-2 b c^3", {"a": 1, "b": 2, "c": 3}) == (-2, -3, -3, 2, 3, 3, 3)
    assert parse_word("1", {"a": 1}) == ()


def test_presentation_validates():
    with pytest.raises(ValueError):
        Presentation(("a",), ((2,),))
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation(("1bad",), ())


@pytest.mark.parametrize(
    "old", [None, "", "x" * 5, "0123456789\n", "ä" * 500], ids=["missing", "empty", "shorter", "equal", "longer"]
)
def test_write_text_leaves_exactly_the_new_bytes(tmp_path, old):
    path = tmp_path / "f.txt"
    if old is not None:
        path.write_text(old, encoding="utf-8")
    write_text(path, "< ab | 1 >\n")
    assert path.read_bytes() == b"< ab | 1 >\n"


# the line files: what ``content_lines`` skips, each reader skips alike
LINE_FILES = {
    "certificate": (
        parse_certificate,
        "START < a, b | a, b >\nSTAB a b^-1\nMULR 1 2\nMULR 1 2\nMULRI 2 1\nCYC 1 -1\nINV 2\nDESTAB 3 3\nEND < a, b | a b, b >\n",
    ),
    "matrix": (matrix_from_text, "3 3\n1 7 0\n0 1 -2\n0 0 1\n"),
}
DECORATIONS = {
    "header-comment": lambda lines: "\n".join([lines[0] + "  # the first line", *lines[1:]]) + "\n",
    "comment-lines": lambda lines: "# leading\n" + "".join(f"{ln}\n   # between\n" for ln in lines),
    "blank-lines": lambda lines: "\n \t\n" + "".join(f"{ln}\n\n" for ln in lines) + "  ",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "all": lambda lines: "#\r\n\r\n" + "".join(f"{ln} #{k}\r\n \r\n" for k, ln in enumerate(lines)),
}


@pytest.mark.parametrize("decoration", DECORATIONS)
@pytest.mark.parametrize("kind", LINE_FILES)
def test_line_file_readers_skip_the_same_decorations(kind, decoration):
    read, plain = LINE_FILES[kind]
    decorated = DECORATIONS[decoration](plain.splitlines())
    assert decorated != plain
    assert read(decorated) == read(plain)


def test_content_lines_numbers_the_lines_that_hold_more_than_a_comment():
    assert content_lines("") == []
    assert content_lines(" # only\n\n  a b # c\r\n#\nd\n") == [(3, "a b"), (5, "d")]
