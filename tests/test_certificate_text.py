"""Properties of the certificate text: the writer and the reader follow the
same names, and no file makes ``verify-cert`` escape its exit codes."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from acforge import cli
from acforge.moves import (
    AcCertificate,
    CyclicPermute,
    Destabilize,
    InvertRelator,
    MultiplyRight,
    Stabilize,
    format_certificate,
    parse_certificate,
)
from acforge.presentation import Presentation
from acforge.words import free_reduce

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# x-names among the start names make the first free x-name skip them
NAMES = ("a", "b", "x1", "x2", "x0", "x10")


def words(m):
    """Freely reduced words of up to 4 letters over generators 1..m."""
    if m == 0:
        return st.just(())
    letters = st.sampled_from([x for g in range(1, m + 1) for x in (g, -g)])
    return st.lists(letters, max_size=4).map(free_reduce)


@st.composite
def presentations(draw):
    m = draw(st.integers(0, 3))
    gens = tuple(draw(st.permutations(NAMES))[:m])
    return Presentation(gens, tuple(draw(st.lists(words(m), max_size=3))))


@st.composite
def certificates(draw):
    """Moves that need not replay: indices out of range, DESTABs of an
    inner generator, of generator 0 and past the last; STAB words over the
    names live at that step."""
    start = draw(presentations())
    live = len(start.generators)
    index = st.integers(-1, 5)
    moves = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("CYC", "INV", "MULR", "STAB", "DESTAB")))
        if kind == "CYC":
            moves.append(CyclicPermute(draw(index), draw(st.integers(-5, 5))))
        elif kind == "INV":
            moves.append(InvertRelator(draw(index)))
        elif kind == "MULR":
            moves.append(MultiplyRight(draw(index), draw(index), draw(st.integers(-3, 3).filter(bool))))
        elif kind == "STAB":
            moves.append(Stabilize(draw(words(live))))
            live += 1
        else:
            g = draw(st.sampled_from((live, live - 1, 1, 0, -1, live + 1)))
            moves.append(Destabilize(g, draw(index)))
            if g == live > 0:
                live -= 1
    return AcCertificate(start, tuple(moves), draw(presentations()))


@PROPERTY
@given(certificates())
def test_certificate_text_round_trips(cert):
    text = format_certificate(cert)
    back = parse_certificate(text)
    assert back == cert
    assert format_certificate(back) == text


# each bad field, word, count, keyword or presentation is one choice among
# several good ones, so that many texts parse and reach the replay
FIELD = st.sampled_from(("0", "1", "-1") * 4 + ("2", "-7", "12345678901234567890", "9" * 4400))
STAB_WORD = st.sampled_from(("1", "a", "b", "x1", "a^-2 b") * 3 + ("q", "a^999999999", "a^" + "9" * 4400, "a b^"))
PRESENTATION = st.sampled_from(("< | >",) * 3 + ("< a | a >", "< a, b | a b, b >", "< x1, a | x1, a >", "< a |"))
FIELD_COUNTS = {"CYC": 2, "INV": 1, "MULR": 2, "MULRI": 2, "DESTAB": 2, "BOGUS": 1}
KEYWORDS = ("CYC", "INV", "MULR", "MULRI", "DESTAB", "DESTAB", "DESTAB", "STAB", "STAB") * 2 + ("BOGUS",)


def move_line(op):
    if op == "STAB":
        return STAB_WORD.map(lambda w: f"STAB {w}")
    counts = st.sampled_from((FIELD_COUNTS[op],) * 9 + (0, 1, 2, 3))
    return counts.flatmap(lambda k: st.lists(FIELD, min_size=k, max_size=k)).map(lambda f: " ".join([op] + f))


MOVE_LINE = st.sampled_from(KEYWORDS).flatmap(move_line)


@st.composite
def certificate_texts(draw):
    """Texts with each keyword, 0, negative and over-long int fields, wrong
    field counts, an unknown keyword and now and then no START or END."""
    lines = [f"START {draw(PRESENTATION)}"] if draw(st.integers(0, 9)) < 9 else []
    lines += draw(st.lists(MOVE_LINE, max_size=8))
    if draw(st.integers(0, 9)) < 9:
        lines.append(f"END {draw(PRESENTATION)}")
    return "\n".join(lines) + "\n"


@settings(PROPERTY, max_examples=300)
@given(certificate_texts())
def test_verify_cert_never_escapes_its_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "never-escapes.cert"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify-cert", str(path)])
    assert rc in (0, 1, 2)
    assert (rc == 2) == bool(err.getvalue())


def test_a_stab_of_an_empty_list_reads_back_equal():
    start = Presentation(("a",), ((1,),))
    cert = AcCertificate(start, (Stabilize([]),), Presentation(("a", "x1"), ((1,), (2,))))
    assert parse_certificate(format_certificate(cert)) == cert
