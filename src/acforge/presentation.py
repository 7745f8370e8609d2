"""Finite group presentations and their text format.

Grammar (comments run from ``#`` to end of line, whitespace is free):

    presentation := '<' gen_list '|' rel_list '>'
    gen_list     := empty | name (','? name)*   # the comma may be left out
    rel_list     := empty | word (',' word)*
    word         := '1' | term+
    term         := name ('^' int)?      # int is a nonzero signed decimal

Names match ``[A-Za-z][A-Za-z0-9_]*``; an int's digits are any Unicode
decimal digits, read as ``int()`` reads them.  ``< | >`` is the empty
(trivial) presentation.  Relators are stored freely reduced; generator order is the
declaration order and is significant (matrices and duals index by it).
Powers are expanded, so one parsed text may expand to at most
``MAX_LETTERS`` letters; longer input is a ParseError.
Relators are NOT cyclically reduced on input: cyclic permutation is an
explicit move, so silently rotating words would corrupt certificates.

Two records hold a presentation: ``Presentation`` stores its relators
freely reduced, ``AugmentedPresentation`` stores them raw, cancelling
pairs kept.  Both pass one check of the names and the raw letters and
store tuples, so records built from lists equal and hash like records
built from tuples.  ``unchecked_presentation`` is the one build that skips
the check, for fields that have already passed it.

One compiled regex scans the text on demand, one token ahead of the
parser; no token list is built, so memory is bounded by what has been
parsed so far.  Any character outside the grammar (a non-ASCII letter
included) is a ParseError.  Errors are reported in reading order: the
first fault the parser reaches wins, except that a bad character in the
token right after a faulty one is met first, because that token has
already been scanned.

Certificates and integer matrices are line files, and their readers share
two rules kept here: ``content_lines`` gives the lines that hold more than
a ``#`` comment, and ``int_field`` reads one integer field, for the
witness reader of ``dual`` too.  ``write_text`` writes every artefact file
the CLI leaves: presentations, certificates and witnesses.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from .record import Record, set_field
from .words import Word, check_letters, free_reduce

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# bounds memory: checked before a power is expanded
MAX_LETTERS = 10**6


class ParseError(ValueError):
    """Syntax or semantic error in presentation text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _set_checked(record, generators: Sequence[str], relators: Sequence[Sequence[int]]) -> None:
    """Store the names and raw relators on ``record`` as tuples, after the
    one check of both presentation records: each name matches ``NAME_RE``
    and is new, and each relator passes ``words.check_letters``.  Raises
    ValueError."""
    generators = tuple(generators)
    seen = set()
    for name in generators:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad generator name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate generator name {name!r}")
        seen.add(name)
    relators = tuple(map(tuple, relators))
    for r in relators:
        check_letters(r, len(generators))
    set_field(record, "generators", generators)
    set_field(record, "relators", relators)


class Presentation(Record):
    """Ordered generator names plus freely reduced relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Sequence[str], relators: Sequence[Sequence[int]]):
        set_field(self, "generators", generators)
        set_field(self, "relators", relators)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields as given and store them as tuples
        (``_set_checked``), the relators reduced; a method of its own, looked
        up on each construction, so that a profiler can wrap it."""
        _set_checked(self, self.generators, self.relators)
        set_field(self, "relators", tuple(map(free_reduce, self.relators)))


def unchecked_presentation(generators: Tuple[str, ...], relators: Tuple[Word, ...]) -> Presentation:
    """A Presentation built without the validating constructor, for fields
    already known to pass it: a tuple of good, distinct names and a tuple of
    freely reduced tuples of letters of that many generators.  Its callers
    are the replay state of ``moves``, ``AugmentedPresentation.reduced`` and
    ``dual.dualize``."""
    p = object.__new__(Presentation)
    set_field(p, "generators", generators)
    set_field(p, "relators", relators)
    return p


class AugmentedPresentation(Record):
    """A presentation whose relators are raw letter sequences.

    Cancelling pairs are preserved, and the fields pass the check of
    ``Presentation``; ``reduced()`` collapses back to the ordinary
    presentation.
    """

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Sequence[str], relators: Sequence[Sequence[int]]):
        _set_checked(self, generators, relators)

    def reduced(self) -> Presentation:
        return unchecked_presentation(self.generators, tuple(map(free_reduce, self.relators)))


EMPTY_PRESENTATION = Presentation((), ())


def is_balanced(p: Presentation) -> bool:
    """True when the generator and relator counts agree."""
    return len(p.generators) == len(p.relators)


def require_balanced(p) -> None:
    """ValueError naming both counts unless p (or an augmented p) is balanced."""
    if not is_balanced(p):
        raise ValueError(
            f"presentation is not balanced: {len(p.generators)} generator(s), "
            f"{len(p.relators)} relator(s)"
        )


def total_letters(p: Presentation) -> int:
    return sum(map(len, p.relators))


# --- parser --------------------------------------------------------------

# Blanks and comments match no named group and are skipped.
_TOKEN_RE = re.compile(
    rf"[ \t\r\n]+|#[^\n]*|(?P<name>{NAME_RE.pattern})|(?P<int>-?\d+)|(?P<punct>[<>|,^])"
)


class _Parser:
    """Reads text left to right, scanning one token ahead of the grammar.

    ``kind`` ('name', 'int', 'punct' or 'end'), ``val`` and ``off`` (its
    offset in the text) describe the next unread token.  Line and column
    are worked out only when an error is raised.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # scanning resumes here
        self.letters = 0  # expanded so far, across all words
        self.advance()

    def advance(self) -> None:
        text, pos = self.text, self.pos
        while True:
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                self.off = pos
                if pos < len(text):
                    self.fail(f"unexpected character {text[pos]!r}")
                self.kind, self.val = "end", ""
                return
            pos = m.end()
            if m.lastgroup:
                self.kind, self.val, self.off, self.pos = m.lastgroup, m.group(), m.start(), pos
                return

    def take(self) -> str:
        val = self.val
        self.advance()
        return val

    def at(self, punct: str) -> bool:
        return self.kind == "punct" and self.val == punct

    def expect(self, punct: str) -> None:
        if not self.at(punct):
            self.fail(f"expected {punct!r}, found {self.val or 'end of input'!r}")
        self.advance()

    def expect_end(self) -> None:
        if self.kind != "end":
            self.fail(f"trailing input {self.val!r}")

    def fail(self, message: str, off: Optional[int] = None) -> NoReturn:
        if off is None:
            off = self.off
        line = self.text.count("\n", 0, off) + 1
        raise ParseError(message, line, off - self.text.rfind("\n", 0, off))

    def word(self, gen_index: Dict[str, int]) -> Word:
        if self.kind == "int" and self.val == "1":
            self.advance()
            return ()
        if self.kind != "name":
            self.fail("expected a word ('1' or terms)")
        letters: List[int] = []
        while self.kind == "name":
            off = self.off
            name = self.take()
            g = gen_index.get(name)
            if g is None:
                self.fail(f"undeclared generator {name!r}", off)
            exp = 1
            if self.at("^"):
                self.advance()
                if self.kind != "int":
                    self.fail(f"expected integer exponent, found {self.val!r}")
                exp_off = self.off
                digits = self.take()
                try:
                    exp = int(digits)
                except ValueError:  # too many digits for int(): far past the cap
                    exp = MAX_LETTERS + 1
                if exp == 0:
                    self.fail("zero exponent", exp_off)
            self.letters += abs(exp)
            if self.letters > MAX_LETTERS:
                self.fail(f"input expands to more than {MAX_LETTERS} letters", off)
            letters.extend([g if exp > 0 else -g] * abs(exp))
        return tuple(letters)


def _parse_body(text: str) -> Tuple[Tuple[str, ...], Tuple[Word, ...]]:
    p = _Parser(text)
    p.expect("<")
    gen_index: Dict[str, int] = {}
    while p.kind == "name":
        off = p.off
        name = p.take()
        if name in gen_index:
            p.fail(f"duplicate generator name {name!r}", off)
        gen_index[name] = len(gen_index) + 1
        if p.at(","):
            p.advance()
            if p.kind != "name":
                p.fail("expected generator name after ','")
    p.expect("|")
    relators: List[Word] = []
    if not p.at(">"):
        relators.append(p.word(gen_index))
        while p.at(","):
            p.advance()
            relators.append(p.word(gen_index))
    p.expect(">")
    p.expect_end()
    return tuple(gen_index), tuple(relators)


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; relators are freely reduced on construction."""
    return Presentation(*_parse_body(text))


def parse_raw(text: str) -> Tuple[Tuple[str, ...], Tuple[Word, ...]]:
    """Parse like ``parse_presentation`` but keep relators unreduced.

    Used for augmented presentations whose cancelling letter pairs are
    meaningful positions.
    """
    return _parse_body(text)


def parse_word(text: str, index: Dict[str, int]) -> Word:
    """Parse a bare word over the generator names mapped to their 1-based
    index (freely reduced)."""
    p = _Parser(text)
    letters = p.word(index)
    p.expect_end()
    return free_reduce(letters)


def format_word(w: Sequence[int], generators: Sequence[str]) -> str:
    """Render a word, collapsing runs of equal letters to ``g^k``."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        g = abs(w[i])
        exp = (j - i) if w[i] > 0 else -(j - i)
        name = generators[g - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def format_presentation(p) -> str:
    """Canonical one-line rendering; ``parse . format`` is the identity.

    Accepts anything with ``generators`` and ``relators`` fields, so raw
    augmented presentations print the same way (pair letters intact).
    """
    gens = ", ".join(p.generators)
    rels = ", ".join(format_word(r, p.generators) for r in p.relators)
    left = f"< {gens} " if gens else "< "
    right = f" {rels} >" if rels else " >"
    return left + "|" + right


# --- line files ----------------------------------------------------------


def content_lines(text: str) -> List[Tuple[int, str]]:
    """The 1-based number and stripped text of each line of ``text`` that
    holds more than a ``#`` comment; the comment itself is cut off."""
    return [(k, s) for k, line in enumerate(text.splitlines(), 1) if (s := line.split("#", 1)[0].strip())]


def int_field(x: str) -> int:
    """One field of text as an int; one past Python's conversion limit is a
    ValueError that names its digits and the limit."""
    try:
        return int(x)
    except ValueError:
        digits = x[1:] if x[:1] in "+-" else x
        if not digits.isdecimal():  # not a well-formed int
            raise
    raise ValueError(f"an entry of {len(digits)} digits is past the limit of {sys.get_int_max_str_digits()} digits")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, creating the file if need be.

    The file is opened without ``O_TRUNC``, all of the new bytes are written
    over the old ones from offset 0, and only then is the tail cut.  On ext4
    with ``auto_da_alloc`` (the default), closing a non-empty file that was
    truncated to zero and written again starts a flush of its data; this
    write does not, so rewriting a file that exists (a second ``theorem3 -o
    DIR``) costs about what a first write into a fresh directory does.

    A regular file that standard output is open on is refused with a
    ValueError naming ``path``, before any byte is written: the lines the
    CLI prints after it would land over it from offset 0.  A pipe or a
    terminal as ``/dev/stdout`` is written as any other file.

    The cut is guarded by the size ``fstat`` read before the write: only a
    file that held more bytes than ``text`` is truncated.  A pipe or a
    terminal (``-o /dev/stdout``) reports size 0, so it is never cut, which
    would fail there with EINVAL or ESPIPE.  Nothing is fsynced,
    before or after, as with ``Path.write_text``: a crash mid-write can
    leave a mix of old and new bytes where that left a short file.  Every
    call writes every byte; nothing is skipped or cached.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        if os.path.samestat(old, os.fstat(1)) and os.path.isfile(path):
            raise ValueError(f"{path}: standard output is redirected to this file; name another")
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
