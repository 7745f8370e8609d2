"""Finite group presentations and their text format.

Grammar (comments run from ``#`` to end of line, whitespace is free):

    presentation := '<' gen_list '|' rel_list '>'
    gen_list     := empty | name (',' name)*
    rel_list     := empty | word (',' word)*
    word         := '1' | term+
    term         := name ('^' int)?      # int is a nonzero signed decimal

Names match ``[A-Za-z][A-Za-z0-9_]*``.  ``< | >`` is the empty (trivial)
presentation.  Relators are stored freely reduced; generator order is the
declaration order and is significant (matrices and duals index by it).
Powers are expanded, so one parsed text may expand to at most
``MAX_LETTERS`` letters; longer input is a ParseError.
Relators are NOT cyclically reduced on input: cyclic permutation is an
explicit move, so silently rotating words would corrupt certificates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .words import Word, free_reduce

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")

# bounds memory: checked before a power is expanded
MAX_LETTERS = 10**6


class ParseError(ValueError):
    """Syntax or semantic error in presentation text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Presentation:
    """Ordered generator names plus freely reduced relator words."""

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        for name in self.generators:
            if not NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        m = len(self.generators)
        reduced = []
        for r in self.relators:
            w = free_reduce(r)
            for x in w:
                if abs(x) > m:
                    raise ValueError(f"relator letter {x} exceeds generator count {m}")
            reduced.append(w)
        object.__setattr__(self, "relators", tuple(reduced))


EMPTY_PRESENTATION = Presentation((), ())


def is_balanced(p: Presentation) -> bool:
    """True when the generator and relator counts agree."""
    return len(p.generators) == len(p.relators)


def total_letters(p: Presentation) -> int:
    return sum(len(r) for r in p.relators)


# --- tokenizer -------------------------------------------------------------

_PUNCT = "<>|,^"


def _tokenize(text: str):
    """Yield (kind, value, line, col); kinds: punct, name, int, end."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in _PUNCT:
            yield ("punct", c, line, col)
            i += 1
            col += 1
        elif c.isalpha():
            m = NAME_RE.match(text, i)
            yield ("name", m.group(), line, col)
            col += m.end() - i
            i = m.end()
        elif c.isdigit() or c == "-":
            m = _INT_RE.match(text, i)
            if not m or m.group() == "-":
                raise ParseError(f"unexpected character {c!r}", line, col)
            yield ("int", m.group(), line, col)
            col += m.end() - i
            i = m.end()
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    yield ("end", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.letters = 0  # expanded so far, across all words

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, line, col = self.take()
        if kind != "punct" or val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", line, col)

    def fail(self, message: str):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)


def _parse_word_tokens(p: _Parser, gen_index: dict) -> List[int]:
    kind, val, line, col = p.peek()
    if kind == "int" and val == "1":
        p.take()
        return []
    letters: List[int] = []
    saw_term = False
    while True:
        kind, val, line, col = p.peek()
        if kind != "name":
            break
        p.take()
        if val not in gen_index:
            raise ParseError(f"undeclared generator {val!r}", line, col)
        g = gen_index[val]
        exp = 1
        kind2, val2, _, _ = p.peek()
        if kind2 == "punct" and val2 == "^":
            p.take()
            kind3, val3, line3, col3 = p.take()
            if kind3 != "int":
                raise ParseError(f"expected integer exponent, found {val3!r}", line3, col3)
            exp = int(val3)
            if exp == 0:
                raise ParseError("zero exponent", line3, col3)
        p.letters += abs(exp)
        if p.letters > MAX_LETTERS:
            raise ParseError(f"input expands to more than {MAX_LETTERS} letters", line, col)
        letters.extend([g if exp > 0 else -g] * abs(exp))
        saw_term = True
    if not saw_term:
        p.fail("expected a word ('1' or terms)")
    return letters


def _parse_body(text: str) -> Tuple[Tuple[str, ...], List[List[int]]]:
    p = _Parser(text)
    p.expect("<")
    names: List[str] = []
    kind, val, line, col = p.peek()
    while kind == "name":
        p.take()
        if val in names:
            raise ParseError(f"duplicate generator name {val!r}", line, col)
        names.append(val)
        kind, val, line, col = p.peek()
        if kind == "punct" and val == ",":
            p.take()
            kind, val, line, col = p.peek()
            if kind != "name":
                raise ParseError("expected generator name after ','", line, col)
    p.expect("|")
    gen_index = {name: i + 1 for i, name in enumerate(names)}
    raw_relators: List[List[int]] = []
    kind, val, _, _ = p.peek()
    if not (kind == "punct" and val == ">"):
        raw_relators.append(_parse_word_tokens(p, gen_index))
        while True:
            kind, val, _, _ = p.peek()
            if kind == "punct" and val == ",":
                p.take()
                raw_relators.append(_parse_word_tokens(p, gen_index))
            else:
                break
    p.expect(">")
    kind, val, line, col = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", line, col)
    return tuple(names), raw_relators


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; relators are freely reduced on construction."""
    names, raw = _parse_body(text)
    return Presentation(names, tuple(tuple(r) for r in raw))


def parse_raw(text: str) -> Tuple[Tuple[str, ...], Tuple[Word, ...]]:
    """Parse like ``parse_presentation`` but keep relators unreduced.

    Used for augmented presentations whose cancelling letter pairs are
    meaningful positions.
    """
    names, raw = _parse_body(text)
    for r in raw:
        free_reduce(r)  # validates letters
    return names, tuple(tuple(r) for r in raw)


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse a bare word over the given generator names (freely reduced)."""
    p = _Parser(text)
    gen_index = {name: i + 1 for i, name in enumerate(generators)}
    letters = _parse_word_tokens(p, gen_index)
    kind, val, line, col = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", line, col)
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
