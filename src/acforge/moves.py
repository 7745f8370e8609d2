"""Executable Andrews-Curtis move calculus with replayable certificates.

The five move classes (four primitives, plus Destabilize, the inverse of
Stabilize) act on presentations whose relators are stored freely reduced.
MultiplyRight carries a nonzero int exponent: r_i -> r_i r_j^e, one
``concat`` with ``words.power(r_j, e)``, which equals |e| unit moves of one
sign; its inverse negates the exponent.  Inserting or deleting a
cancelling pair a a^-1 is not a move: on a freely reduced relator it
changes nothing, so a certificate has nothing to record.  Where such pads
matter (the occurrences of Theorem 3), they live in the augmented
presentation and the occurrence witness of the bundle, not here.

CyclicPermute stores the free reduction of the rotated word.  Rotating a
relator that is not cyclically reduced strips a conjugating pair, which
loses information; such a move has no inverse, and invert_certificate
raises if asked to invert through one.

Every run of moves (apply_move, replay, inversion, search reconstruction)
edits one replay state in place: a list of relators, a running letter
count, and the generator names followed through STAB and DESTAB.  A
Presentation is built only where a caller keeps one, and by
``presentation.unchecked_presentation``, the one build that skips the
validating constructor: every move keeps the relators freely reduced and
in range (a STAB word passes ``words.check_letters`` unreduced), and a new
generator takes the first free name x1, x2, ....

Memory is bounded as in the parser: a MultiplyRight or Stabilize whose
result would hold more than ``MAX_LETTERS`` letters in total, counted
before reduction from the running count, is refused with a plain
ValueError before anything is built.  It is not a MoveError, so a replay
that reaches it is inconclusive rather than failed.  The certificate
parse applies the parser's rule for one text to the whole file: the STAB
words it parses hold at most ``MAX_LETTERS`` letters in all.

An AcCertificate holds its moves in one normal form: each run of adjacent
MultiplyRight moves on the same (i, j) with exponents of the same sign is
one move whose exponent is their sum, so a Lemma 2 shear of k unit row
additions is one move and replays in time linear in k.  Moves of opposite
signs, and invalid moves, are never merged.  Steps and ``length`` count
unit moves, which are the move lines of the certificate text: a move of
exponent e is |e| lines, any other move one line.

Certificate files are line-based: ``START <presentation>``, one unit move
per line (``MULR i j`` for exponent +1, ``MULRI i j`` for -1), ``END
<presentation>``.  Blank lines and ``#`` comments are skipped by
``presentation.content_lines``, and each index is read by
``presentation.int_field``.  Indices are 1-based.  STAB words are written with
generator names, followed from the START names without replay by one
rule: STAB appends the first free x-name, a DESTAB of the last generator
drops it, any other DESTAB changes no name.  Any other keyword, including
the pair insertion and deletion lines of older files, is rejected as unknown.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, Optional, Sequence, Tuple, Union

from .presentation import (
    MAX_LETTERS,
    Presentation,
    content_lines,
    format_presentation,
    format_word,
    int_field,
    parse_presentation,
    parse_word,
    unchecked_presentation,
)
from .record import Record, set_field
from .words import Word, check_letters, concat, free_reduce, invert, power, rotate


class MoveError(ValueError):
    """A move does not apply to the given presentation."""


class CertificateError(ValueError):
    """A certificate is malformed or does not replay."""


class CyclicPermute(Record):
    """Replace relator i by the free reduction of its rotation by ``shift``."""

    __slots__ = ("relator", "shift")

    def __init__(self, relator: int, shift: int):
        set_field(self, "relator", relator)
        set_field(self, "shift", shift)


class InvertRelator(Record):
    __slots__ = ("relator",)

    def __init__(self, relator: int):
        set_field(self, "relator", relator)


class MultiplyRight(Record):
    """r_i -> r_i r_j^exponent, j != i, exponent a nonzero int."""

    __slots__ = ("relator", "other", "exponent")

    def __init__(self, relator: int, other: int, exponent: int = 1):
        set_field(self, "relator", relator)
        set_field(self, "other", other)
        set_field(self, "exponent", exponent)


class Stabilize(Record):
    """Add a fresh generator x and the relator x.w (w over the old generators)."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int] = ()):
        set_field(self, "word", tuple(word))


class Destabilize(Record):
    """Remove the last generator g=m together with relator i = g.w, g nowhere else."""

    __slots__ = ("generator", "relator")

    def __init__(self, generator: int, relator: int):
        set_field(self, "generator", generator)
        set_field(self, "relator", relator)


AcMove = Union[
    CyclicPermute,
    InvertRelator,
    MultiplyRight,
    Stabilize,
    Destabilize,
]


def _run_key(move: AcMove):
    """(i, j, sign) of a MultiplyRight with a valid exponent; None otherwise."""
    if type(move) is MultiplyRight and type(move.exponent) is int and move.exponent:
        return move.relator, move.other, move.exponent > 0
    return None


def _units(move: AcMove) -> int:
    """Unit moves, that is certificate lines, that ``move`` stands for."""
    return abs(move.exponent) if _run_key(move) else 1


class AcCertificate(Record):
    """A replayable move sequence claimed to transform start into end, its
    moves kept in normal form (each run of MultiplyRight moves merged)."""

    __slots__ = ("start", "moves", "end")

    def __init__(self, start: Presentation, moves: Tuple[AcMove, ...], end: Presentation):
        merged: List[AcMove] = []
        for key, run in groupby(moves, _run_key):
            if key is None:
                merged.extend(run)
            else:
                merged.append(MultiplyRight(key[0], key[1], sum(mv.exponent for mv in run)))
        set_field(self, "start", start)
        set_field(self, "moves", tuple(merged))
        set_field(self, "end", end)

    @property
    def length(self) -> int:
        """Unit moves: the number of move lines in the certificate text."""
        return sum(map(_units, self.moves))


class _Names:
    """Generator names followed through moves without rebuilding them: the
    names in order, their 1-based index, and a k with every x1 .. x(k-1)
    taken, so a fresh name costs amortized O(1) along a run of STABs."""

    __slots__ = ("names", "index", "k")

    def __init__(self, names):
        self.names = list(names)
        self.index = dict(zip(self.names, range(1, len(self.names) + 1)))
        self.k = 1

    def fresh(self) -> str:
        index, name = self.index, f"x{self.k}"
        while name in index:
            self.k += 1
            name = f"x{self.k}"
        return name

    def follow(self, move: AcMove) -> None:
        """Follow ``move`` by the naming rule of certificate text: a STAB
        appends the first free x-name, a DESTAB of the last generator drops
        that name, nothing else renames.  Exact until a move fails replay, as
        any other DESTAB does, so no later STAB word can change a verdict."""
        if isinstance(move, Stabilize):
            name = self.fresh()
            self.names.append(name)
            self.index[name] = len(self.names)
        elif isinstance(move, Destabilize) and move.generator == len(self.names) > 0:
            name = self.names.pop()
            del self.index[name]
            # x{j} with 1 <= j < k is free again; a longer digit string is > k
            digits = name[1:]
            if name[0] == "x" and 0 < len(digits) <= len(str(self.k)) and digits[0] != "0" and digits.isdecimal():
                self.k = min(self.k, int(digits))


def _relator(p, i: int) -> Word:
    """Relator i (1-based) of a presentation or replay state; MoveError if out of range."""
    if not 1 <= i <= len(p.relators):
        raise MoveError(f"relator index {i} out of range 1..{len(p.relators)}")
    return p.relators[i - 1]


class _Replay:
    """A presentation that a run of moves edits in place: its relators in a
    list, a running count of their letters, and its generator names, kept
    as the start's tuple until a STAB or DESTAB makes ``names`` follow them."""

    __slots__ = ("generators", "relators", "letters", "names")

    def __init__(self, p: Presentation):
        self.generators = p.generators
        self.relators = list(p.relators)
        self.letters = sum(map(len, p.relators))
        self.names: Optional[_Names] = None

    def presentation(self) -> Presentation:
        """The state as a Presentation, without the validating constructor (see the module docstring)."""
        return unchecked_presentation(tuple(self.generators), tuple(self.relators))

    def _follow(self, move: AcMove) -> None:
        if self.names is None:
            self.names = _Names(self.generators)
            self.generators = self.names.names
        self.names.follow(move)

    def _grow(self, added: int) -> None:
        """Raise ValueError if adding ``added`` letters would exceed ``MAX_LETTERS``."""
        total = self.letters + added
        if total > MAX_LETTERS:
            raise ValueError(f"move would grow the presentation to {total} letters, more than {MAX_LETTERS}")

    def _replace(self, i: int, w: Word) -> None:
        self.letters += len(w) - len(self.relators[i - 1])
        self.relators[i - 1] = w

    def apply(self, move: AcMove) -> None:
        """Apply one move, or raise before changing anything; the edited
        relator is stored freely reduced."""
        rels = self.relators
        if isinstance(move, MultiplyRight):
            r, other = _relator(self, move.relator), _relator(self, move.other)
            if move.relator == move.other:
                raise MoveError("relator cannot be multiplied by itself")
            if type(move.exponent) is not int or not move.exponent:
                raise MoveError(f"multiplier exponent must be a nonzero int, not {move.exponent!r}")
            self._grow(abs(move.exponent) * len(other))
            self._replace(move.relator, concat(r, power(other, move.exponent)))
        elif isinstance(move, CyclicPermute):
            self._replace(move.relator, free_reduce(rotate(_relator(self, move.relator), move.shift)))
        elif isinstance(move, InvertRelator):
            rels[move.relator - 1] = invert(_relator(self, move.relator))
        elif isinstance(move, Stabilize):
            m = len(self.generators)
            self._grow(1 + len(move.word))
            try:
                check_letters(move.word, m)
            except ValueError as e:
                raise MoveError(f"STAB word: {e}") from None
            w = free_reduce(move.word)
            self._follow(move)
            rels.append((m + 1,) + w)
            self.letters += 1 + len(w)
        elif isinstance(move, Destabilize):
            m = len(self.generators)
            g, i = move.generator, move.relator
            r = _relator(self, i)
            if g != m or m == 0:
                raise MoveError(f"destabilize must remove the last generator {m}, not {g}")
            if not r or r[0] != g:
                raise MoveError("relator is not of the shape g.w")
            if any(abs(x) == g for x in r[1:]):
                raise MoveError("removed generator occurs inside its own relator tail")
            for k, other in enumerate(rels, start=1):
                if k != i and any(abs(x) == g for x in other):
                    raise MoveError(f"removed generator occurs in relator {k}")
            self._follow(move)
            del rels[i - 1]
            self.letters -= len(r)
        else:
            raise MoveError(f"unknown move {move!r}")


def apply_move(p: Presentation, move: AcMove) -> Presentation:
    """Apply one move; the edited relator is stored freely reduced."""
    state = _Replay(p)
    state.apply(move)
    return state.presentation()


def inverse_move(move: AcMove, before: Union[Presentation, _Replay]) -> AcMove:
    """The move undoing ``move``, given the presentation (or replay state)
    it was applied to."""
    if isinstance(move, CyclicPermute):
        return CyclicPermute(move.relator, -move.shift)
    if isinstance(move, InvertRelator):
        return move
    if isinstance(move, MultiplyRight):
        return MultiplyRight(move.relator, move.other, -move.exponent)
    if isinstance(move, Stabilize):
        return Destabilize(len(before.generators) + 1, len(before.relators) + 1)
    if isinstance(move, Destabilize):
        return Stabilize(_relator(before, move.relator)[1:])
    raise MoveError(f"unknown move {move!r}")


def replay_trace(cert: AcCertificate):
    """Apply the moves; returns (ok, failing_step_or_None, final_presentation).

    ``failing_step`` counts unit moves: the 0-based line of the first
    invalid move, or ``cert.length`` if every move applied but the end does
    not match.
    """
    state, step = _Replay(cert.start), 0
    for move in cert.moves:
        try:
            state.apply(move)
        except MoveError:
            return False, step, state.presentation()
        step += _units(move)
    current = state.presentation()
    if current != cert.end:
        return False, step, current
    return True, None, current


def replay(cert: AcCertificate) -> bool:
    """True iff replaying the moves from start yields exactly end."""
    return replay_trace(cert)[0]


def invert_certificate(cert: AcCertificate) -> AcCertificate:
    """Certificate from end back to start: inverses in reverse order.

    Raises CertificateError if the input does not replay, or if one of its
    moves loses information: a CYC that shortens its relator (a reducing
    cyclic permutation), or a DESTAB of a generator that the undoing STAB
    would give another name.
    """
    inv_moves: List[AcMove] = []
    state, step = _Replay(cert.start), 0
    for move in cert.moves:
        letters, last = state.letters, state.generators[-1:]
        try:
            inv_moves.append(inverse_move(move, state))
            state.apply(move)
        except MoveError as e:
            raise CertificateError(f"input certificate invalid at step {step}: {e}")
        if isinstance(move, CyclicPermute) and state.letters < letters:
            raise CertificateError(
                f"certificate is not invertible: the CYC at step {step} shortens relator {move.relator}"
            )
        if isinstance(move, Destabilize) and state.names.fresh() != last[0]:
            raise CertificateError(
                f"certificate is not invertible: the DESTAB at step {step} removes generator "
                f"{last[0]!r}, which STAB would name {state.names.fresh()!r}"
            )
        step += _units(move)
    if state.presentation() != cert.end:
        raise CertificateError("input certificate does not replay to its end")
    result = AcCertificate(cert.end, tuple(reversed(inv_moves)), cert.start)
    ok, step, _ = replay_trace(result)
    if not ok:
        raise CertificateError(f"certificate is not invertible (inverse fails at step {step})")
    return result


# --- certificate files -------------------------------------------------------


def format_certificate(cert: AcCertificate) -> str:
    """Serialize, one line per unit move.  STAB words print with the names
    ``parse_certificate`` follows (``_Names.follow``: STAB appends a fresh
    x-name, DESTAB of the last generator drops it, no other move renames)."""
    lines = [f"START {format_presentation(cert.start)}"]
    names = _Names(cert.start.generators)
    for move in cert.moves:
        if isinstance(move, CyclicPermute):
            lines.append(f"CYC {move.relator} {move.shift}")
        elif isinstance(move, InvertRelator):
            lines.append(f"INV {move.relator}")
        elif _run_key(move):
            op = "MULR" if move.exponent > 0 else "MULRI"
            lines.extend([f"{op} {move.relator} {move.other}"] * abs(move.exponent))
        elif isinstance(move, Stabilize):
            try:
                check_letters(move.word, len(names.names))
            except ValueError as e:
                raise CertificateError(f"step {len(lines) - 1}: STAB word: {e}") from None
            lines.append(f"STAB {format_word(move.word, names.names)}")
        elif isinstance(move, Destabilize):
            lines.append(f"DESTAB {move.generator} {move.relator}")
        else:
            raise CertificateError(f"unknown move {move!r}")
        names.follow(move)
    lines.append(f"END {format_presentation(cert.end)}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> AcCertificate:
    """Parse a certificate file.  STAB words resolve against the names
    followed from START without replay (``_Names.follow``: STAB appends a
    fresh x-name, DESTAB of the last generator drops it, no other move
    renames).  A line equal to the one before is the same move, parsed once."""
    lines = content_lines(text)
    if not lines or not lines[0][1].startswith("START"):
        raise CertificateError("certificate must begin with a START line")
    if not lines[-1][1].startswith("END"):
        raise CertificateError("certificate must finish with an END line")

    def _fields(op, args, k):
        if len(args) != k:
            raise ValueError(f"{op} takes {k} field{'s' * (k != 1)}, got {len(args)}")
        return map(int_field, args)

    start = parse_presentation(lines[0][1][len("START") :].strip())
    end = parse_presentation(lines[-1][1][len("END") :].strip())
    moves: List[AcMove] = []
    names = _Names(start.generators)
    prev = None
    stab_letters = 0
    for lineno, line in lines[1:-1]:
        if line != prev:
            prev, fields = line, line.split()
            op, args = fields[0], fields[1:]
            try:
                if op == "CYC":
                    move: AcMove = CyclicPermute(*_fields(op, args, 2))
                elif op == "INV":
                    move = InvertRelator(*_fields(op, args, 1))
                elif op in ("MULR", "MULRI"):
                    move = MultiplyRight(*_fields(op, args, 2), 1 if op == "MULR" else -1)
                elif op == "STAB":
                    move = Stabilize(parse_word(line[len("STAB") :].strip(), names.index))
                    stab_letters += len(move.word)
                    if stab_letters > MAX_LETTERS:
                        raise ValueError(f"STAB words expand to more than {MAX_LETTERS} letters")
                elif op == "DESTAB":
                    move = Destabilize(*_fields(op, args, 2))
                else:
                    raise ValueError(f"unknown move keyword {op!r}")
            except ValueError as e:
                raise CertificateError(f"line {lineno}: {e}")
        moves.append(move)
        names.follow(move)
    return AcCertificate(start, tuple(moves), end)
