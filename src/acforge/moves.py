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

A move costs one edit, not a rebuild: apply_move assembles its result with
``_trusted``, which skips the validating ``Presentation`` constructor.  That
is sound because every relator it stores is built from relators of a valid
presentation in a way that keeps them freely reduced and in range (concat,
invert and power of reduced words, a re-reduced rotation, a reduced and
range-checked stabilizing word, a subset of the relators), and a new
generator name comes from ``fresh_generator_name``.

Memory is bounded as in the parser: a MultiplyRight or Stabilize whose
result would hold more than ``MAX_LETTERS`` letters in total, counted
before reduction, is refused with a plain ValueError before anything is
built.  It is not a MoveError, so a replay that reaches it is
inconclusive rather than failed.

An AcCertificate holds its moves in one normal form: each run of adjacent
MultiplyRight moves on the same (i, j) with exponents of the same sign is
one move whose exponent is their sum, so a Lemma 2 shear of k unit row
additions is one move and replays in time linear in k.  Moves of opposite
signs, and invalid moves, are never merged.  Steps and ``length`` count
unit moves, which are the move lines of the certificate text: a move of
exponent e is |e| lines, any other move one line.

Certificate files are line-based: ``START <presentation>``, one unit move
per line (``MULR i j`` for exponent +1, ``MULRI i j`` for -1), ``END
<presentation>``.  Indices are 1-based.  STAB words are written with
generator names, which reading and writing follow from the START names
alone (STAB appends ``fresh_generator_name``, DESTAB drops the last
name); neither replays the moves.  Any other keyword, including the pair
insertion and deletion lines of older files, is rejected as unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Tuple, Union

from .presentation import (
    MAX_LETTERS,
    Presentation,
    format_presentation,
    format_word,
    parse_presentation,
    parse_word,
    total_letters,
)
from .words import Word, concat, free_reduce, invert, power, rotate


class MoveError(ValueError):
    """A move does not apply to the given presentation."""


class CertificateError(ValueError):
    """A certificate is malformed or does not replay."""


@dataclass(frozen=True)
class CyclicPermute:
    """Replace relator i by the free reduction of its rotation by ``shift``."""

    relator: int
    shift: int


@dataclass(frozen=True)
class InvertRelator:
    relator: int


@dataclass(frozen=True)
class MultiplyRight:
    """r_i -> r_i r_j^exponent, j != i, exponent a nonzero int."""

    relator: int
    other: int
    exponent: int = 1


@dataclass(frozen=True)
class Stabilize:
    """Add a fresh generator x and the relator x.w (w over the old generators)."""

    word: Word = ()


@dataclass(frozen=True)
class Destabilize:
    """Remove the last generator g=m together with relator i = g.w, g nowhere else."""

    generator: int
    relator: int


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


@dataclass(frozen=True)
class AcCertificate:
    """A replayable move sequence claimed to transform start into end, its
    moves kept in normal form (each run of MultiplyRight moves merged)."""

    start: Presentation
    moves: Tuple[AcMove, ...]
    end: Presentation

    def __post_init__(self):
        moves: List[AcMove] = []
        for key, run in groupby(self.moves, _run_key):
            if key is None:
                moves.extend(run)
            else:
                moves.append(MultiplyRight(key[0], key[1], sum(mv.exponent for mv in run)))
        object.__setattr__(self, "moves", tuple(moves))

    @property
    def length(self) -> int:
        """Unit moves: the number of move lines in the certificate text."""
        return sum(map(_units, self.moves))


class _Names:
    """Generator names followed through moves without rebuilding them: the
    names in order, their 1-based index (built on first use), and a k with
    every x1 .. x(k-1) taken, so a fresh name costs amortized O(1) along a
    run of STABs."""

    __slots__ = ("names", "_index", "k")

    def __init__(self, names):
        self.names = list(names)
        self._index = None
        self.k = 1

    @property
    def index(self):
        if self._index is None:
            self._index = {name: g for g, name in enumerate(self.names, start=1)}
        return self._index

    def fresh(self) -> str:
        while f"x{self.k}" in self.index:
            self.k += 1
        return f"x{self.k}"

    def follow(self, move: AcMove) -> bool:
        """Follow ``move`` without applying it: exact for every move that
        applies.  False once the names cannot be followed: after a DESTAB of
        a generator other than the last, a move that never applies."""
        if isinstance(move, Stabilize):
            name = self.fresh()
            self.names.append(name)
            self.index[name] = len(self.names)
        elif isinstance(move, Destabilize):
            if move.generator != len(self.names):
                return False
            name = self.names.pop()
            if self._index is not None:
                del self._index[name]
            # x{j} with 1 <= j < k is free again; a longer digit string is > k
            digits = name[1:]
            if name[0] == "x" and 0 < len(digits) <= len(str(self.k)) and digits[0] != "0" and digits.isdecimal():
                self.k = min(self.k, int(digits))
        return True


def fresh_generator_name(existing) -> str:
    """x1, x2, ...: the first such name not in ``existing``."""
    return _Names(existing).fresh()


def _check_relator_index(p: Presentation, i: int):
    if not 1 <= i <= len(p.relators):
        raise MoveError(f"relator index {i} out of range 1..{len(p.relators)}")


def _trusted(generators: Tuple[str, ...], relators: Tuple[Word, ...]) -> Presentation:
    """A Presentation from parts that already meet its invariants (unique
    valid names; freely reduced relators with letters in range), built
    without re-checking them."""
    p = object.__new__(Presentation)
    object.__setattr__(p, "generators", generators)
    object.__setattr__(p, "relators", relators)
    return p


def _check_growth(p: Presentation, added: int) -> None:
    """Raise ValueError if adding ``added`` letters to p would exceed
    ``MAX_LETTERS``."""
    total = total_letters(p) + added
    if total > MAX_LETTERS:
        raise ValueError(f"move would grow the presentation to {total} letters, more than {MAX_LETTERS}")


def _replace(p: Presentation, i: int, w: Word) -> Presentation:
    rels = list(p.relators)
    rels[i - 1] = w
    return _trusted(p.generators, tuple(rels))


def apply_move(p: Presentation, move: AcMove, names: Optional[_Names] = None) -> Presentation:
    """Apply one move; the edited relator is stored freely reduced.

    ``names``, when given, are p's generator names as a caller follows them
    across a run of moves; a Stabilize takes its fresh name from them."""
    if isinstance(move, CyclicPermute):
        _check_relator_index(p, move.relator)
        r = p.relators[move.relator - 1]
        return _replace(p, move.relator, free_reduce(rotate(r, move.shift)))
    if isinstance(move, InvertRelator):
        _check_relator_index(p, move.relator)
        return _replace(p, move.relator, invert(p.relators[move.relator - 1]))
    if isinstance(move, MultiplyRight):
        _check_relator_index(p, move.relator)
        _check_relator_index(p, move.other)
        if move.relator == move.other:
            raise MoveError("relator cannot be multiplied by itself")
        if _run_key(move) is None:
            raise MoveError(f"multiplier exponent must be a nonzero int, not {move.exponent!r}")
        r, other = p.relators[move.relator - 1], p.relators[move.other - 1]
        _check_growth(p, abs(move.exponent) * len(other))
        return _replace(p, move.relator, concat(r, power(other, move.exponent)))
    if isinstance(move, Stabilize):
        m = len(p.generators)
        _check_growth(p, 1 + len(move.word))
        w = free_reduce(move.word)
        for x in w:
            if abs(x) > m:
                raise MoveError(f"stabilizing word letter {x} exceeds generator count {m}")
        name = names.fresh() if names is not None else fresh_generator_name(p.generators)
        return _trusted(p.generators + (name,), p.relators + ((m + 1,) + w,))
    if isinstance(move, Destabilize):
        m = len(p.generators)
        g, i = move.generator, move.relator
        _check_relator_index(p, i)
        if g != m or m == 0:
            raise MoveError(f"destabilize must remove the last generator {m}, not {g}")
        r = p.relators[i - 1]
        if not r or r[0] != g:
            raise MoveError("relator is not of the shape g.w")
        if any(abs(x) == g for x in r[1:]):
            raise MoveError("removed generator occurs inside its own relator tail")
        for k, other in enumerate(p.relators, start=1):
            if k != i and any(abs(x) == g for x in other):
                raise MoveError(f"removed generator occurs in relator {k}")
        rels = tuple(r2 for k, r2 in enumerate(p.relators, start=1) if k != i)
        return _trusted(p.generators[:-1], rels)
    raise MoveError(f"unknown move {move!r}")


def inverse_move(move: AcMove, before: Presentation) -> AcMove:
    """The move undoing ``move``, given the presentation it was applied to."""
    if isinstance(move, CyclicPermute):
        return CyclicPermute(move.relator, -move.shift)
    if isinstance(move, InvertRelator):
        return move
    if isinstance(move, MultiplyRight):
        return MultiplyRight(move.relator, move.other, -move.exponent)
    if isinstance(move, Stabilize):
        return Destabilize(len(before.generators) + 1, len(before.relators) + 1)
    if isinstance(move, Destabilize):
        return Stabilize(before.relators[move.relator - 1][1:])
    raise MoveError(f"unknown move {move!r}")


def replay_trace(cert: AcCertificate):
    """Apply the moves; returns (ok, failing_step_or_None, final_presentation).

    ``failing_step`` counts unit moves: the 0-based line of the first
    invalid move, or ``cert.length`` if every move applied but the end does
    not match.
    """
    current, step = cert.start, 0
    names = _Names(current.generators)
    for move in cert.moves:
        try:
            current = apply_move(current, move, names)
        except MoveError:
            return False, step, current
        names.follow(move)
        step += _units(move)
    if current != cert.end:
        return False, step, current
    return True, None, current


def replay(cert: AcCertificate) -> bool:
    """True iff replaying the moves from start yields exactly end."""
    return replay_trace(cert)[0]


def invert_certificate(cert: AcCertificate) -> AcCertificate:
    """Certificate from end back to start: inverses in reverse order.

    Raises CertificateError if the input does not replay or contains an
    information-losing move (a reducing cyclic permutation).
    """
    inv_moves: List[AcMove] = []
    current, step = cert.start, 0
    for move in cert.moves:
        try:
            after = apply_move(current, move)
        except MoveError as e:
            raise CertificateError(f"input certificate invalid at step {step}: {e}")
        inv_moves.append(inverse_move(move, current))
        current, step = after, step + _units(move)
    if current != cert.end:
        raise CertificateError("input certificate does not replay to its end")
    result = AcCertificate(cert.end, tuple(reversed(inv_moves)), cert.start)
    ok, step, _ = replay_trace(result)
    if not ok:
        raise CertificateError(
            f"certificate is not invertible (inverse fails at step {step}); "
            "it contains a reducing cyclic permutation"
        )
    return result


# --- certificate files -------------------------------------------------------


def format_certificate(cert: AcCertificate) -> str:
    """Serialize, one line per unit move; STAB words print with the
    generator names live at that step."""
    lines = [f"START {format_presentation(cert.start)}"]
    names: Optional[_Names] = _Names(cert.start.generators)
    for move in cert.moves:
        if isinstance(move, CyclicPermute):
            lines.append(f"CYC {move.relator} {move.shift}")
        elif isinstance(move, InvertRelator):
            lines.append(f"INV {move.relator}")
        elif _run_key(move):
            op = "MULR" if move.exponent > 0 else "MULRI"
            lines.extend([f"{op} {move.relator} {move.other}"] * abs(move.exponent))
        elif isinstance(move, Stabilize):
            if names is None or any(abs(x) > len(names.names) for x in move.word):
                raise CertificateError(f"step {len(lines) - 1}: cannot name the letters of the STAB word")
            lines.append(f"STAB {format_word(move.word, names.names)}")
        elif isinstance(move, Destabilize):
            lines.append(f"DESTAB {move.generator} {move.relator}")
        else:
            raise CertificateError(f"unknown move {move!r}")
        if names is not None and not names.follow(move):
            names = None
    lines.append(f"END {format_presentation(cert.end)}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> AcCertificate:
    """Parse a certificate file; STAB words resolve against the generator
    names followed from START, without replaying the moves.  A line equal
    to the one before it is the same move again and is not parsed twice."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines or not lines[0][1].startswith("START"):
        raise CertificateError("certificate must begin with a START line")
    if not lines[-1][1].startswith("END"):
        raise CertificateError("certificate must finish with an END line")

    def _pres(line, keyword):
        return parse_presentation(line[len(keyword) :].strip())

    start = _pres(lines[0][1], "START")
    end = _pres(lines[-1][1], "END")
    moves: List[AcMove] = []
    names: Optional[_Names] = _Names(start.generators)
    prev = None
    for lineno, line in lines[1:-1]:
        if line != prev:
            prev, fields = line, line.split()
            op, args = fields[0], fields[1:]
            try:
                if op == "CYC":
                    i, k = args
                    move: AcMove = CyclicPermute(int(i), int(k))
                elif op == "INV":
                    (i,) = args
                    move = InvertRelator(int(i))
                elif op in ("MULR", "MULRI"):
                    i, j = args
                    move = MultiplyRight(int(i), int(j), 1 if op == "MULR" else -1)
                elif op == "STAB":
                    if names is None:
                        raise ValueError(
                            "cannot resolve STAB word after a DESTAB of a generator "
                            "other than the last"
                        )
                    move = Stabilize(parse_word(line[len("STAB") :].strip(), names.index))
                elif op == "DESTAB":
                    g, i = args
                    move = Destabilize(int(g), int(i))
                else:
                    raise ValueError(f"unknown move keyword {op!r}")
            except ValueError as e:
                raise CertificateError(f"line {lineno}: {e}")
        moves.append(move)
        if names is not None and not names.follow(move):
            names = None
    return AcCertificate(start, tuple(moves), end)
