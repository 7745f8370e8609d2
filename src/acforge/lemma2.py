"""Build a trivial-group presentation realizing a given unimodular matrix.

A unimodular n x n matrix is a product of two elementary row operations,
"negate a row" and "add one row to another".  Mirroring those on the
presentation < x1..xn | x1, ..., xn > (negate row i -> invert relator i;
add row i to row j -> multiply relator j on the right by relator i) keeps
the group trivial while steering the abelianized matrix to any unimodular
target.  The returned certificate starts at the empty presentation (n
stabilizations build the x_i), so inverting it trivializes the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .intmatrix import IntMatrix, determinant
from .moves import AcCertificate, InvertRelator, MultiplyRight, Stabilize, apply_move
from .presentation import EMPTY_PRESENTATION, Presentation


@dataclass(frozen=True)
class RowNegate:
    """Multiply row ``row`` by -1 (1-based)."""

    row: int


@dataclass(frozen=True)
class RowAdd:
    """Add row ``source`` to row ``target`` (1-based, source != target)."""

    source: int
    target: int


ElementaryOp = Union[RowNegate, RowAdd]


def _require_unimodular(a: IntMatrix) -> int:
    if not a.is_square():
        raise ValueError(f"matrix is {a.nrows}x{a.ncols}, not square")
    d = determinant(a)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular: det = {d}")
    return d


def decompose_unimodular(a: IntMatrix) -> List[ElementaryOp]:
    """Elementary ops whose application to the identity yields ``a`` exactly.

    Reduces ``a`` to the identity by integer row elimination (minimal-pivot
    Euclid per column, subtraction realized as negate-add-negate), then
    emits the inverse sequence reversed.
    """
    _require_unimodular(a)
    n = a.nrows
    b = [list(r) for r in a.rows]
    trace: List[ElementaryOp] = []  # reduction ops, applied to b in order

    def negate(i: int):
        b[i] = [-x for x in b[i]]
        trace.append(RowNegate(i + 1))

    def add(src: int, dst: int):
        b[dst] = [x + y for x, y in zip(b[dst], b[src])]
        trace.append(RowAdd(src + 1, dst + 1))

    def addmul(src: int, dst: int, c: int):  # row dst += c * row src
        if c == 0:
            return
        if c > 0:
            for _ in range(c):
                add(src, dst)
        else:
            negate(src)
            for _ in range(-c):
                add(src, dst)
            negate(src)

    for col in range(n):
        # Euclid the active column down to a single nonzero entry
        while True:
            nonzero = [i for i in range(col, n) if b[i][col] != 0]
            assert nonzero, "active column of a unimodular matrix cannot vanish"
            piv = min(nonzero, key=lambda i: (abs(b[i][col]), i))
            rest = [i for i in nonzero if i != piv]
            if not rest:
                break
            for i in rest:
                addmul(piv, i, -(b[i][col] // b[piv][col]))
        if piv != col:  # move the survivor up without a swap primitive
            add(piv, col)
            addmul(col, piv, -1)
    for i in range(n):
        assert abs(b[i][i]) == 1, "pivots of a unimodular reduction are units"
        if b[i][i] < 0:
            negate(i)
    for col in range(n - 1, -1, -1):
        for i in range(col):
            addmul(col, i, -b[i][col])
    assert b == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    ops: List[ElementaryOp] = []
    for op in reversed(trace):
        if isinstance(op, RowNegate):
            ops.append(op)
        else:  # inverse of "add" is negate-add-negate
            ops.append(RowNegate(op.source))
            ops.append(op)
            ops.append(RowNegate(op.source))
    return ops


def presentation_from_matrix(a: IntMatrix) -> Tuple[Presentation, AcCertificate]:
    """A trivial-group presentation whose exponent matrix is exactly ``a``.

    The certificate replays from the empty presentation: n stabilizations
    create < x1..xn | x1,...,xn >, then each RowNegate becomes an
    InvertRelator and each RowAdd a MultiplyRight.
    """
    _require_unimodular(a)
    n = a.nrows
    moves = [Stabilize(()) for _ in range(n)]
    for op in decompose_unimodular(a):
        if isinstance(op, RowNegate):
            moves.append(InvertRelator(op.row))
        else:
            moves.append(MultiplyRight(op.target, op.source))
    current = EMPTY_PRESENTATION
    for move in moves:
        current = apply_move(current, move)
    cert = AcCertificate(EMPTY_PRESENTATION, tuple(moves), current)
    return current, cert
