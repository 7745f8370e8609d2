"""Build a trivial-group presentation realizing a given unimodular matrix.

A unimodular n x n matrix is a product of elementary row operations:
"negate a row" and "add c times row i to row j".  Mirroring those on
< x1..xn | x1, ..., xn > (invert relator i; r_j -> r_j r_i^c by one
MultiplyRight of exponent c) keeps the group trivial while steering the
abelianized matrix to any unimodular target.  A negative c (MULRI lines)
gives the same reduced relator as invert-multiply-invert would, reduced
words being unique in the free group.  The certificate starts at the empty
presentation (n stabilizations build the x_i), so inverting it trivializes
the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .intmatrix import IntMatrix, determinant
from .moves import AcCertificate, InvertRelator, MultiplyRight, Stabilize, apply_move
from .presentation import EMPTY_PRESENTATION, Presentation

# The certificate text has one MULR/MULRI line per unit row addition (the sum
# of |c| over the steps): an entry of 10**9 would need a 9 GB file
MAX_ROW_ADDITIONS = 10**5


@dataclass(frozen=True)
class RowNegate:
    """Multiply row ``row`` by -1 (1-based)."""

    row: int


@dataclass(frozen=True)
class RowAdd:
    """Add ``multiple`` (a nonzero int) times row ``source`` to row
    ``target`` (1-based, source != target)."""

    source: int
    target: int
    multiple: int = 1


ElementaryOp = Union[RowNegate, RowAdd]


def _require_unimodular(a: IntMatrix) -> None:
    if not a.is_square():
        raise ValueError(f"matrix is {a.nrows}x{a.ncols}, not square")
    d = determinant(a)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular: det = {d}")


def decompose_unimodular(a: IntMatrix) -> List[ElementaryOp]:
    """Elementary ops whose application, in order, to the identity yields
    ``a`` exactly.

    Reduces ``a`` to the identity by integer row elimination (minimal-pivot
    Euclid per column), recording each step ``row t += c * row s`` once as
    ``RowAdd(s, t, c)``, then lists the inverse steps in reverse order, each
    ``RowAdd(s, t, -c)``.  Raises ValueError if the certificate text would
    need more than ``MAX_ROW_ADDITIONS`` unit additions (the sum of |c|).
    """
    _require_unimodular(a)
    n = a.nrows
    b = [list(r) for r in a.rows]
    trace: List[ElementaryOp] = []  # applied to b in order

    def negate(i: int):
        b[i] = [-x for x in b[i]]
        trace.append(RowNegate(i + 1))

    def addmul(src: int, dst: int, c: int):  # row dst += c * row src
        if c:
            b[dst] = [x + c * y for x, y in zip(b[dst], b[src])]
            trace.append(RowAdd(src + 1, dst + 1, c))

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
            addmul(piv, col, 1)
            addmul(col, piv, -1)
    for i in range(n):
        assert abs(b[i][i]) == 1, "pivots of a unimodular reduction are units"
        if b[i][i] < 0:
            negate(i)
    for col in range(n - 1, -1, -1):
        for i in range(col):
            addmul(col, i, -b[i][col])
    assert b == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    additions = sum(abs(op.multiple) for op in trace if isinstance(op, RowAdd))
    if additions > MAX_ROW_ADDITIONS:
        raise ValueError(f"matrix needs {additions} row additions, more than {MAX_ROW_ADDITIONS}")
    return [
        RowAdd(op.source, op.target, -op.multiple) if isinstance(op, RowAdd) else op
        for op in reversed(trace)
    ]


def presentation_from_matrix(a: IntMatrix) -> Tuple[Presentation, AcCertificate]:
    """A trivial-group presentation whose exponent matrix is exactly ``a``.

    The certificate replays from the empty presentation: n stabilizations
    create < x1..xn | x1,...,xn >, then each RowNegate becomes an
    InvertRelator and each ``row t += c * row s`` one MultiplyRight(t, s, c),
    a single power product: a shear [[1, k], [0, 1]] builds in time linear
    in k.  Its text still lists every unit move, |c| lines per step.
    """
    moves = [Stabilize(()) for _ in range(a.nrows)] + [
        InvertRelator(op.row) if isinstance(op, RowNegate) else MultiplyRight(op.target, op.source, op.multiple)
        for op in decompose_unimodular(a)
    ]
    current = EMPTY_PRESENTATION
    for move in moves:
        current = apply_move(current, move)
    return current, AcCertificate(EMPTY_PRESENTATION, tuple(moves), current)
