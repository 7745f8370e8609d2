"""Build a trivial-group presentation realizing a given unimodular matrix.

A unimodular n x n matrix is a product of elementary row operations, and
on < x1..xn | x1, ..., xn > each of them is an AC move: negating row i is
InvertRelator(i), adding c times row s to row t is MultiplyRight(t, s, c)
(r_t -> r_t r_s^c).  The moves keep the group trivial while steering the
abelianized matrix to any unimodular target.  The certificate starts at
the empty presentation (n stabilizations build the x_i), so inverting it
trivializes the result.
"""

from __future__ import annotations

from typing import List, Tuple

from .intmatrix import IntMatrix
from .moves import AcCertificate, AcMove, InvertRelator, MultiplyRight, Stabilize, apply_move
from .presentation import EMPTY_PRESENTATION, Presentation

# The certificate text has one MULR/MULRI line per unit row addition (the sum
# of |c| over the steps): an entry of 10**9 would need a 9 GB file
MAX_ROW_ADDITIONS = 10**5


class NotUnimodular(ValueError):
    """A square matrix whose determinant ``det`` is not +-1."""

    def __init__(self, det: int):
        super().__init__(f"matrix is not unimodular: det = {det}")
        self.det = det


def decompose_unimodular(a: IntMatrix) -> List[AcMove]:
    """Moves whose application, in order, to < x1..xn | x1, ..., xn > gives
    relators with exponent matrix exactly ``a``.

    Reduces ``a`` to the identity by integer row elimination (minimal-pivot
    Euclid per column), where ``row t += c * row s`` is the move
    MultiplyRight(t, s, c) and negating row i is InvertRelator(i), and
    returns the inverses of those moves in reverse order.  The forward pass
    only adds rows, so the product of its pivots is det(a).  Raises
    ValueError if ``a`` is not square, ``NotUnimodular`` if that product
    is not +-1, or ValueError if the certificate text would need more than
    ``MAX_ROW_ADDITIONS`` unit additions (the sum of |c|).
    """
    if not a.is_square():
        raise ValueError(f"matrix is {a.nrows}x{a.ncols}, not square")
    n = a.nrows
    b = [list(r) for r in a.rows]
    undo: List[AcMove] = []  # the inverse of each step, in step order

    def negate(i: int):
        b[i] = [-x for x in b[i]]
        undo.append(InvertRelator(i + 1))

    def addmul(src: int, dst: int, c: int):  # row dst += c * row src
        if c:
            b[dst] = [x + c * y for x, y in zip(b[dst], b[src])]
            undo.append(MultiplyRight(dst + 1, src + 1, -c))

    det = 1
    for col in range(n):
        # Euclid the active column down to a single nonzero entry
        while True:
            nonzero = [i for i in range(col, n) if b[i][col] != 0]
            if not nonzero:
                raise NotUnimodular(0)
            piv = min(nonzero, key=lambda i: (abs(b[i][col]), i))
            rest = [i for i in nonzero if i != piv]
            if not rest:
                break
            for i in rest:
                addmul(piv, i, -(b[i][col] // b[piv][col]))
        if piv != col:  # move the survivor up without a swap primitive
            addmul(piv, col, 1)
            addmul(col, piv, -1)
        det *= b[col][col]
    if det not in (1, -1):
        raise NotUnimodular(det)
    for i in range(n):
        if b[i][i] < 0:
            negate(i)
    for col in range(n - 1, -1, -1):
        for i in range(col):
            addmul(col, i, -b[i][col])
    assert b == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    additions = sum(abs(m.exponent) for m in undo if isinstance(m, MultiplyRight))
    if additions > MAX_ROW_ADDITIONS:
        raise ValueError(f"matrix needs {additions} row additions, more than {MAX_ROW_ADDITIONS}")
    return undo[::-1]


def presentation_from_matrix(a: IntMatrix) -> Tuple[Presentation, AcCertificate]:
    """A trivial-group presentation whose exponent matrix is exactly ``a``.

    The certificate replays from the empty presentation: n stabilizations
    create < x1..xn | x1,...,xn >, then the moves of
    ``decompose_unimodular``.  Each row addition is one power product, so a
    shear [[1, k], [0, 1]] builds in time linear in k; its text still lists
    every unit move, |c| lines per step.
    """
    moves = [Stabilize(())] * a.nrows + decompose_unimodular(a)
    current = EMPTY_PRESENTATION
    for move in moves:
        current = apply_move(current, move)
    return current, AcCertificate(EMPTY_PRESENTATION, tuple(moves), current)
