"""Exact integer linear algebra over presentations.

Everything is arbitrary-precision (Python ints); no floats anywhere.
Convention: rows = relators, columns = generators, so the exponent matrix
of an n-relator, m-generator presentation is n x m.

A matrix that comes from one input holds at most ``MAX_LETTERS`` entries,
the parser's bound on the letters of one text: ``exponent_matrix``,
``smith_normal_form`` (for U and V) and ``matrix_from_text`` (for its
header) raise a ValueError naming the sizes before anything is built.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Sequence, Tuple

from .presentation import MAX_LETTERS, Presentation, content_lines, int_field
from .record import Record, set_field
from .words import exponent_vector


class IntMatrix(Record):
    """Immutable rectangular integer matrix (possibly 0 rows or columns)."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int | None = None):
        data = tuple(map(tuple, rows))
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        set_field(self, "rows", data)
        set_field(self, "ncols", ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "IntMatrix":
        # zip has no columns to give when there are no rows
        return IntMatrix(list(zip(*self.rows)) or [()] * self.ncols, ncols=self.nrows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols


def _decimal_digits(x: int) -> int:
    """The number of decimal digits of |x|, counted without writing x out."""
    x = abs(x)
    d = max(1, (x.bit_length() - 1) * 30102 // 100000)  # 30102 / 10**5 < log10(2): at most the count
    while 10**d <= x:
        d += 1
    return d


def ints_text(xs: Sequence[int], where: str) -> str:
    """The ints xs joined by spaces.  An int past Python's int-to-text digit
    limit raises a ValueError that names ``where``, the entry and the limit,
    worded like the reader's (``presentation.int_field``)."""
    try:
        return " ".join(map(str, xs))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        for k, x in enumerate(xs, 1):
            if limit and _decimal_digits(x) > limit:
                raise ValueError(
                    f"{where} entry {k}: an integer of {_decimal_digits(x)} digits is past "
                    f"the limit of {limit} digits"
                ) from None
        raise


def matrix_to_text(a: IntMatrix, name: str = "matrix") -> str:
    """Interchange format: first line ``n m``, then n rows of m integers.
    An entry past the digit limit is a ValueError naming ``name``, its row
    and column."""
    lines = [f"{a.nrows} {a.ncols}"]
    lines.extend(ints_text(row, f"{name} row {i}") for i, row in enumerate(a.rows, 1))
    return "\n".join(lines) + "\n"


def _ints(lineno: int, fields: List[str]) -> List[int]:
    """The fields of one line of matrix text as ints; a ValueError names the line."""
    try:
        return list(map(int_field, fields))
    except ValueError as e:
        raise ValueError(f"line {lineno}: {e}") from None


def _check_entries(what: str, n: int, m: int) -> None:
    """ValueError naming ``what`` and its sizes unless an n x m matrix holds
    at most ``MAX_LETTERS`` entries and has no side longer than that."""
    if n * m > MAX_LETTERS or max(n, m) > MAX_LETTERS:
        raise ValueError(
            f"{what} would be {n} x {m}; a matrix holds at most {MAX_LETTERS} entries, and no side longer than that"
        )


def matrix_from_text(text: str) -> IntMatrix:
    """Read the ``matrix_to_text`` format, its lines read by
    ``content_lines``: ``#`` starts a comment on any line, the header's
    included."""
    tokens = content_lines(text)
    if not tokens:
        raise ValueError("empty matrix text")
    k, first = tokens[0]
    header = first.split()
    if len(header) != 2:
        raise ValueError(f"expected 'n m' header, got {first!r}")
    n, m = _ints(k, header)
    if n < 0 or m < 0:
        raise ValueError("negative dimensions")
    _check_entries("the matrix", n, m)
    if m == 0 and len(tokens) == 1:  # n rows of no entries are n blank lines
        return IntMatrix([[]] * n, ncols=0)
    if len(tokens) - 1 != n:
        raise ValueError(f"expected {n} rows, found {len(tokens) - 1}")
    rows = []
    for k, ln in tokens[1:]:
        row = _ints(k, ln.split())
        if len(row) != m:
            raise ValueError(f"expected {m} entries per row, got {len(row)}")
        rows.append(row)
    return IntMatrix(rows, ncols=m)


def exponent_matrix(p: Presentation) -> IntMatrix:
    """Row i is the exponent vector of relator i (abelianized presentation matrix)."""
    m = len(p.generators)
    _check_entries("the exponent matrix", len(p.relators), m)
    return IntMatrix([exponent_vector(r, m) for r in p.relators], ncols=m)


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Intermediate divisions are exact, so entries stay integers with
    polynomial bit growth.  det of the 0x0 matrix is 1.
    """
    if not a.is_square():
        raise ValueError(f"determinant of non-square {a.nrows}x{a.ncols} matrix")
    n = a.nrows
    if n == 0:
        return 1
    m = [list(r) for r in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _step(p: int, q: int) -> Tuple[int, int, int, int]:
    """Coefficients (s, u, v, w) of a unimodular 2x2 step taking (p, q) to
    (g, 0): s*p + u*q = g and v*p + w*q = 0, with s*w - u*v = 1.  When p
    divides q it is the subtraction (1, 0, -q/p, 1) and g = p; otherwise g
    is +-gcd(p, q), from the extended Euclidean algorithm."""
    if q % p == 0:
        return 1, 0, -(q // p), 1
    s, s1, g, g1 = 1, 0, p, q  # invariant: g = s*p (mod q), and g1 likewise with s1
    while g1:
        s, s1, g, g1 = s1, s - g // g1 * s1, g1, g % g1
    return s, (g - s * p) // q, -(q // g), p // g


def smith_normal_form(a: IntMatrix) -> Tuple[Tuple[int, ...], IntMatrix, IntMatrix]:
    """Diagonalize over the integers: returns ``(factors, U, V)``.

    The product U a V is diagonal with the nonnegative invariant factors
    on the diagonal, each dividing the next (zeros last); U and V are
    unimodular.

    One list of rows carries all three through ``_eliminate``: rows
    ``[a_i | U_i]`` over the m rows of V, so a row operation acts on a and
    U at once, and an operation on the first m entries of every row is a
    column operation on a and V.
    """
    n, m = a.nrows, a.ncols
    k = max(n, m)
    _check_entries(f"U or V of a {n} x {m} matrix", k, k)
    B: List[List[int]] = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a.rows)]
    B += [[int(i == j) for j in range(m)] for i in range(m)]
    factors = _eliminate(B, n, m)
    return factors, IntMatrix([r[m:] for r in B[:n]], ncols=n), IntMatrix(B[n:], ncols=m)


def invariant_factors(a: IntMatrix) -> Tuple[int, ...]:
    """The factors of ``smith_normal_form(a)``, by the same elimination on
    the rows of a alone, so no U or V is built."""
    return _eliminate([list(r) for r in a.rows], a.nrows, a.ncols)


def _eliminate(B: List[List[int]], n: int, m: int) -> Tuple[int, ...]:
    """Bring the top-left n x m block of the rows B to Smith normal form in
    place and return its diagonal.  A row operation acts on a whole row
    among the first n, a column operation on column t or j of every row,
    so entries past the block (U beside it, V below) follow the same steps
    and the block's pivots and steps do not depend on them.

    Each pivot t is the least nonzero entry of the active block.  Column t
    is cleared by ``_step`` on rows (t, i), then row t by ``_step`` on
    columns (t, j) (gcd-step elimination, Cohen 1993, Alg. 2.4.14); if the
    pivot does not divide every entry left, the row holding one is added to
    row t.  A step on an entry the pivot divides is a plain subtraction;
    a gcd step there could flip the pivot's sign and loop forever.  So the
    loop ends: a gcd step makes |pivot| strictly smaller, since it becomes
    |gcd(p, q)| < |p|; column t can fill again only after a gcd step on
    the columns; and the divisibility fix is always followed by one.
    """
    for t in range(min(n, m)):
        # pivot: the first nonzero entry of minimal absolute value in the
        # active block, row-major; nothing is smaller than a unit
        pivot = None
        best = None
        for i in range(t, n):
            row = B[i]
            for j in range(t, m):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        B[t], B[i] = B[i], B[t]
        for row in B:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, n):
                if B[i][t]:
                    s, u, v, w = _step(B[t][t], B[i][t])
                    r, ri = B[t], B[i]
                    B[t] = [s * x + u * y for x, y in zip(r, ri)]
                    B[i] = [v * x + w * y for x, y in zip(r, ri)]
            for j in range(t + 1, m):
                if B[t][j]:
                    s, u, v, w = _step(B[t][t], B[t][j])
                    for row in B:
                        row[t], row[j] = s * row[t] + u * row[j], v * row[t] + w * row[j]
            if any(B[i][t] for i in range(t + 1, n)):
                continue
            # divisibility: pivot must divide every remaining entry (a unit does)
            p = B[t][t]
            rows = range(t + 1, n) if abs(p) != 1 else ()
            witness = next((i for i in rows if any(B[i][j] % p for j in range(t + 1, m))), None)
            if witness is None:
                break
            B[t] = [x + y for x, y in zip(B[t], B[witness])]
        if B[t][t] < 0:
            B[t] = [-x for x in B[t]]
    return tuple(B[i][i] for i in range(min(n, m)))


def trivial_abelianization(factors: Sequence[int], m: int) -> bool:
    """True iff a matrix on m generators with these invariant factors
    presents the trivial abelian group: m factors, all equal to 1."""
    return len(factors) == m and all(f == 1 for f in factors)


def is_perfect_presentation(p: Presentation) -> bool:
    """True iff the abelianization presented by the exponent matrix is trivial."""
    return trivial_abelianization(invariant_factors(exponent_matrix(p)), len(p.generators))
