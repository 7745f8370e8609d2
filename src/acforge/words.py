"""Free-group words as tuples of signed generator indices.

A letter is a nonzero int: ``+g`` is generator number ``g`` (1-based) and
``-g`` is its inverse.  Powers are expanded, so ``c^3`` is three letters.
Every constructor returns a freely reduced tuple; free reduction is a
normal form, so word equality is plain tuple equality.

A letter of m generators is an int x with 1 <= |x| <= m; ``check_letters``
is the one check of that rule, made on the raw word before any reduction,
once, where a word enters the program.  There are four such edges: the
two presentation records (``presentation._set_checked``), a STAB word in
replay (``moves._Replay.apply``), a STAB word in ``moves.format_certificate``,
and a caller's witness in ``dual.dualize`` (``dual._check_witness``).  Every
other function here trusts its input to be letters.

The package's tools that index by letter (the AC search's byte words, the
coset table and the quotient backtrack) use one letter code, ``column``:
the nonnegative int ``2(g-1)`` for generator g and ``2(g-1)+1`` for its
inverse, decoded by ``letter``.  A letter and its inverse differ in the
lowest bit, and the code's order is the letter order a < a^-1 < b < b^-1 ...
"""

from __future__ import annotations

from operator import neg
from typing import Iterable, Sequence, Tuple

Word = Tuple[int, ...]


def free_reduce(letters: Iterable[int]) -> Word:
    """Delete adjacent cancelling pairs until none remain.

    The result is independent of deletion order, so a single left-to-right
    stack pass suffices.  The letters are trusted: ``check_letters`` ran
    where the word entered, at a presentation record, a STAB in replay or
    in ``format_certificate``, or a caller's witness in ``dualize``.
    """
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w: Sequence[int]) -> Word:
    """Inverse word: reversed sequence with all signs flipped."""
    return tuple(map(neg, reversed(w)))


def concat(u: Sequence[int], v: Sequence[int]) -> Word:
    """Product of two reduced words, cancelling across the seam."""
    n, m = len(u), len(v)
    i = 0
    while i < n and i < m and u[n - 1 - i] == -v[i]:
        i += 1
    return tuple(u[: n - i]) + tuple(v[i:])


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split ``w = conjugator . core . conjugator^-1`` with the core cyclically reduced.

    Returns ``(core, conjugator)``; both are freely reduced and the core's
    first and last letters do not cancel.
    """
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def power(w: Word, e: int) -> Word:
    """``w^e`` for a freely reduced ``w`` and a nonzero int ``e``.

    With ``w = u c u^-1`` and ``c`` cyclically reduced (``cyclic_reduce``),
    ``w^e = u c^e u^-1`` and no seam of that product cancels, so it is
    returned without a reduction pass: O(|w| + |e| |c|).
    """
    core, u = cyclic_reduce(w)
    if e < 0:
        core, e = invert(core), -e
    return u + core * e + invert(u)


def rotate(w: Word, k: int) -> Word:
    """Raw cyclic rotation by ``k`` positions (no free reduction)."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def column(x: int) -> int:
    """Code of the signed letter x: ``2(g-1)`` for g, ``2(g-1)+1`` for g^-1.

    ``c ^ 1`` is the code of the inverse letter, and codes compare in the
    letter order a < a^-1 < b < b^-1 ..., so a word's codes sort like its
    letters.  ``letter`` is the inverse map.  The code is a coset table's
    column index, and the search stores it in one byte per letter.
    """
    return 2 * (abs(x) - 1) + (x < 0)


def letter(c: int) -> int:
    """The signed letter whose ``column`` is c."""
    return -(c >> 1) - 1 if c & 1 else (c >> 1) + 1


def check_letters(w: Sequence[int], m: int) -> None:
    """Raise ValueError naming the first entry of w that is not a letter of
    m generators, that is not an int x with 1 <= |x| <= m."""
    for x in w:
        if not isinstance(x, int) or not 0 < abs(x) <= m:
            # an earlier occurrence of the same object would have failed first
            k = next(k for k, y in enumerate(w, 1) if y is x)
            raise ValueError(f"entry {k} of the word, {x!r}, is not a letter of {m} generator(s)")


def exponent_vector(w: Sequence[int], n_gens: int) -> Tuple[int, ...]:
    """Signed occurrence count of each generator, as a length-``n_gens`` tuple.

    ``w`` is trusted to hold letters of ``n_gens`` generators, as the
    relators of the presentation records, one of the four edges where
    ``check_letters`` runs, do."""
    vec = [0] * n_gens
    for x in w:
        vec[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(vec)

