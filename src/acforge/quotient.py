"""Nontriviality certificates via low-index subgroups.

A group G has a homomorphism onto a nontrivial permutation group of degree
at most d if and only if it has a subgroup of index 2..d.  Given such a map,
the stabilizer of a point that the image moves has index equal to the size
of that point's orbit, which is 2..d.  Conversely, G acts on the cosets of a
subgroup of index k as a transitive, hence nontrivial, subgroup of S_k.  So
the search runs over subgroups, not over image tuples (Sims, "Computation
with Finitely Presented Groups", 1994; Holt, Eick, O'Brien, "Handbook of
Computational Group Theory", ch. 5).

For each bound k = 2, 3, ..., d a depth-first backtrack builds partial coset
tables with at most k rows, coset 0 being the subgroup.  It fills the first
undefined entry in row-major order with each existing coset whose inverse
slot is free, then with the next new coset while fewer than k exist.  After
each fill it scans, from the coset filled, the cyclic conjugates of the
relators and of their inverses that start with the filled column; a scan
with one gap left fills it (a deduction, scanned in turn), and a scan that
closes on the wrong coset is a conflict.  Every entry set goes on a trail,
and a conflict undoes the trail back to the choice.  New cosets are numbered
in order of first appearance, so each subgroup has exactly one table and the
search order is fixed.

The first closed table with at least two rows is the witness: its generator
columns are the images and its row count is the degree.  Bounds run upward,
so the degree is the least degree of a nontrivial permutation image, and a
larger d returns the same witness.  A bound that never refuses a new coset
has seen every subgroup of finite index, so the search stops there.
Exhaustion means only "no nontrivial quotient of degree <= d", never
"trivial group".

Permutations are image tuples over 0..d-1 internally, composed by
``coset.multiply`` (one C-level gather); cycle notation is 1-based for
display.  The order of the image group is computed from a Sims table, so
it needs no list of the group's elements.

``verify_witness`` checks the relators with ``coset.validate_table``, on the
table of the witness's images and their inverses.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .coset import MAX_TABLE_SLOTS, CosetTable, multiply, validate_table
from .presentation import Presentation
from .words import column

DEFAULT_MAX_DEGREE = 7  # largest subgroup index find_nontrivial_quotient tries

Permutation = Tuple[int, ...]


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def permutation_group_order(gens: Sequence[Permutation], degree: int) -> int:
    """Order of <gens>, from a Sims table (Sims 1970; Knuth, "Efficient
    representation of perm groups", Combinatorica 11, 1991).

    Level i maps each point j != i it holds to u^-1, for an element u that
    fixes 0..i-1 and takes i to j; ``added`` lists each u with its level.
    ``sift`` divides h by the u of each level in turn (h . u^-1) and adds
    what is left at the first level with no match, so h sifts to the
    identity exactly when h = r_{d-1} ... r_1 r_0 (left to right), r_k the
    identity or a u of level k.  Every generator is sifted, then every
    product t . s of added elements with level(t) <= level(s), those added
    meanwhile included.  The table holds at most d(d-1)/2 elements.

    Proof, by downward induction over the levels.  Let H_i be the group the
    elements of levels >= i generate, T_i level i's elements and the
    identity, and R_i the products r_{d-1} ... r_i; R_d = H_d = 1.  Suppose
    R_{i+1} = H_{i+1}.  For t in T_i and s of a level >= i, t . s sifts to
    the identity in the final table, so t . s = r . t' with r in H_{i+1}
    and t' in T_i (for t = 1 because s is in the table).  So level i holds
    the orbit of i under H_i, and each Schreier generator t . s . t'^-1
    lies in H_{i+1}; by Schreier's lemma they generate the stabilizer of i,
    which is therefore H_{i+1}, so R_i = H_{i+1} T_i = H_i.  Each generator
    sifts, so it lies in R_0 = H_0, which is then <gens>, of order the
    product of the (|level i| + 1)."""
    table: List[Dict[int, Permutation]] = [{} for _ in range(degree)]
    added: List[Tuple[int, Permutation]] = []

    def sift(h: Permutation, start: int) -> None:
        """Sift h, which fixes 0..start-1."""
        for i in range(start, degree):
            j = h[i]
            if j != i:
                u_inv = table[i].get(j)
                if u_inv is None:
                    table[i][j] = inverse(h)
                    added.append((i, h))
                    return
                h = multiply(h, u_inv)

    for g in gens:
        sift(g, 0)
    for k, (level, s) in enumerate(added):  # grows while it is read
        for t_level, t in added[: k + 1]:
            if t_level <= level:
                sift(multiply(t, s), t_level)
            if level <= t_level:
                sift(multiply(s, t), level)
    return math.prod(len(level) + 1 for level in table)


def cycle_notation(p: Permutation) -> str:
    """1-based cycle form, fixed points suppressed; identity prints ()."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "()"


class FiniteQuotientWitness(NamedTuple):
    """Generator images satisfying every relator, not all the identity."""

    degree: int
    images: Tuple[Permutation, ...]
    image_order: int


def verify_witness(p: Presentation, w: FiniteQuotientWitness) -> bool:
    """Re-verify w.  The degree must be an int, ``image_order`` of type int
    (a float or a bool may compare equal to the order), and the images a
    tuple of tuples of that length.  Each image's inverse column is built
    by ``inverse``, which raises on an entry past the degree or one that is
    not an int (None, a float, a list); that gives False, not an exception.
    ``coset.validate_table`` then checks the table whose columns are each
    image and its inverse: the generator count, entries, permutations and
    relators, so a negative or a repeated entry, which ``inverse`` lets
    through, gives False too.  Then the images must not all be the
    identity, and ``image_order`` must be the order of the group they
    generate."""
    d, images = w.degree, w.images
    if not isinstance(d, int) or type(w.image_order) is not int or not isinstance(images, tuple):
        return False
    if not all(isinstance(img, tuple) and len(img) == d for img in images):
        return False
    try:
        cols = [col for img in images for col in (img, inverse(img))]
    except (IndexError, TypeError):
        return False
    if validate_table(p, CosetTable(len(images), tuple(zip(*cols)))):
        return False
    identity = tuple(range(d))
    if all(img == identity for img in images):
        return False
    return permutation_group_order(images, d) == w.image_order


Table = List[List[Optional[int]]]


def _words_by_column(p: Presentation, ncols: int) -> List[List[Tuple[int, ...]]]:
    """Per column c, the distinct cyclic conjugates of the relators and of
    their inverses that start with c, as column words.

    Rotation i of a word equals rotation i + k, k its least period (shared
    by its inverse), so only rotations 0..k-1 are built, in the order of the
    full build.  A ValueError refuses relators whose rotations built would
    hold more than ``MAX_TABLE_SLOTS`` letters: 2kL letters for a relator of
    L letters, so about 3,500 letters for one that is not periodic."""
    words: List[Dict[Tuple[int, ...], None]] = [{} for _ in range(ncols)]
    budget = MAX_TABLE_SLOTS
    for r in p.relators:
        w = [column(x) for x in r]
        s = "".join(map(chr, w))
        k = (s + s).find(s, 1)  # -1 for the empty word, which has no rotation
        budget -= 2 * k * len(w)
        if budget < 0:
            raise ValueError(f"the cyclic conjugates of the relators hold more than {MAX_TABLE_SLOTS} letters")
        for word in (w, [c ^ 1 for c in reversed(w)]):
            for i in range(k):
                words[word[i]][tuple(word[i:] + word[:i])] = None
    return [list(d) for d in words]


def _fill(
    table: Table, trail: List[Tuple[int, int]], words_by_col, x: int, c: int, y: int
) -> bool:
    """Set x --c--> y, then scan and deduce; False on a conflict.  Every entry
    set is on the trail, so the caller undoes a conflict."""
    table[x][c] = y
    table[y][c ^ 1] = x
    trail.append((x, c))
    pending = [(x, c)]
    while pending:
        x, c = pending.pop()
        for w in words_by_col[c]:
            f, i, n = x, 0, len(w)
            while i < n and table[f][w[i]] is not None:
                f = table[f][w[i]]
                i += 1
            if i == n:
                if f != x:
                    return False
                continue
            b, j = x, n - 1
            while j > i and table[b][w[j] ^ 1] is not None:
                b = table[b][w[j] ^ 1]
                j -= 1
            if j == i:  # one gap left: f --w[i]--> b
                d = w[i]
                if table[b][d ^ 1] is not None:
                    return False
                table[f][d] = b
                table[b][d ^ 1] = f
                trail.append((f, d))
                pending.append((f, d))
    return True


def _undo(table: Table, trail: List[Tuple[int, int]], mark: int) -> None:
    while len(trail) > mark:
        x, c = trail.pop()
        table[table[x][c]][c ^ 1] = None
        table[x][c] = None


def _low_index_table(words_by_col, ncols: int, bound: int) -> Tuple[Optional[Table], bool]:
    """The first closed table with 2..bound rows in search order, or None;
    and whether the bound ever refused a new coset.

    Cosets 0..n-1 are defined.  Rows are allocated only as cosets are
    defined; rows n.. are blank after an undo and are kept for reuse.
    """
    table: Table = [[None] * ncols]
    n = 1
    trail: List[Tuple[int, int]] = []
    choices: List[List[int]] = []  # [row, column, next candidate, trail mark, n]
    refused = False
    x = c = 0
    while True:
        while x < n and table[x][c] is not None:  # first undefined entry
            c += 1
            if c == ncols:
                x, c = x + 1, 0
        if x < n:
            choices.append([x, c, 0, len(trail), n])
        elif n >= 2:
            return table[:n], refused
        while True:  # next candidate of the innermost choice
            if not choices:
                return None, refused
            choice = choices[-1]
            x, c, y, mark, n = choice
            _undo(table, trail, mark)
            while y < n and table[y][c ^ 1] is not None:
                y += 1
            if y == n and n == bound:
                refused = True
                y += 1
            if y > n:
                choices.pop()
                continue
            choice[2] = y + 1
            if y == n:
                if n == len(table):
                    table.append([None] * ncols)
                n += 1
            if _fill(table, trail, words_by_col, x, c, y):
                break


def find_nontrivial_quotient(
    p: Presentation, max_degree: int = DEFAULT_MAX_DEGREE
) -> Optional[FiniteQuotientWitness]:
    """The action on the cosets of the first subgroup of least index 2..max_degree,
    or None (exhausted up to max_degree).  A ValueError refuses relators
    whose cyclic conjugates would pass ``MAX_TABLE_SLOTS`` letters."""
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    m = len(p.generators)
    if m == 0:
        return None
    words_by_col = _words_by_column(p, 2 * m)
    for bound in range(2, max_degree + 1):
        table, refused = _low_index_table(words_by_col, 2 * m, bound)
        if table is not None:
            images = tuple(zip(*table))[::2]  # the columns of g = 1..m
            return FiniteQuotientWitness(len(table), images, permutation_group_order(images, len(table)))
        if not refused:
            break
    return None
