"""Todd-Coxeter coset enumeration for the trivial subgroup.

HLT (relator-based) strategy: process live cosets in definition order; for
each, scan every relator and fill gaps with new sequentially numbered
cosets; process every coincidence to completion before continuing; finally
define any still-missing generator images.  On success the closed table's
live-coset count is the group order.  Deterministic by construction.

Scan/coincidence handling follows Holt, Eick, O'Brien, "Handbook of
Computational Group Theory", ch. 5 (union-find with path compression,
immediate queue draining).  ``run`` traces each relator forward from the
coset first; when the trace completes (a closed scan: 65,519 of S7's
75,600 scans) it merges only if the trace ended elsewhere.  A scan that
meets an undefined entry runs the Handbook's two-ended scan instead.

The table is one flat list of ints.  A coset is the offset of its row; a
row holds one slot per column, then the coset's union-find slot, so
``table[f + col]`` is the image of coset f under col.  There is no object
per coset and no list per row.  Row 0 is a sink: every slot of it is 0 and
stays 0, coset 0 is the row at offset ``width``, and 0 marks an undefined
entry.  A trace that meets an undefined entry lands on the sink and stays
there, since every column of the sink leads back to it.  So the closed
scan reads one entry per letter with no test: afterwards the coset it
started from means nothing to do, another coset a coincidence, and 0 a
gap.  The sink row is not counted against ``MAX_TABLE_SLOTS``.

The union-find slot is 0 for a live coset, so a blank row is a live coset
and a definition is one ``extend`` and the two entries it sets; a merged
coset's slot holds the smaller coset it was merged into.  The enumerator
counts merges, not live cosets: ``live`` is the rows defined less the
merges.  Both caps are one offset, ``budget()``, which ``run`` reads
once into ``stop``: a new row at offset ``stop`` or past it would make
``max_cosets`` + 1 live cosets or pass the slot budget, so a definition
is one comparison with it.  Merges only raise the budget, so a value read
before them is a safe bound; ``run`` reads it again only when it would
refuse a definition.  ``run`` is the only code that defines cosets, in
the gap path's chains and in the final fill of missing images, and it
does so by this one rule.

When the gap path defines beta = f fwd[i], beta's row is blank but for its
back-reference at back[i].  The forward end then reads beta's fwd[i+1]
entry, which is that back-reference only if fwd[i+1] is the inverse column
of fwd[i]; the backward end reads b's back[j] entry, which the definition
set only if b is f and back[j] is fwd[i].  When neither holds, neither end
can move until beta's gap is filled, and the same holds at every later new
coset, whose row is blank too and differs from b.  So ``run`` defines
fwd[i+1..j-1] as a chain of new cosets, checking both caps before each, and
closes with the deduction at j, reading neither end again: the sequence of
definitions and the table are those of the one-step scan.  The first
condition is checked once per relator, over its whole column word: it fails
only for a shared column next to itself (``a a`` inside a longer relator)
or an unreduced word.  On Rapaport to 2,000 cosets the loop reads 8,113
entries instead of 10,605.

A generator g with a relator ``g g`` or ``g^-1 g^-1`` gets one column for
both g and g^-1 (Handbook ch. 5; Havas and Ramsay's ACE does the same).
Every definition and deduction sets an entry and its inverse entry, which
for a shared column are ``f --g--> b`` and ``b --g--> f``, so g acts as an
involution in every table built: g^2 holds by construction and is dropped
from the scan list, and each deduction is one the group forces, since g
equals g^-1 there.  Only the literal ``g g`` and ``g^-1 g^-1`` are dropped;
any other relator, of length 2 or not, is scanned.  Each relator is coded
once as its forward column word and the word of inverse columns, so a scan
does no lookups.  With no such relator the columns are those of
``words.column`` and the definition sequence is the same as with a column
per letter.  With them far fewer cosets are defined: S7's Coxeter
presentation, relators s_i^2, (s_i s_i+1)^3, (s_i s_j)^2 in that order,
closes after 6,411 definitions instead of 12,145.

``coset_table`` numbers the closed table in standard order: coset 0 first,
then cosets in order of first appearance, reading rows in that order and
the 2m columns of ``CosetTable`` left to right.  The result depends only on
the group and its generator order, not on how the enumeration went.

Memory is bounded twice, through ``budget()``: ``max_cosets`` counts live
cosets, and the table may hold at most ``MAX_TABLE_SLOTS`` slots (about
200 MB), so that a presentation with hundreds of generators stops with
``CapExceeded`` instead of exhausting memory.  A row has 2m + 1 slots or
fewer, so with at most 12 generators the slot budget binds only after
10**6 cosets have been defined, which at the default ``max_cosets`` means
coincidences have already removed some.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Deque, List, NamedTuple, Tuple, Union

from .presentation import Presentation
from .words import column, invert

DEFAULT_MAX_COSETS = 10**6
# bounds memory whatever the generator count: about 8 B a slot, so 200 MB
MAX_TABLE_SLOTS = 25 * 10**6


class Finite(NamedTuple):
    """Successful enumeration: the presented group's order."""

    order: int


class CapExceeded(NamedTuple):
    """Enumeration stopped at the coset cap or the slot budget; says nothing
    about the group.  ``cosets`` is the live count when it stopped: the
    rows defined less the merges, at most ``max_cosets``."""

    cosets: int


EnumerationResult = Union[Finite, CapExceeded]


class CosetTable(NamedTuple):
    """Closed table: per live coset, the successor under g and g^-1.

    Column ``words.column(x)`` is the action of the letter x.  Rows are
    renumbered 0..order-1 in standard order (module docstring), coset 0
    being the subgroup coset.
    """

    n_generators: int
    rows: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.rows)


class _Enumerator:
    """HLT enumeration on one flat list (layout in the module docstring)."""

    def __init__(self, p: Presentation, max_cosets: int):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        self.ngens = len(p.generators)
        shared = {abs(r[0]) for r in p.relators if len(r) == 2 and r[0] == r[1]}
        # columns[column(x)] is the table column of letter x; inv maps a
        # table column to the column of the inverse letter
        self.columns: List[int] = []
        self.inv: List[int] = []
        for g in range(1, self.ngens + 1):
            c = len(self.inv)
            if g in shared:
                self.columns += [c, c]
                self.inv.append(c)
            else:
                self.columns += [c, c + 1]
                self.inv += [c + 1, c]
        self.ncols = len(self.inv)
        self.width = self.ncols + 1
        # a shared column is an involution by construction, so g^2 needs no scan;
        # a relator whose column word never steps straight back may chain
        self.relators = []
        for r in p.relators:
            if len(r) == 2 and r[0] == r[1]:
                continue
            fwd = [self.columns[column(x)] for x in r]
            chain = all(c != self.inv[d] for d, c in zip(fwd, fwd[1:]))
            self.relators.append((fwd, [self.inv[c] for c in fwd], chain))
        self.max_cosets = max_cosets
        self.blank = [0] * self.width
        self.table: List[int] = self.blank + self.blank  # the sink row, then coset 0
        self.dead = 0  # cosets merged into another

    @property
    def live(self) -> int:
        """Live cosets: rows defined (the sink not counted) less merges."""
        return len(self.table) // self.width - 1 - self.dead

    def budget(self) -> int:
        """The lowest offset a new row may not take: a row there would make
        ``max_cosets`` + 1 live cosets or pass ``MAX_TABLE_SLOTS`` slots, the
        sink row not counted.  Merges only raise it, so a value read earlier
        is a safe bound."""
        return min((self.max_cosets + 1 + self.dead) * self.width, MAX_TABLE_SLOTS + 1)

    # -- union-find ----------------------------------------------------------

    def rep(self, k: int) -> int:
        table, pc = self.table, self.ncols
        lam = k
        while table[lam + pc]:
            lam = table[lam + pc]
        while k != lam:  # path compression
            table[k + pc], k = lam, table[k + pc]
        return lam

    # -- coincidences ---------------------------------------------------------

    def merge(self, k: int, lam: int, queue: Deque[int]):
        phi, psi = self.rep(k), self.rep(lam)
        if phi != psi:
            mu, nu = min(phi, psi), max(phi, psi)
            self.table[nu + self.ncols] = mu
            self.dead += 1
            queue.append(nu)

    def coincidence(self, alpha: int, beta: int):
        table, inv, rep, merge = self.table, self.inv, self.rep, self.merge
        queue: Deque[int] = deque()
        merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for col in range(self.ncols):
                delta = table[gamma + col]
                if not delta:
                    continue
                icol = inv[col]
                # drop the back-reference delta --icol--> gamma
                table[delta + icol] = 0
                mu, nu = rep(gamma), rep(delta)
                if table[mu + col]:
                    merge(nu, table[mu + col], queue)
                elif table[nu + icol]:
                    merge(mu, table[nu + icol], queue)
                else:
                    table[mu + col] = nu
                    table[nu + icol] = mu

    def run(self) -> EnumerationResult:
        table, pc, width, inv = self.table, self.ncols, self.width, self.inv
        coincidence, blank, stop = self.coincidence, self.blank, self.budget()
        alpha = width
        while alpha < len(table):
            if not table[alpha + pc]:
                for fwd, back, chain in self.relators:
                    f = alpha
                    for c in fwd:  # a gap drops the trace into the sink, 0
                        f = table[f + c]
                    if f == alpha:
                        continue
                    if f:
                        coincidence(f, alpha)
                    else:  # gap path: scan from both ends, defining cosets in between
                        f, i = alpha, 0
                        b, j = alpha, len(fwd) - 1
                        while True:
                            while i <= j:
                                x = table[f + fwd[i]]
                                if not x:
                                    break
                                f = x
                                i += 1
                            if i > j:
                                if f != b:
                                    coincidence(f, b)
                                break
                            while j >= i:
                                x = table[b + back[j]]
                                if not x:
                                    break
                                b = x
                                j -= 1
                            if j < i:
                                coincidence(f, b)
                                break
                            # past both guards (module docstring) neither end
                            # can move: define on down the chain to j
                            chained = chain and (b != f or back[j] != fwd[i])
                            while i < j:  # define beta = f fwd[i]
                                beta = len(table)
                                if beta >= stop:
                                    stop = self.budget()
                                    if beta >= stop:
                                        return CapExceeded(self.live)
                                table.extend(blank)
                                table[f + fwd[i]] = beta
                                table[beta + back[i]] = f
                                f = beta
                                i += 1
                                if not chained:
                                    break
                            else:  # deduction closes the scan
                                table[f + fwd[i]] = b
                                table[b + back[i]] = f
                                break
                    if table[alpha + pc]:
                        break
                else:  # fill the images still missing, by the same rule
                    for col in range(pc):
                        if not table[alpha + col]:
                            beta = len(table)
                            if beta >= stop:
                                stop = self.budget()
                                if beta >= stop:
                                    return CapExceeded(self.live)
                            table.extend(blank)
                            table[alpha + col] = beta
                            table[beta + inv[col]] = alpha
            alpha += width
        return Finite(self.live)

    def compressed(self) -> CosetTable:
        """The closed table in standard numbering, with all 2m columns."""
        table, columns = self.table, self.columns
        number = [-1] * len(table)  # standard number of a coset offset
        number[self.width] = 0
        order = [self.width]
        rows = []
        for f in order:  # order grows as new cosets appear
            row = []
            for c in columns:
                d = table[f + c]
                k = number[d]
                if k < 0:
                    k = number[d] = len(order)
                    order.append(d)
                row.append(k)
            rows.append(tuple(row))
        return CosetTable(self.ngens, tuple(rows))


def enumerate_cosets(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> EnumerationResult:
    """Group order by coset enumeration, or CapExceeded (inconclusive)."""
    return _Enumerator(p, max_cosets).run()


def coset_table(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> Union[CosetTable, CapExceeded]:
    """The closed, renumbered table (its ``order`` is the group order) from
    the same single enumeration, or CapExceeded (inconclusive)."""
    e = _Enumerator(p, max_cosets)
    result = e.run()
    if isinstance(result, CapExceeded):
        return result
    return e.compressed()


def multiply(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """p then q (left-to-right action) for image tuples: one C-level gather,
    ``q[p[i]]`` for every i.  ``itemgetter`` of one index returns a scalar
    and of none is an error, so degrees 0 and 1 are built in Python."""
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[i] for i in p)


def _first_moved(p: Tuple[int, ...], q: Tuple[int, ...]) -> int:
    """The first coset that p and q send to different cosets."""
    return next(c for c, (d, e) in enumerate(zip(p, q)) if d != e)


def _ints(images: Tuple[int, ...]) -> bool:
    """Whether every entry is an int (a bool counts, as in Python): a float
    or a None makes the sum another type or raises."""
    try:
        return type(sum(images)) is int
    except TypeError:
        return False


def _trace(cols, word, identity: Tuple[int, ...]) -> Tuple[int, ...]:
    """The permutation of the cosets that word gives: its first letter's
    column, then one gather per further letter."""
    cur = cols[column(word[0])] if word else identity
    for x in word[1:]:
        cur = multiply(cur, cols[column(x)])
    return cur


def _row_problem(rows, width: int) -> str:
    """The first row that is not a sequence of ``width`` entries, named."""
    if not hasattr(rows, "__len__"):
        return "table rows are not a sequence"
    for c, row in enumerate(rows):
        try:
            k = len(row)
        except TypeError:
            return f"row {c} is not a sequence"
        if k != width:
            return f"row {c} has {k} entries, not {width}"


def validate_table(p: Presentation, t: CosetTable) -> List[str]:
    """Problems with t as a coset table of p, one line each; [] if none.

    Checks in order: the table has p's generator count (an int); the rows
    are a sequence of sequences of one entry per column (2m); every entry
    is an int 0..n-1 (a bool counts, a float such as 1.0 does not); each
    generator column is a permutation; g then g^-1 returns every coset to
    itself; each relator of p fixes every coset.  The first three are
    checks of form: they name the first row at fault (for entries, in each
    column) and end the check, so a malformed table gives problems, never
    an exception, and nothing is traced through an entry out of range.  The
    later checks each name the first coset that fails.

    The kernel is a gather over whole columns: each column is an image
    tuple, and ``multiply`` composes two of them for all n cosets in one
    C-level ``itemgetter(*cur)(col)``.  g then g^-1 is one gather of the
    inverse column through the forward one.  With g's entries ints >= 0 (a
    negative one would wrap) and the gather not raising IndexError (so none
    is past the table), that being the identity makes both columns
    permutations, and inverse ones: the inverse column's entries, then
    equal to cosets, need only ``_ints``.  So the entry and set-based checks
    run only for a generator that fails it, and the passing path builds no
    set or dict of the cosets: at n = 5040 one is a 512 kB block, and
    freeing it raises glibc's mmap threshold and with it the peak memory of
    later, larger work.

    A relator r of L letters is split as r = x y, x its first ceil(L/2)
    letters, and checked by comparing two permutations, the ones x and the
    inverse word y^-1 give, each traced from its first letter's column.
    Once every generator has passed, each inverse column is the inverse
    permutation, so y^-1 gives the inverse of y's permutation, and c x y = c
    exactly when c x = c y^-1: the first coset where the two differ is the
    first one r moves.  That is L - 2 gathers where the whole word takes
    L - 1, and none for g^2 (g's column against g^-1's); S7's check takes 46
    gathers, not 67.  If any generator failed, x is all of r and y is empty,
    so r is traced whole and compared with the identity.  Only a check that
    fails goes on to search for its first coset or entry.

    A table that passes shows an action of the group of p on n points, and
    so a quotient of that group, its image.  It need not be transitive: the
    2-row identity table ``((0, 0, 0, 0), (1, 1, 1, 1))`` passes for
    ``< a, b | a, b >``, the trivial group.  With transitivity, which is
    not checked here, it shows |G| >= n.  It never certifies ``ORDER n``:
    the upper bound needs a proof about the kernel of the action, which
    the image alone does not give (ROADMAP item 8).  The 3-row table
    ``((1, 2), (2, 0), (0, 1))`` passes for ``< a | a^6 >``, a group of
    order 6.

    Called by ``quotient.verify_witness`` on a witness's table; the tests
    run it on the tables ``coset_table`` closes.
    """
    m, rows = t.n_generators, t.rows
    if not isinstance(m, int) or len(p.generators) != m:
        return [f"table has {m} generators, presentation has {len(p.generators)}"]
    try:
        n, ragged = len(rows), set(map(len, rows)) - {2 * m}
    except TypeError:  # the rows, or a row, without a length
        ragged = True
    if ragged:
        return [_row_problem(rows, 2 * m)]
    cols = list(zip(*rows)) if n else [()] * (2 * m)
    identity = tuple(range(n))
    failed = []  # generators whose two columns are not inverse permutations of ints
    for g in range(1, m + 1):
        fwd, back = cols[column(g)], cols[column(-g)]
        try:  # the gather raises IndexError on an entry past the table, min TypeError on None
            ok = min(fwd, default=0) >= 0 and _ints(fwd) and multiply(fwd, back) == identity and _ints(back)
        except (IndexError, TypeError):
            ok = False
        if not ok:
            failed.append(g)
    problems = []
    for col in [column(x) for g in failed for x in (g, -g)]:
        for c, x in enumerate(cols[col]):
            if not (isinstance(x, int) and 0 <= x < n):
                why = f"outside 0..{n - 1}" if isinstance(x, int) else "not an int"
                problems.append(f"row {c} column {col}: entry {x!r} is {why}")
                break
    if problems:
        return problems
    for g in failed:
        fwd = cols[column(g)]
        if len(set(fwd)) != n:
            problems.append(f"generator {g} does not act as a permutation")
        else:
            c = _first_moved(multiply(fwd, cols[column(-g)]), identity)
            problems.append(f"g then g^-1 does not return to start (g={g}, coset={c})")
    for k, r in enumerate(p.relators, start=1):
        h = len(r) if failed else (len(r) + 1) // 2  # r = x y with x = r[:h]
        x, y_inv = _trace(cols, r[:h], identity), _trace(cols, invert(r[h:]), identity)
        if x != y_inv:
            problems.append(f"relator {k} does not fix coset {_first_moved(x, y_inv)}")
    return problems
