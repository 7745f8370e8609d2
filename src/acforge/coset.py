"""Todd-Coxeter coset enumeration for the trivial subgroup.

HLT (relator-based) strategy: process live cosets in definition order; for
each, scan every relator and fill gaps with new sequentially numbered
cosets; process every coincidence to completion before continuing; finally
define any still-missing generator images.  On success the closed table's
live-coset count is the group order.  Deterministic by construction.

Scan/coincidence handling follows Holt, Eick, O'Brien, "Handbook of
Computational Group Theory", ch. 5 (union-find with path compression,
immediate queue draining).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, NamedTuple, Optional, Tuple, Union

from .presentation import Presentation

DEFAULT_MAX_COSETS = 10**6


class Finite(NamedTuple):
    """Successful enumeration: the presented group's order."""

    order: int


class CapExceeded(NamedTuple):
    """Enumeration stopped at the coset cap; says nothing about the group."""

    cosets: int


EnumerationResult = Union[Finite, CapExceeded]


def column(x: int) -> int:
    """Table column of the signed letter x: 2(g-1) for g, 2(g-1)+1 for g^-1.

    A letter and its inverse differ in the lowest bit, so ``c ^ 1`` is the
    inverse column of c.
    """
    return 2 * (abs(x) - 1) + (x < 0)


@dataclass
class CosetTable:
    """Closed table: per live coset, the successor under g and g^-1.

    Column 2(g-1) is the action of generator g, column 2(g-1)+1 of g^-1.
    Rows are renumbered 0..order-1 with coset 0 the subgroup coset.
    """

    n_generators: int
    rows: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.rows)

    def generator_permutation(self, g: int) -> Tuple[int, ...]:
        """Action of generator g (1-based) on cosets, as an image tuple."""
        col = column(g)
        return tuple(row[col] for row in self.rows)


class _Enumerator:
    def __init__(self, p: Presentation, max_cosets: int):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        self.ngens = len(p.generators)
        self.ncols = 2 * self.ngens
        self.relators = [[column(x) for x in r] for r in p.relators]
        self.max_cosets = max_cosets
        self.table: List[List[Optional[int]]] = [[None] * self.ncols]
        self.p: List[int] = [0]  # union-find parents, p[a] <= a
        self.live = 1
        self.capped = False

    # -- union-find ----------------------------------------------------------

    def rep(self, k: int) -> int:
        lam = k
        while self.p[lam] != lam:
            lam = self.p[lam]
        while self.p[k] != lam:  # path compression
            self.p[k], k = lam, self.p[k]
        return lam

    # -- definitions and coincidences -----------------------------------------

    def define(self, alpha: int, col: int) -> bool:
        """New coset as the image of alpha under column col; False at the cap."""
        if self.live >= self.max_cosets:
            self.capped = True
            return False
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.live += 1
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        return True

    def merge(self, k: int, lam: int, queue: Deque[int]):
        phi, psi = self.rep(k), self.rep(lam)
        if phi != psi:
            mu, nu = min(phi, psi), max(phi, psi)
            self.p[nu] = mu
            self.live -= 1
            queue.append(nu)

    def coincidence(self, alpha: int, beta: int):
        queue: Deque[int] = deque()
        self.merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for col in range(self.ncols):
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                # drop the back-reference delta --inv(col)--> gamma
                self.table[delta][col ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][col] is not None:
                    self.merge(nu, self.table[mu][col], queue)
                elif self.table[nu][col ^ 1] is not None:
                    self.merge(mu, self.table[nu][col ^ 1], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def scan_and_fill(self, alpha: int, word: List[int]) -> bool:
        """Scan relator ``word`` from alpha, defining cosets to close the gap.

        Returns False only when the coset cap blocks a definition.
        """
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return True
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return True
            if j == i:  # deduction closes the scan
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return True
            if not self.define(f, word[i]):
                return False

    def run(self) -> EnumerationResult:
        alpha = 0
        while alpha < len(self.table):
            if self.rep(alpha) == alpha:
                for word in self.relators:
                    if not self.scan_and_fill(alpha, word):
                        return CapExceeded(self.live)
                    if self.rep(alpha) != alpha:
                        break
                if self.rep(alpha) == alpha:
                    for col in range(self.ncols):
                        if self.table[alpha][col] is None:
                            if not self.define(alpha, col):
                                return CapExceeded(self.live)
            alpha += 1
        return Finite(self.live)

    def compressed(self) -> CosetTable:
        lookup = {}
        for i in range(len(self.table)):
            if self.rep(i) == i:
                lookup[i] = len(lookup)
        rows = []
        for i, row in enumerate(self.table):
            if self.rep(i) != i:
                continue
            rows.append(tuple(lookup[self.rep(x)] for x in row))
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


def validate_table(p: Presentation, t: CosetTable) -> List[str]:
    """Soundness checks: inverse consistency, permutation columns, relator traces."""
    problems = []
    n = t.order
    rows = t.rows
    for g in range(1, t.n_generators + 1):
        fwd = t.generator_permutation(g)
        if sorted(fwd) != list(range(n)):
            problems.append(f"generator {g} does not act as a permutation")
            continue
        back = column(-g)
        for c in range(n):
            if rows[fwd[c]][back] != c:
                problems.append(f"g then g^-1 does not return to start (g={g}, coset={c})")
                break
    for k, r in enumerate(p.relators, start=1):
        word = [column(x) for x in r]
        for c in range(n):
            d = c
            for col in word:
                d = rows[d][col]
            if d != c:
                problems.append(f"relator {k} does not fix coset {c}")
                break
    return problems
