"""Bounded breadth-first search for trivializing move sequences.

States are presentations with every relator in canonical form: the
lexicographically least word among all rotations of its cyclic reduction
and of the inverse's rotations (letter order a < a^-1 < b < b^-1 ...).
The visited set additionally ignores relator order, so each canonical form
is expanded at most once.

A single inversion, rotation or conjugation of one relator lands in the
same canonical form, so those moves generate nothing by themselves; the
productive transitions are

    relator i  <-  reduce(r_i . rot_b(r_j)^delta)      (j != i)

over every rotation b and sign delta of the multiplier, plus
destabilizations.  That is exactly the set of states the primitive moves
reach via "adjust r_j, multiply, restore r_j" composites, and each edge is
expanded into such a primitive run when a certificate is reconstructed
(rotate j / MULR or MULRI / undo, then cyclically reduce and
re-canonicalize relator i with unit rotations and one inversion).  A state
collapses when its relators are single positive letters covering each
generator exactly once; destabilizations finish the certificate.

Inside the search a relator is a ``bytes`` word in the package's letter
code (``words.column``), one byte per letter, so a search takes at most
``MAX_GENERATORS`` = 127 generators and refuses more with a ValueError.
The code preserves the letter order, so bytes comparison is the canonical
order and a state's visited key is its sorted relator tuple.  Inversion
runs in C: the reversed word translated through ``_FLIP``, the table of
``x ^ 1``.

Every rotation of a relator r of n letters and of its inverse is read off
one ring, ``_ring(r)`` = r r inv inv of 4n bytes: rot_b(r) starts at b and
rot_b(inv) at 2n + b, for 0 <= b < n.  No window that crosses the middle
is a rotation of either, since it holds r's last letter next to its
inverse and so is not cyclically reduced.  ``_least`` slices only the
windows that start with the least letter (found with ``bytes.find``) and
takes the least of them; ``_successors`` keeps one ring per relator of a
state and slices a multiplier only when pruning keeps it;
``_normalize_relator`` finds the canonical rotation with one ``find``.  No
list of rotations is built.

Words are coded once at the start state and decoded only through the
signed-word ``canonical_relator`` used to reconstruct certificates.  Each
BFS edge is one int (see ``_successors``), which ``_edge_moves`` decodes
against the relators of its source state.  Reconstruction applies and
records the primitive moves on one replay state (``moves._Replay``), from
p through the path to collapse.  Successors are pruned length first: the
canonical length of a product is the length of its cyclic reduction, so a
candidate over the letter caps is dropped before its least rotation is
computed.

A start state whose relators' rotations would take ``ROTATION_BYTES``
(200 MB) or more, 2L^2 bytes for a cyclically reduced relator of L
letters, is refused with a ValueError before it is normalized.  The budget
bounds work, not memory held: ``_least`` and the first expansion copy
those rotations one after another.

NotFound only means the limits were exhausted; it is never evidence that
no trivialization exists.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

from .coset import MAX_TABLE_SLOTS
from .moves import (
    AcCertificate,
    AcMove,
    CyclicPermute,
    Destabilize,
    InvertRelator,
    MultiplyRight,
    _Replay,
    replay,
)
from .presentation import EMPTY_PRESENTATION, Presentation, require_balanced
from .record import Record, set_field
from .words import Word, column, cyclic_reduce, letter


class SearchLimits(Record):
    """Desk-scale caps; exceeding any of them yields NotFound, not evidence."""

    __slots__ = ("max_total_letters", "max_relator_letters", "max_depth", "max_states")

    def __init__(
        self,
        max_total_letters: int = 40,
        max_relator_letters: int = 16,
        max_depth: int = 12,
        max_states: int = 5_000_000,
    ):
        if min(max_total_letters, max_relator_letters, max_depth, max_states) <= 0:
            raise ValueError("all search limits must be positive")
        set_field(self, "max_total_letters", max_total_letters)
        set_field(self, "max_relator_letters", max_relator_letters)
        set_field(self, "max_depth", max_depth)
        set_field(self, "max_states", max_states)


# generators of a search; a letter's code must fit in one byte
MAX_GENERATORS = 127

# a word in the letter code of ``words.column``, one byte per letter
Code = bytes

# bytes of rotations of the start state's relators that a search may copy,
# the 200 MB that coset tables and ``quotient``'s relator rotations may take
ROTATION_BYTES = 8 * MAX_TABLE_SLOTS

# code -> code of the inverse letter
_FLIP = bytes(y ^ 1 for y in range(256))


def _code(w: Word) -> Code:
    return bytes(map(column, w))


def _signed(c: Code) -> Word:
    return tuple(map(letter, c))


def _ring(r: Code) -> Code:
    """r r inv inv for inv = r^-1: rot_b(r) is ``ring[b : b + n]`` and
    rot_b(inv) is ``ring[2n + b : 3n + b]`` for 0 <= b < n letters."""
    inv = r[::-1].translate(_FLIP)
    return r + r + inv + inv


def _least(r: Code) -> Code:
    """The least rotation of r or of its inverse: the canonical form of a
    cyclically reduced r.  Only rotations that start with the least letter
    of either can be least, so only those are sliced from the ring."""
    if not r:
        return r
    n = len(r)
    ring = _ring(r)
    c = min(ring)
    best = None
    for lo in (0, 2 * n):
        b = ring.find(c, lo, lo + n)
        while b >= 0:
            cand = ring[b : b + n]
            if best is None or cand < best:
                best = cand
            b = ring.find(c, b + 1, lo + n)
    return best


def canonical_relator(w: Word) -> Word:
    """Lex-least word among rotations of the cyclic reduction and of its
    inverse; letters must lie within ``MAX_GENERATORS`` generators."""
    return _signed(_least(_code(cyclic_reduce(w)[0])))


class SearchResult(NamedTuple):
    certificate: Optional[AcCertificate]
    found_depth: Optional[int]
    states_seen: int
    states_expanded: int
    limit_hit: Optional[str]  # "depth" | "states" | None (None + no cert: space exhausted)
    frontier: Tuple[int, ...]  # states first reached at each depth; sums to states_seen

    @property
    def found(self) -> bool:
        return self.certificate is not None


# internal state: coded relators; a balanced search has one generator per
# relator, and names are recoverable from the start
_State = Tuple[Code, ...]


def _successors(rels: _State, limits: SearchLimits):
    """(edge, state) pairs in expansion order.  An edge is one int: -1 - idx
    for destabilizing relator idx, and e n^2 + i n + j for r_i <- r_i . v
    among n relators, 0 <= e < 2L for L = len(r_j): v is the L letters of
    ``_ring(r_j)`` from e for e < L, which is rot_e(r_j), and from 4L - e
    otherwise, the inverse of rot_{e - L}(r_j)."""
    n = len(rels)
    nn = n * n
    out = []
    top = 2 * n - 2  # the last generator, the only one a destabilization removes
    alone = bytes((top,))
    for idx, r in enumerate(rels):
        if r == alone and all(
            top not in s and top + 1 not in s for k, s in enumerate(rels) if k != idx
        ):
            out.append((-1 - idx, rels[:idx] + rels[idx + 1 :]))
    total = sum(map(len, rels))
    rings = [_ring(r) for r in rels]
    for i, u in enumerate(rels):
        lu = len(u)
        # the product's canonical length is that of its cyclic reduction
        cap = min(limits.max_relator_letters, limits.max_total_letters - total + lu)
        # the letters that cancel u's last and first letter (none if u is empty)
        tail, head = (u[-1] ^ 1, u[0] ^ 1) if u else (-1, -1)
        for j, ring in enumerate(rings):
            if j == i or not ring:
                continue
            lv = len(ring) // 4
            seam = min(lu, lv)
            ij = i * n + j
            # u . v is over the cap unless its seam or its ends cancel
            far = seam and lu + lv > cap
            for e in range(2 * lv):
                s = e if e < lv else 4 * lv - e  # v is ring[s : s + lv]
                if ring[s] != tail:
                    if far and ring[s + lv - 1] != head:
                        continue  # nothing cancels: too long as it is
                    w = u + ring[s : s + lv]
                else:
                    k = 1
                    while k < seam and u[lu - 1 - k] ^ ring[s + k] == 1:
                        k += 1
                    if lu + lv - 2 * k > cap and k < seam and ring[s + lv - 1] != head:
                        continue  # the ends do not cancel either: too long as it is
                    w = u[: lu - k] + ring[s + k : s + lv]
                lo, hi = 0, len(w)
                if hi > 2 * limits.max_relator_letters:  # only a relator kept from the start is this long
                    t = (hi - cap + 1) // 2  # end pairs that must cancel to fit the cap
                    if w[:t] != w[-t:][::-1].translate(_FLIP):
                        continue
                while hi - lo >= 2 and w[lo] ^ w[hi - 1] == 1:
                    lo += 1
                    hi -= 1
                if hi - lo > cap:
                    continue
                out.append((e * nn + ij, rels[:i] + (_least(w[lo:hi]),) + rels[i + 1 :]))
    return out


# --- certificate reconstruction ----------------------------------------------


def _normalize_relator(state: _Replay, i: int, moves: List[AcMove]) -> None:
    """Bring relator i of ``state`` into canonical form with primitive
    moves, applied to ``state`` and appended to ``moves``."""
    core, conjugator = cyclic_reduce(state.relators[i - 1])
    # each unit rotation strips exactly one conjugating pair
    step: List[AcMove] = [CyclicPermute(i, 1)] * len(conjugator)
    target = canonical_relator(core)
    if core != target:
        # the first match is the least shift; none spans the ring's middle,
        # where the last letter of core meets its inverse
        n2 = 2 * len(core)
        k = _ring(_code(core)).find(_code(target))
        if k >= n2:
            step.append(InvertRelator(i))
            k -= n2
        if k:
            step.append(CyclicPermute(i, k))
    for mv in step:
        state.apply(mv)
    moves.extend(step)


def _edge_moves(state: _Replay, edge: int, moves: List[AcMove]) -> None:
    """Expand one BFS edge (see ``_successors``) into primitive moves,
    applied to ``state``, whose relators are those of the edge's source
    state, and appended to ``moves``."""
    if edge < 0:
        step: List[AcMove] = [Destabilize(len(state.generators), -edge)]
    else:
        n = len(state.relators)
        b, ij = divmod(edge, n * n)
        i, j = divmod(ij, n)
        lv = len(state.relators[j])
        delta = 1 if b < lv else -1
        b %= lv
        step = [MultiplyRight(i + 1, j + 1, delta)]
        if b:
            step = [CyclicPermute(j + 1, b), *step, CyclicPermute(j + 1, -b)]
    for mv in step:
        state.apply(mv)
    moves.extend(step)
    if edge >= 0:
        _normalize_relator(state, i + 1, moves)


def search_trivialization(
    p: Presentation, limits: SearchLimits | None = None
) -> SearchResult:
    """BFS for a certificate from p to the empty presentation.

    Deterministic: fixed expansion order, first-in-first-out frontier.
    """
    if limits is None:
        limits = SearchLimits()
    require_balanced(p)
    if len(p.generators) > MAX_GENERATORS:
        raise ValueError(
            f"search codes each letter in one byte and takes at most {MAX_GENERATORS} "
            f"generators, got {len(p.generators)}"
        )

    # _least, then the first expansion, copy up to 2L rotations of L letters,
    # 1 B each, of every relator, one after another: work, not memory held;
    # later states are bounded by the letter caps
    need = 2 * sum(len(cyclic_reduce(r)[0]) ** 2 for r in p.relators)
    if need >= ROTATION_BYTES:
        raise ValueError(
            f"the relators' rotations would take {need} bytes; a search allows fewer than {ROTATION_BYTES}"
        )

    state, moves = _Replay(p), []  # from p to the start state, then on in ``finish``
    for i in range(1, len(p.relators) + 1):
        _normalize_relator(state, i, moves)
    start: _State = tuple(_code(r) for r in state.relators)

    def finish(path_edges, depth: int, seen: int, expanded: int, frontier):
        for edge in path_edges:
            _edge_moves(state, edge, moves)
        while state.generators:  # collapse: destabilize the last generator g along relator g
            m = len(state.generators)
            _edge_moves(state, -1 - state.relators.index((m,)), moves)
        assert state.presentation() == EMPTY_PRESENTATION
        cert = AcCertificate(p, tuple(moves), EMPTY_PRESENTATION)
        assert replay(cert), "reconstructed certificate must replay"
        return SearchResult(cert, depth, seen, expanded, None, tuple(frontier))

    # a state collapses when its relators are the positive letters, one per
    # generator: goals[n] is that key for n relators
    goals = [tuple(bytes((c,)) for c in range(0, 2 * n, 2)) for n in range(len(start) + 1)]
    # visited key (sorted relators) -> (parent's key, edge); None at the start.
    # An edge indexes the relators of the parent state as reached, which is
    # the order that replaying the path from the start state rebuilds.
    key = tuple(sorted(start))
    if key == goals[len(key)]:
        return finish([], 0, 1, 0, (1,))
    queue = deque([(start, key, 0)])  # (state as reached, its key, depth)
    parent: Dict[_State, Optional[Tuple[_State, int]]] = {key: None}
    expanded = 0
    frontier = [1]

    def path_to(key: _State):
        edges = []
        entry = parent[key]
        while entry is not None:
            key, edge = entry
            edges.append(edge)
            entry = parent[key]
        edges.reverse()
        return edges

    # breadth first: first in, first out, so depths leave the queue in order
    while queue:
        s, key, d = queue.popleft()
        if d == limits.max_depth:
            # every state above the cap was expanded, once each
            assert expanded == sum(frontier[:d]), "a canonical form was expanded twice"
            return SearchResult(None, None, len(parent), expanded, "depth", tuple(frontier))
        expanded += 1
        for edge, t in _successors(s, limits):
            k = tuple(sorted(t))
            if k in parent:
                continue
            if len(parent) >= limits.max_states:
                return SearchResult(None, None, len(parent), expanded, "states", tuple(frontier))
            parent[k] = (key, edge)
            if len(frontier) == d + 1:
                frontier.append(0)
            frontier[d + 1] += 1
            if k == goals[len(k)]:
                return finish(path_to(k), d + 1, len(parent), expanded, frontier)
            queue.append((t, k, d + 1))
    # every state reached was expanded, once each
    assert expanded == len(parent), "a canonical form was expanded twice"
    return SearchResult(None, None, len(parent), expanded, None, tuple(frontier))
