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
(rotate j / invert j / MULR / undo, then cyclically reduce and
re-canonicalize relator i with unit rotations and one inversion).  A state
collapses when its relators are single positive letters covering each
generator exactly once; destabilizations finish the certificate.

NotFound only means the limits were exhausted; it is never evidence that
no trivialization exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .moves import (
    AcCertificate,
    CyclicPermute,
    Destabilize,
    InvertRelator,
    MultiplyRight,
    apply_move,
    replay,
)
from .presentation import EMPTY_PRESENTATION, Presentation, is_balanced
from .words import (
    Word,
    concat,
    cyclic_reduce,
    invert,
    is_cyclically_reduced,
    rotate,
    word_key,
)


@dataclass(frozen=True)
class SearchLimits:
    """Desk-scale caps; exceeding any of them yields NotFound, not evidence."""

    max_total_letters: int = 40
    max_relator_letters: int = 16
    max_depth: int = 12
    max_states: int = 5_000_000

    def __post_init__(self):
        if min(
            self.max_total_letters,
            self.max_relator_letters,
            self.max_depth,
            self.max_states,
        ) <= 0:
            raise ValueError("all search limits must be positive")


@dataclass(frozen=True)
class CanonicalForm:
    """Deduplication key: normalized relators, sorted."""

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]


def _encode(w: Word) -> Tuple[int, ...]:
    # order-preserving letter code: a < a^-1 < b < b^-1 < ... as plain ints
    return tuple((x << 1) if x > 0 else ((-x << 1) | 1) for x in w)


def canonical_relator(w: Word) -> Word:
    """Lex-least word among rotations of the cyclic reduction and of its inverse."""
    core, _ = cyclic_reduce(w)
    length = len(core)
    if length == 0:
        return core
    best_enc = None
    best_word = core
    for cand in (core, invert(core)):
        enc2 = _encode(cand) * 2
        cand2 = cand * 2
        for k in range(length):
            rot_enc = enc2[k : k + length]
            if best_enc is None or rot_enc < best_enc:
                best_enc = rot_enc
                best_word = cand2[k : k + length]
    return best_word


def canonical_form(p: Presentation) -> CanonicalForm:
    rels = tuple(sorted((canonical_relator(r) for r in p.relators), key=word_key))
    return CanonicalForm(p.generators, rels)


@dataclass(frozen=True)
class SearchResult:
    certificate: Optional[AcCertificate]
    found_depth: Optional[int]
    states_seen: int
    states_expanded: int
    limit_hit: Optional[str]  # "depth" | "states" | None (None + no cert: space exhausted)

    @property
    def found(self) -> bool:
        return self.certificate is not None


# internal state: (generator_count, relator tuple); names recoverable from the start
_State = Tuple[int, Tuple[Word, ...]]


def _state_key(s: _State):
    m, rels = s
    return m, tuple(sorted(rels, key=_encode))


def _collapsible(s: _State) -> bool:
    m, rels = s
    if len(rels) != m:
        return False
    if any(len(r) != 1 or r[0] < 0 for r in rels):
        return False
    return sorted(r[0] for r in rels) == list(range(1, m + 1))


def _successors(s: _State, limits: SearchLimits):
    m, rels = s
    n = len(rels)
    total = sum(len(r) for r in rels)
    out = []
    if m:
        for idx in range(n):
            if rels[idx] == (m,) and all(
                all(abs(x) != m for x in r) for k, r in enumerate(rels) if k != idx
            ):
                rest = tuple(r for k, r in enumerate(rels) if k != idx)
                out.append((("destab", idx), (m - 1, rest)))
    for i in range(n):
        ri = rels[i]
        for j in range(n):
            if j == i or not rels[j]:
                continue
            rj = rels[j]
            for delta in (1, -1):
                for b in range(len(rj)):
                    mult = rotate(rj, b)
                    if delta == -1:
                        mult = invert(mult)
                    cw = canonical_relator(concat(ri, mult))
                    if len(cw) > limits.max_relator_letters:
                        continue
                    if total - len(ri) + len(cw) > limits.max_total_letters:
                        continue
                    replaced = rels[:i] + (cw,) + rels[i + 1 :]
                    out.append((("mul", i, j, b, delta), (m, replaced)))
    return out


# --- certificate reconstruction ----------------------------------------------


def _normalize_relator(p: Presentation, i: int):
    """Primitive moves bringing relator i into canonical form."""
    moves = []

    def do(mv):
        nonlocal p
        moves.append(mv)
        p = apply_move(p, mv)

    while not is_cyclically_reduced(p.relators[i - 1]):
        do(CyclicPermute(i, 1))  # strips exactly one conjugating pair
    core = p.relators[i - 1]
    target = canonical_relator(core)
    if core != target:
        found = None
        for inv_flag in (False, True):
            base = invert(core) if inv_flag else core
            for k in range(len(base)):
                if rotate(base, k) == target:
                    found = (inv_flag, k)
                    break
            if found:
                break
        assert found is not None, "canonical form must be a rotation of the core or its inverse"
        inv_flag, k = found
        if inv_flag:
            do(InvertRelator(i))
        if k:
            do(CyclicPermute(i, k))
    return moves, p


def _edge_moves(p: Presentation, edge):
    """Expand one BFS edge into primitive moves applied to p."""
    moves = []

    def do(mv):
        nonlocal p
        moves.append(mv)
        p = apply_move(p, mv)

    if edge[0] == "destab":
        do(Destabilize(len(p.generators), edge[1] + 1))
        return moves, p
    _, i, j, b, delta = edge
    if b:
        do(CyclicPermute(j + 1, b))
    if delta == -1:
        do(InvertRelator(j + 1))
    do(MultiplyRight(i + 1, j + 1))
    if delta == -1:
        do(InvertRelator(j + 1))
    if b:
        do(CyclicPermute(j + 1, -b))
    more, p = _normalize_relator(p, i + 1)
    moves.extend(more)
    return moves, p


def _collapse_moves(p: Presentation):
    moves = []
    while p.generators:
        m = len(p.generators)
        idx = next(k for k, r in enumerate(p.relators, start=1) if r == (m,))
        mv = Destabilize(m, idx)
        moves.append(mv)
        p = apply_move(p, mv)
    return moves, p


def search_trivialization(
    p: Presentation, limits: SearchLimits | None = None
) -> SearchResult:
    """BFS for a certificate from p to the empty presentation.

    Deterministic: fixed expansion order, first-in-first-out frontier.
    """
    if limits is None:
        limits = SearchLimits()
    if not is_balanced(p):
        raise ValueError(
            f"search requires a balanced presentation, got {len(p.generators)} "
            f"generator(s) and {len(p.relators)} relator(s)"
        )

    prefix_moves: List = []
    current = p
    for i in range(1, len(p.relators) + 1):
        more, current = _normalize_relator(current, i)
        prefix_moves.extend(more)
    start: _State = (len(current.generators), current.relators)

    def finish(path_edges, depth: int, seen: int, expanded: int):
        pres = current
        moves = list(prefix_moves)
        for edge in path_edges:
            more, pres = _edge_moves(pres, edge)
            moves.extend(more)
        tail, pres = _collapse_moves(pres)
        moves.extend(tail)
        assert pres == EMPTY_PRESENTATION
        cert = AcCertificate(p, tuple(moves), EMPTY_PRESENTATION)
        assert replay(cert), "reconstructed certificate must replay"
        return SearchResult(cert, depth, seen, expanded, None)

    if _collapsible(start):
        return finish([], 0, 1, 0)

    seen = {_state_key(start)}
    parent: Dict[_State, Tuple[_State, tuple]] = {}
    depth: Dict[_State, int] = {start: 0}
    queue = deque([start])
    expanded_keys = set()
    expanded = 0
    limit_hit = None

    def path_to(t: _State):
        edges = []
        node = t
        while node in parent:
            node, edge = parent[node]
            edges.append(edge)
        edges.reverse()
        return edges

    while queue:
        s = queue.popleft()
        d = depth[s]
        if d >= limits.max_depth:
            limit_hit = limit_hit or "depth"
            continue
        key = _state_key(s)
        assert key not in expanded_keys, "a canonical form was expanded twice"
        expanded_keys.add(key)
        expanded += 1
        for edge, t in _successors(s, limits):
            k = _state_key(t)
            if k in seen:
                continue
            if len(seen) >= limits.max_states:
                limit_hit = "states"
                queue.clear()
                break
            seen.add(k)
            parent[t] = (s, edge)
            depth[t] = d + 1
            if _collapsible(t):
                return finish(path_to(t), d + 1, len(seen), expanded)
            queue.append(t)
        else:
            continue
        break

    return SearchResult(None, None, len(seen), expanded, limit_hit)
