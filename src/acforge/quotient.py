"""Nontriviality certificates via homomorphisms onto permutation groups.

Backtracking over generator-image tuples in S_2, S_3, ..., S_d in a fixed
canonical order (itertools.permutations is lexicographic over image
tuples).  A partial assignment is pruned as soon as a relator whose
generators are all assigned fails to evaluate to the identity.  The first
surviving assignment with a non-identity image is the witness; exhaustion
means only "no nontrivial quotient of degree <= d", never "trivial group".

Permutations are image tuples over 0..d-1 internally; cycle notation is
1-based for display.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .presentation import Presentation

Permutation = Tuple[int, ...]


def identity_perm(degree: int) -> Permutation:
    return tuple(range(degree))


def multiply(p: Permutation, q: Permutation) -> Permutation:
    """p then q (left-to-right action)."""
    return tuple(q[i] for i in p)


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def evaluate_word(word, images: Sequence[Permutation], degree: int) -> Permutation:
    acc = identity_perm(degree)
    for x in word:
        g = images[abs(x) - 1]
        acc = multiply(acc, g if x > 0 else inverse(g))
    return acc


def permutation_group_order(gens: Sequence[Permutation], degree: int) -> int:
    """Order of <gens> by multiplication-table closure; fine at degree <= 7."""
    identity = identity_perm(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = multiply(p, q)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


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


@dataclass(frozen=True)
class FiniteQuotientWitness:
    """Generator images satisfying every relator, not all the identity."""

    degree: int
    images: Tuple[Permutation, ...]
    image_order: int


def verify_witness(p: Presentation, w: FiniteQuotientWitness) -> bool:
    """Re-verify by direct permutation evaluation of every relator."""
    if len(w.images) != len(p.generators):
        return False
    if any(sorted(img) != list(range(w.degree)) for img in w.images):
        return False
    identity = identity_perm(w.degree)
    if all(img == identity for img in w.images):
        return False
    if any(evaluate_word(r, w.images, w.degree) != identity for r in p.relators):
        return False
    return permutation_group_order(w.images, w.degree) == w.image_order


def _first_images(by_last: List[List], m: int, degree: int) -> Optional[Tuple[Permutation, ...]]:
    """Depth-first over image tuples in canonical order.  The stack holds one
    lazy candidate iterator per assigned generator, so the depth (the
    generator count) is not bounded by the interpreter's recursion limit and
    no list of all degree! permutations is held."""
    identity = identity_perm(degree)
    images: List[Permutation] = []
    stack = [itertools.permutations(identity)]
    while stack:
        for cand in stack[-1]:
            images.append(cand)
            if all(evaluate_word(r, images, degree) == identity for r in by_last[len(images)]):
                break
            images.pop()
        else:  # candidates exhausted: back up to the previous generator
            stack.pop()
            if images:
                images.pop()
            continue
        if len(images) < m:
            stack.append(itertools.permutations(identity))
        elif any(img != identity for img in images):
            return tuple(images)
        else:
            images.pop()
    return None


def find_nontrivial_quotient(
    p: Presentation, max_degree: int = 7
) -> Optional[FiniteQuotientWitness]:
    """First witness in canonical order, or None (exhausted up to max_degree)."""
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    m = len(p.generators)
    if m == 0:
        return None
    # relators become checkable once their highest generator is assigned
    by_last: List[List] = [[] for _ in range(m + 1)]
    for r in p.relators:
        top = max((abs(x) for x in r), default=0)
        by_last[top].append(r)
    for degree in range(2, max_degree + 1):
        found = _first_images(by_last, m, degree)
        if found is not None:
            return FiniteQuotientWitness(
                degree=degree,
                images=found,
                image_order=permutation_group_order(found, degree),
            )
    return None
