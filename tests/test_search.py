import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acforge.lemma2 import presentation_from_matrix
from acforge.moves import Destabilize, InvertRelator, MultiplyRight, replay
from acforge.presentation import EMPTY_PRESENTATION, Presentation, parse_presentation
from acforge.search import (
    MAX_GENERATORS,
    SearchLimits,
    _code,
    _least,
    _ring,
    _signed,
    _successors,
    canonical_relator,
    search_trivialization,
)
from acforge.words import concat, cyclic_reduce, free_reduce, invert, rotate

DUAL_RAPAPORT = parse_presentation(
    "< alpha, beta, gamma | alpha^3 alpha^-2, beta^3 beta^-2, gamma^3 gamma^-2 >"
)
DUAL_POINCARE = parse_presentation("< alpha, beta | alpha^2 beta^3, alpha^-1 beta^-2 >")
TRIVIAL23 = parse_presentation("< a, b | a^-1 b^-2 a b^3, b^-1 a^-2 b a^3 >")
AK2 = parse_presentation("< x, y | x^2 y^-3, x y x y^-1 x^-1 y^-1 >")

# regression constants, recorded from the first exhaustive run
DUAL_POINCARE_DEPTH = 3
# (moves, states seen, states expanded); a delta = -1 edge is one MULRI
DUAL_POINCARE_COUNTS = (9, 1032, 71)


def letter_key(w):
    """The documented letter order a < a^-1 < b < b^-1 < ..., spelled out."""
    return tuple((abs(x), x < 0) for x in w)


def canonical_relators(p):
    return tuple(sorted((canonical_relator(r) for r in p.relators), key=letter_key))


def test_canonical_relator_brute_force():
    rng = random.Random(101)
    for _ in range(400):
        w = free_reduce([rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 10))])
        got = canonical_relator(w)
        # oracle: enumerate every rotation of the cyclic reduction and of its
        # inverse, order by the documented letter order
        core, _ = cyclic_reduce(w)
        candidates = {core}
        for cand in (core, invert(core)):
            for k in range(len(cand)):
                candidates.add(rotate(cand, k))
        assert got == min(candidates, key=letter_key)


def test_canonical_relator_idempotent():
    rng = random.Random(103)
    for _ in range(300):
        w = free_reduce([rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 12))])
        c = canonical_relator(w)
        assert canonical_relator(c) == c


def test_canonical_form_inversion_symmetry():
    assert canonical_relators(parse_presentation("< a | a^-1 >")) == canonical_relators(
        parse_presentation("< a | a >")
    )


def test_canonical_form_rotation_symmetry_keeps_duplicates():
    assert canonical_relators(parse_presentation("< a, b | b a, a b >")) == ((1, 2), (1, 2))


def test_canonical_form_inverse_rotation():
    assert canonical_relators(parse_presentation("< a, b | b^-1 a^-1, a b >")) == ((1, 2), (1, 2))


def test_canonical_form_sorts_relators():
    assert canonical_relators(parse_presentation("< a, b | b, a >")) == ((1,), (2,))


def test_letter_code_orders_like_the_letter_key():
    rng = random.Random(109)
    words = [
        free_reduce([rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 6))])
        for _ in range(200)
    ]
    assert sorted(words, key=_code) == sorted(words, key=letter_key)
    assert all(_signed(_code(w)) == w for w in words)


# words over every generator a search takes; deterministic, no example database
WORDS = st.lists(st.integers(-MAX_GENERATORS, MAX_GENERATORS).filter(bool), max_size=12).map(tuple)


@settings(derandomize=True, database=None, max_examples=500)
@given(WORDS, WORDS)
def test_letter_code_property(u, v):
    assert (_code(u) < _code(v)) == (letter_key(u) < letter_key(v))
    assert _signed(_code(u)) == u


def test_least_is_the_least_rotation():
    rng = random.Random(127)
    words = []
    for _ in range(600):
        w = free_reduce([rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 14))])
        words.append(cyclic_reduce(w)[0])
    words += [
        (),
        (1,),
        (-2,),
        (1, 2) * 3,  # (ab)^3: every other rotation ties
        (-1, 2, -1, 2),
        (-1, -1, 2, 2),  # the least letter a occurs only inverted
        (2, -1, 3, -1, -1),
    ]
    for w in words:
        r = _code(w)
        rotations = [_code(rotate(x, b)) for x in (w, invert(w)) for b in range(len(w))]
        assert _least(r) == min(rotations, default=b"")
        assert _signed(_least(r)) == canonical_relator(w)


def test_ring_holds_every_rotation_outside_its_middle():
    rng = random.Random(131)
    words = [(1,), (-2,), (1, 2) * 3, (1, -2) * 2, (2, 2, -1)]
    while len(words) < 300:
        w = cyclic_reduce(
            free_reduce([rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(1, 12))])
        )[0]
        if w:
            words.append(w)
    for w in words:
        n, ring = len(w), _ring(_code(w))
        assert len(ring) == 4 * n
        for x, lo in ((w, 0), (invert(w), 2 * n)):
            for b in range(n):
                rot = _code(rotate(x, b))
                assert ring[lo + b : lo + b + n] == rot
                hits = [k for k in range(3 * n + 1) if ring[k : k + n] == rot]
                # no window across the middle matches, and find lands in a half
                assert not any(n < k < 2 * n for k in hits)
                assert ring.find(rot) == hits[0] and (hits[0] < n or 2 * n <= hits[0] < 3 * n)


def reference_successors(rels, limits):
    """The search's transitions on signed words, pruned after canonicalizing."""
    m, n = len(rels), len(rels)
    total = sum(len(r) for r in rels)
    out = []
    for idx in range(n):
        if rels[idx] == (m,) and all(
            all(abs(x) != m for x in r) for k, r in enumerate(rels) if k != idx
        ):
            out.append((("destab", idx), tuple(r for k, r in enumerate(rels) if k != idx)))
    for i in range(n):
        for j in range(n):
            if j == i or not rels[j]:
                continue
            for delta in (1, -1):
                for b in range(len(rels[j])):
                    mult = rotate(rels[j], b)
                    if delta == -1:
                        mult = invert(mult)
                    cw = canonical_relator(concat(rels[i], mult))
                    if len(cw) > limits.max_relator_letters:
                        continue
                    if total - len(rels[i]) + len(cw) > limits.max_total_letters:
                        continue
                    out.append((("mul", i, j, b, delta), rels[:i] + (cw,) + rels[i + 1 :]))
    return out


def decoded_edge(edge, rels):
    """An int edge of ``_successors`` out of rels, spelled as the reference does."""
    if edge < 0:
        return ("destab", -1 - edge)
    n = len(rels)
    e, ij = divmod(edge, n * n)
    i, j = divmod(ij, n)
    lv = len(rels[j])
    return ("mul", i, j, e, 1) if e < lv else ("mul", i, j, e - lv, -1)


def coded_successors(rels, limits):
    return [
        (decoded_edge(edge, rels), tuple(_signed(r) for r in t))
        for edge, t in _successors(tuple(_code(r) for r in rels), limits)
    ]


def test_successors_match_signed_reference():
    rng = random.Random(113)
    for trial in range(300):
        rels = tuple(
            canonical_relator(
                free_reduce([rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(0, 9))])
            )
            for _ in range(2)
        )
        if trial % 3 == 0:  # destabilizable: b alone, and no b in the other relator
            rels = ((2,), canonical_relator(free_reduce(x for x in rels[1] if abs(x) == 1)))
        limits = SearchLimits(
            max_relator_letters=rng.randint(1, 12), max_total_letters=rng.randint(4, 20)
        )
        assert coded_successors(rels, limits) == reference_successors(rels, limits)


def test_successors_keep_product_whose_cyclic_reduction_fits():
    # a b^6 . (a b^-6)^-1 = a b^12 a^-1: 14 letters raw, b^12 after cyclic reduction
    rels = ((1,) + (2,) * 6, (1,) + (-2,) * 6)
    limits = SearchLimits(max_relator_letters=12)
    assert len(concat(rels[0], invert(rels[1]))) > limits.max_relator_letters
    succ = coded_successors(rels, limits)
    assert (("mul", 0, 1, 0, -1), ((2,) * 12, rels[1])) in succ
    assert succ == reference_successors(rels, limits)
    assert (("mul", 0, 1, 0, -1), ((2,) * 12, rels[1])) not in coded_successors(
        rels, SearchLimits(max_relator_letters=11)
    )


@pytest.mark.parametrize(
    "p, cap, counts",
    [(AK2, 3000, (3000, 698)), (TRIVIAL23, 1000, (1000, 495))],
    ids=["ak2", "trivial23"],
)
def test_search_state_counts_pinned(p, cap, counts):
    r = search_trivialization(p, SearchLimits(max_states=cap))
    assert (r.states_seen, r.states_expanded, r.limit_hit) == counts + ("states",)
    assert sum(r.frontier) == r.states_seen


def test_search_on_one_long_relator_holds_no_rotations():
    # a^8000 has 16,000 rotations of 8,000 letters (128 MB); none is kept
    p = parse_presentation("< a, b | a^8000, b >")
    tracemalloc.start()
    try:
        r = search_trivialization(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.found, r.states_seen, r.states_expanded, r.limit_hit) == (False, 2, 2, None)
    assert peak < 8_000_000


def test_search_requires_balanced():
    with pytest.raises(ValueError):
        search_trivialization(parse_presentation("< a | >"))


def test_search_empty_presentation():
    r = search_trivialization(EMPTY_PRESENTATION)
    assert r.found and r.certificate.moves == ()


def test_search_dual_rapaport_exactly_three_destabilizations():
    r = search_trivialization(DUAL_RAPAPORT)
    assert r.found
    assert r.certificate.moves == (
        Destabilize(3, 3),
        Destabilize(2, 2),
        Destabilize(1, 1),
    )
    assert replay(r.certificate)
    assert r.certificate.end == EMPTY_PRESENTATION


def test_search_dual_poincare_finds_certificate():
    r = search_trivialization(DUAL_POINCARE)
    assert r.found
    assert replay(r.certificate)
    assert r.certificate.start == DUAL_POINCARE
    assert r.certificate.end == EMPTY_PRESENTATION
    assert r.found_depth == DUAL_POINCARE_DEPTH
    assert (r.certificate.length, r.states_seen, r.states_expanded) == DUAL_POINCARE_COUNTS


def test_search_not_found_on_trivial23_small_budget():
    r = search_trivialization(TRIVIAL23, SearchLimits(max_depth=4))
    assert not r.found
    assert r.limit_hit == "depth"
    assert r.certificate is None


def test_search_determinism():
    a = search_trivialization(DUAL_POINCARE)
    b = search_trivialization(DUAL_POINCARE)
    assert a.certificate == b.certificate
    assert (a.states_seen, a.states_expanded) == (b.states_seen, b.states_expanded)


def test_search_conjugated_start_needs_normalization_prefix():
    # relator stored as a conjugate; the certificate must strip it with moves
    p = Presentation(("a", "b"), ((2, 1, -2), (2,)))
    r = search_trivialization(p)
    assert r.found
    assert replay(r.certificate)
    assert r.certificate.start == p


def seeded_searches():
    """Searches on 40 seeded Lemma-2 builds of 1x1 and 2x2 matrices."""
    from test_lemma2 import random_unimodular

    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(1, 2)
        p, _ = presentation_from_matrix(random_unimodular(rng, n, n_ops=4))
        yield search_trivialization(p, SearchLimits(max_depth=6, max_states=50_000))


def test_search_certificates_replay_on_random_trivializable_inputs():
    found = 0
    for r in seeded_searches():
        if r.found:
            assert replay(r.certificate)
            assert r.certificate.end == EMPTY_PRESENTATION
            found += 1
    assert found >= 30  # tiny unimodular builds should nearly always trivialize


def test_seeded_certificates_have_no_invert_multiply_invert():
    found = [r for r in seeded_searches() if r.found]
    for r in found:
        moves = r.certificate.moves
        assert replay(r.certificate)
        for a, b, c in zip(moves, moves[1:], moves[2:]):
            # INV j / MULR i j / INV j is the one move MULRI i j (and back)
            assert not (
                isinstance(b, MultiplyRight)
                and a == c == InvertRelator(b.other)
            ), moves
    # how an edge is spelled does not touch the search: the state counts are
    # those of the invert-multiply-invert spelling, which took 151 moves
    assert len(found) == 40
    assert sum(r.states_seen for r in found) == 2930
    assert sum(r.states_expanded for r in found) == 181
    assert sum(r.certificate.length for r in found) == 123


def test_search_stats_monotone():
    r = search_trivialization(DUAL_POINCARE)
    assert r.states_expanded <= r.states_seen
    assert r.states_seen >= 1


def test_search_frontier_counts_states_by_depth():
    r = search_trivialization(DUAL_POINCARE)
    assert r.frontier[0] == 1
    assert len(r.frontier) == r.found_depth + 1
    assert sum(r.frontier) == r.states_seen
    assert search_trivialization(EMPTY_PRESENTATION).frontier == (1,)
    shallow = search_trivialization(TRIVIAL23, SearchLimits(max_depth=2))
    assert shallow.limit_hit == "depth" and len(shallow.frontier) == 3
    assert sum(shallow.frontier) == shallow.states_seen


def test_successors_over_the_cap_by_end_cancellation_match_the_reference():
    # u = x b and v = b x^-1 for a random word x: many products u . v are
    # more than twice the letter cap long until their ends cancel
    rng = random.Random(59)
    for _ in range(200):
        x = free_reduce([rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(3, 10))])
        rels = tuple(canonical_relator(free_reduce(w)) for w in (x + (2,), (2,) + invert(x)))
        limits = SearchLimits(max_relator_letters=rng.randint(1, 4), max_total_letters=40)
        assert coded_successors(rels, limits) == reference_successors(rels, limits)
