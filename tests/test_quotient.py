import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acforge import quotient
from acforge.cli import main
from acforge.corpus import higman_presentation
from acforge.presentation import Presentation, parse_presentation
from acforge.quotient import (
    FiniteQuotientWitness,
    cycle_notation,
    find_nontrivial_quotient,
    inverse,
    multiply,
    permutation_group_order,
    verify_witness,
)
from acforge.words import free_reduce
from test_coset import perm_closure

POINCARE = parse_presentation("< a, b | a b^2 a b^-1, a^4 b a^-1 b >")
RAPAPORT = parse_presentation("< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >")


def evaluate_word(word, images, degree):
    """The product of the images of word's letters, one letter at a time:
    the reference evaluator (``coset.validate_table`` gathers whole columns)."""
    acc = tuple(range(degree))
    for x in word:
        g = images[abs(x) - 1]
        acc = multiply(acc, g if x > 0 else inverse(g))
    return acc


def reference_verify(p, w):
    """The former ``verify_witness``: every relator evaluated letter by
    letter.  An entry that is None or a float makes it raise TypeError."""
    if len(w.images) != len(p.generators):
        return False
    if any(sorted(img) != list(range(w.degree)) for img in w.images):
        return False
    identity = tuple(range(w.degree))
    if all(img == identity for img in w.images):
        return False
    if any(evaluate_word(r, w.images, w.degree) != identity for r in p.relators):
        return False
    return permutation_group_order(w.images, w.degree) == w.image_order


def test_perm_arithmetic():
    p = (1, 2, 0)
    assert multiply(p, inverse(p)) == tuple(range(3))
    assert evaluate_word((1, 1, 1), [p], 3) == tuple(range(3))
    assert permutation_group_order([p], 3) == 3
    assert permutation_group_order([], 3) == 1


def test_cycle_notation():
    assert cycle_notation((1, 0, 2)) == "(1 2)"
    assert cycle_notation((1, 2, 0)) == "(1 2 3)"
    assert cycle_notation(tuple(range(4))) == "()"
    assert cycle_notation((1, 0, 3, 2)) == "(1 2)(3 4)"


def test_order_two_witness():
    w = find_nontrivial_quotient(parse_presentation("< a | a^2 >"), 2)
    assert w == FiniteQuotientWitness(2, ((1, 0),), 2)
    assert verify_witness(parse_presentation("< a | a^2 >"), w)


def test_empty_presentation_exhausts():
    assert find_nontrivial_quotient(parse_presentation("< | >"), 5) is None


def test_trivial_relator_blocks_everything():
    assert find_nontrivial_quotient(parse_presentation("< a | a >"), 4) is None


def test_poincare_witness_order_60():
    w = find_nontrivial_quotient(POINCARE, 5)
    assert w is not None
    assert w.degree == 5
    assert w.image_order == 60
    assert verify_witness(POINCARE, w)
    identity = tuple(range(5))
    for r in POINCARE.relators:
        assert evaluate_word(r, w.images, 5) == identity


def test_determinism_and_monotonicity():
    w5a = find_nontrivial_quotient(POINCARE, 5)
    w5b = find_nontrivial_quotient(POINCARE, 5)
    assert w5a == w5b
    w6 = find_nontrivial_quotient(POINCARE, 6)
    assert w6 == w5a  # a witness at degree 5 is still the first at degree 6


def test_rapaport_exhausts_at_small_degree():
    # one-sided evidence only: reported as inconclusive, never as triviality
    assert find_nontrivial_quotient(RAPAPORT, 4) is None


def test_first_witness_is_canonically_least():
    p = parse_presentation("< a | a^2 >")
    w = find_nontrivial_quotient(p, 3)
    assert w.degree == 2  # found at the smallest degree first
    # at degree 2 the only candidates are () and (1 2); identity is skipped
    assert w.images == ((1, 0),)


def test_memory_does_not_grow_with_degree_factorial():
    # every candidate of degree 8 is tried (only the identity satisfies a);
    # a list of all 8! = 40320 image tuples alone would take about 5 MB
    tracemalloc.start()
    try:
        assert find_nontrivial_quotient(parse_presentation("< a | a >"), 8) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_max_degree_validation():
    with pytest.raises(ValueError):
        find_nontrivial_quotient(POINCARE, 1)


def test_witness_soundness_battery():
    # every found witness across a small corpus re-verifies
    texts = [
        "< a | a^2 >",
        "< a | a^6 >",
        "< a, b | a^2, b^2 >",
        "< a, b | a^3, b^2, a b a b >",
        "< a, b | a b a^-1 b^-1 >",
    ]
    for text in texts:
        p = parse_presentation(text)
        w = find_nontrivial_quotient(p, 4)
        assert w is not None
        assert verify_witness(p, w)


@pytest.mark.parametrize("order, ok", [(60, True), (60.0, False), (True, False)])
def test_verify_witness_requires_an_int_image_order(order, ok):
    w = find_nontrivial_quotient(POINCARE, 5)
    assert verify_witness(POINCARE, w._replace(image_order=order)) is ok


def test_verify_witness_rejects_junk():
    p = parse_presentation("< a | a^2 >")
    assert not verify_witness(p, FiniteQuotientWitness(2, (tuple(range(2)),), 1))
    assert not verify_witness(p, FiniteQuotientWitness(2, ((1, 0), (0, 1)), 2))
    assert not verify_witness(p, FiniteQuotientWitness(2, ((1, 1),), 2))
    assert not verify_witness(p, FiniteQuotientWitness(2, ((1, 0),), 7))
    q = parse_presentation("< a | a^3 >")
    assert not verify_witness(q, FiniteQuotientWitness(2, ((1, 0),), 2))
    # malformed entries and image lengths give False, not an exception
    for images in [((1, None),), ((1.0, 0),), ((1, -1),), ((1, 2),), ((1, 0, 2),), ((1,),)]:
        assert not verify_witness(p, FiniteQuotientWitness(2, images, 2)), images
    # so do a witness of the wrong types and an entry that cannot be hashed
    ab = parse_presentation("< a, b | a^2 >")
    assert verify_witness(ab, FiniteQuotientWitness(2, ((1, 0), (0, 1)), 2))
    for w in [
        FiniteQuotientWitness(2, ((1, 0), None), 2),
        FiniteQuotientWitness(2, None, 2),
        FiniteQuotientWitness(2.0, ((1, 0), (0, 1)), 2),
        FiniteQuotientWitness(2, ((1, 0), ([0], 1)), 2),
        # a list never equals the identity tuple, so it got past that check
        FiniteQuotientWitness(2, ([0, 1], (0, 1)), 1),
    ]:
        assert not verify_witness(ab, w), w


# --- reference: the image-tuple search that the low-index backtrack replaced ---


def reference_quotient(p, max_degree):
    """Least degree d <= max_degree with relator-satisfying images in S_d that
    are not all the identity, and the first such images in lexicographic
    order of image tuples; None when there are none.  Depth first over
    generators, pruning a partial assignment as soon as a relator whose
    generators are all assigned fails."""
    m = len(p.generators)
    by_last = [[] for _ in range(m + 1)]
    for r in p.relators:
        by_last[max((abs(x) for x in r), default=0)].append(r)
    for degree in range(2, max_degree + 1):
        identity = tuple(range(degree))
        images = []
        stack = [itertools.permutations(identity)] if m else []
        while stack:
            for cand in stack[-1]:
                images.append(cand)
                if all(evaluate_word(r, images, degree) == identity for r in by_last[len(images)]):
                    break
                images.pop()
            else:
                stack.pop()
                if images:
                    images.pop()
                continue
            if len(images) < m:
                stack.append(itertools.permutations(identity))
            elif any(img != identity for img in images):
                return degree, tuple(images)
            else:
                images.pop()
    return None


def random_presentation(rng):
    m = rng.randint(1, 3)
    letters = [x for g in range(1, m + 1) for x in (g, -g)]
    relators = [
        [rng.choice(letters) for _ in range(rng.randint(1, 7))] for _ in range(rng.randint(1, 3))
    ]
    return Presentation(tuple("abc"[:m]), tuple(relators))


def test_low_index_agrees_with_image_tuple_search():
    rng = random.Random(2001)
    found = 0
    for _ in range(300):
        p = random_presentation(rng)
        max_degree = rng.randint(2, 4)
        expected = reference_quotient(p, max_degree)
        w = find_nontrivial_quotient(p, max_degree)
        assert (w is None) == (expected is None), p
        if w is not None:
            found += 1
            assert w.degree == expected[0], p
            assert verify_witness(p, w), p
            assert w.image_order == len(perm_closure(w.images))
            # entry 0 of the first image replaced by entry 1: not a permutation
            first = w.images[0]
            broken = (first[1:2] + first[1:],) + w.images[1:]
            assert not verify_witness(p, FiniteQuotientWitness(w.degree, broken, w.image_order)), p
    assert 100 < found < 300  # both verdicts are exercised


ENTRIES = st.one_of(st.integers(-1, 5), st.none(), st.sampled_from([0.0, 1.0, 2.5]))


@st.composite
def presentations_and_witnesses(draw):
    """A random presentation on 1-3 generators and a witness for it: half
    the time the one ``find_nontrivial_quotient`` returns, as it is or with
    two entries of one image exchanged; otherwise drawn images, mostly
    permutations, else tuples of ints (negative and past the degree among
    them), None and floats, with the image count or an image's length
    sometimes wrong."""
    m = draw(st.integers(1, 3))
    letters = [x for g in range(1, m + 1) for x in (g, -g)]
    relators = draw(st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=7), max_size=3))
    p = Presentation(tuple("abc"[:m]), tuple(map(tuple, relators)))
    w = find_nontrivial_quotient(p, 4) if draw(st.booleans()) else None
    if w is not None:
        if draw(st.booleans()):
            k = draw(st.integers(0, m - 1))
            i, j = draw(st.lists(st.integers(0, w.degree - 1), min_size=2, max_size=2, unique=True))
            img = list(w.images[k])
            img[i], img[j] = img[j], img[i]
            w = FiniteQuotientWitness(w.degree, w.images[:k] + (tuple(img),) + w.images[k + 1 :], w.image_order)
        return p, w
    d = draw(st.integers(1, 5))
    images, perms = [], True
    for _ in range(draw(st.sampled_from([m] * 8 + [m - 1, m + 1]))):
        if draw(st.integers(0, 3)):
            images.append(tuple(draw(st.permutations(range(d)))))
        else:
            size = draw(st.sampled_from([d] * 4 + [d - 1, d + 1]))
            images.append(tuple(draw(st.lists(ENTRIES, min_size=size, max_size=size))))
            perms = False
    if perms and draw(st.integers(0, 3)):
        order = len(perm_closure(images))
    else:
        order = draw(st.integers(1, 6))
    return p, FiniteQuotientWitness(d, tuple(images), order)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(presentations_and_witnesses())
def test_verify_witness_matches_the_reference_evaluator(pw):
    p, w = pw
    try:
        expected = reference_verify(p, w)
    except TypeError:  # None or a float among the entries: a malformed witness
        expected = False
    assert verify_witness(p, w) is expected


def test_witness_is_the_action_on_cosets():
    # the images act transitively: a point orbit is the whole degree
    w = find_nontrivial_quotient(POINCARE, 5)
    orbit = {0}
    while True:
        grown = orbit | {img[x] for img in w.images for x in orbit}
        if grown == orbit:
            break
        orbit = grown
    assert orbit == set(range(5))


def test_higman_exhausts_at_degree_5():
    assert find_nontrivial_quotient(higman_presentation(4, (1, 2)), 5) is None


def test_no_allocation_by_max_degree():
    # no subgroup of index > 1 is ever reachable, so the search stops at the
    # first bound that refused no new coset
    tracemalloc.start()
    try:
        assert find_nontrivial_quotient(parse_presentation("< a | a >"), 10**9) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_group_order_agrees_with_closure():
    """Against sympy's order up to degree 12 and the closure up to degree 6,
    with degree 0, no generators and identity generators among the cases."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(11)
    cases = [(0, []), (0, [()]), (12, []), (12, [tuple(range(12))] * 2)]
    for _ in range(400):
        degree = rng.randint(0, 12)
        gens = []
        for _ in range(rng.randint(0, 3)):
            img = list(range(degree))
            if rng.random() < 0.7:
                rng.shuffle(img)
            elif degree:  # a single transposition or the identity: small groups too
                i, j = rng.randrange(degree), rng.randrange(degree)
                img[i], img[j] = img[j], img[i]
            gens.append(tuple(img))
        cases.append((degree, gens))
    for degree, gens in cases:
        order = permutation_group_order(gens, degree)
        perms = [combinatorics.Permutation(list(g)) for g in gens]
        assert order == combinatorics.PermutationGroup(perms).order(), gens
        if degree <= 6:
            assert order == len(perm_closure(gens)), gens


def test_group_order_of_s10_without_enumeration():
    transposition = (1, 0) + tuple(range(2, 10))
    long_cycle = tuple(range(1, 10)) + (0,)
    start = time.perf_counter()
    assert permutation_group_order([transposition, long_cycle], 10) == 3628800
    assert time.perf_counter() - start < 0.5
    assert permutation_group_order([long_cycle], 10) == 10


def random_relator(rng):
    """A freely reduced word of 1 to 7 letters in a and b."""
    while True:
        w = free_reduce([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 7))])
        if w:
            return w


def sympy_indices(relators, bound):
    """The indices of the subgroups that sympy's ``low_index_subgroups``
    lists for ``< a, b | relators >`` up to ``bound``; or None when one of
    its coset tables fails an independent check: every row complete with
    entries in range, g then g^-1 the identity on every coset, and every
    relator fixing every coset.  Columns are read through ``CosetTable.A``.
    (sympy 1.14 lists subgroups of index 2 and 3 for the trivial group
    ``< a, b | b, b a >``, so its tables are never trusted unchecked.)"""
    fp = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    F, a, b = free_group("a, b")
    power = {1: a, -1: a**-1, 2: b, -2: b**-1}
    group = fp.FpGroup(F, [math.prod((power[x] for x in r), start=F.identity) for r in relators])
    indices = []
    for t in fp.low_index_subgroups(group, bound):
        rows, n = t.table, len(t.table)
        col = {x: t.A.index(g) for x, g in power.items()}
        if any(len(row) != len(t.A) or not all(type(y) is int and 0 <= y < n for y in row) for row in rows):
            return None
        if any(rows[rows[c][col[x]]][col[-x]] != c for x in power for c in range(n)):
            return None
        for r in relators:
            for start in range(n):
                c = start
                for x in r:
                    c = rows[c][col[x]]
                if c != start:
                    return None
        indices.append(n)
    return indices


def test_least_degree_matches_sympy_low_index_subgroups():
    # about 3 s, nearly all of it in sympy; with sympy 1.14, 109 of the 120
    # presentations are compared and 11 skipped for a table that fails
    assert sympy_indices(((2,), (2, 1)), 5) is None  # the trivial group's tables fail
    rng = random.Random(59)
    compared = skipped = 0
    for _ in range(120):
        relators = (random_relator(rng), random_relator(rng))
        indices = sympy_indices(relators, 5)
        if indices is None:
            skipped += 1
            continue
        w = find_nontrivial_quotient(Presentation(("a", "b"), relators), 5)
        least = min((n for n in indices if n >= 2), default=None)
        assert (w.degree if w else None) == least, relators
        compared += 1
    assert compared >= 100, skipped


def full_words_by_column(p, ncols):
    """Every rotation of each relator and of its inverse, duplicates
    dropped in order: ``_words_by_column`` before it stopped at the period."""
    words = [{} for _ in range(ncols)]
    for r in p.relators:
        w = [2 * (abs(x) - 1) + (x < 0) for x in r]
        for word in (w, [c ^ 1 for c in reversed(w)]):
            for i in range(len(word)):
                words[word[i]][tuple(word[i:] + word[:i])] = None
    return [list(d) for d in words]


def test_words_by_column_equals_the_full_build():
    rng = random.Random(13)
    for k in range(2000):
        m = rng.randint(1, 3)
        letters = [x for x in range(-m, m + 1) if x]
        relators = []
        for _ in range(rng.randint(1, 3)):
            base = free_reduce([rng.choice(letters) for _ in range(rng.randint(0, 6))])
            relators.append(base * (rng.randint(2, 4) if k % 2 else 1))
        p = Presentation(tuple(f"g{g}" for g in range(1, m + 1)), relators)
        assert quotient._words_by_column(p, 2 * m) == full_words_by_column(p, 2 * m), relators


def test_one_long_periodic_relator(tmp_path, capsys):
    path = tmp_path / "a.pres"
    path.write_text("< a | a^999999 >")
    t0 = time.monotonic()
    assert main(["quotient", str(path)]) == 0
    assert capsys.readouterr() == ("DEGREE 3\na -> (1 2 3)\nIMAGE-ORDER 3\n", "")
    assert time.monotonic() - t0 < 10


def test_a_long_relator_that_is_not_periodic_is_refused(tmp_path, capsys):
    rng = random.Random(3)
    path = tmp_path / "long.pres"
    path.write_text(f"< a, b | {' '.join(rng.choice('ab') for _ in range(4000))} >")
    assert main(["quotient", str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: the cyclic conjugates of the relators hold more than {quotient.MAX_TABLE_SLOTS} letters\n",
    )
