import itertools
import tracemalloc

import pytest

from acforge.presentation import parse_presentation
from acforge.quotient import (
    FiniteQuotientWitness,
    cycle_notation,
    evaluate_word,
    find_nontrivial_quotient,
    identity_perm,
    inverse,
    multiply,
    permutation_group_order,
    verify_witness,
)

POINCARE = parse_presentation("< a, b | a b^2 a b^-1, a^4 b a^-1 b >")
RAPAPORT = parse_presentation("< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >")


def test_perm_arithmetic():
    p = (1, 2, 0)
    assert multiply(p, inverse(p)) == identity_perm(3)
    assert evaluate_word((1, 1, 1), [p], 3) == identity_perm(3)
    assert permutation_group_order([p], 3) == 3
    assert permutation_group_order([], 3) == 1


def test_cycle_notation():
    assert cycle_notation((1, 0, 2)) == "(1 2)"
    assert cycle_notation((1, 2, 0)) == "(1 2 3)"
    assert cycle_notation(identity_perm(4)) == "()"
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
    identity = identity_perm(5)
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


def test_verify_witness_rejects_junk():
    p = parse_presentation("< a | a^2 >")
    assert not verify_witness(p, FiniteQuotientWitness(2, (identity_perm(2),), 1))
    assert not verify_witness(p, FiniteQuotientWitness(2, ((1, 0), (0, 1)), 2))
    assert not verify_witness(p, FiniteQuotientWitness(2, ((1, 1),), 2))
    assert not verify_witness(p, FiniteQuotientWitness(2, ((1, 0),), 7))
    q = parse_presentation("< a | a^3 >")
    assert not verify_witness(q, FiniteQuotientWitness(2, ((1, 0),), 2))
