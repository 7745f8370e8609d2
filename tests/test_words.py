import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acforge.search import MAX_GENERATORS
from acforge.words import (
    check_letters,
    column,
    concat,
    cyclic_reduce,
    exponent_vector,
    free_reduce,
    invert,
    letter,
    power,
    rotate,
)

A, B, C = 1, 2, 3


def reduce_random_order(letters, rng):
    """Oracle: delete cancelling pairs one at a time in a random order."""
    seq = list(letters)
    while True:
        sites = [i for i in range(len(seq) - 1) if seq[i] == -seq[i + 1]]
        if not sites:
            return tuple(seq)
        i = rng.choice(sites)
        del seq[i : i + 2]


def random_raw(rng, n_gens=3, max_len=40):
    return [rng.choice([1, -1]) * rng.randint(1, n_gens) for _ in range(rng.randint(0, max_len))]


def test_free_reduce_total_cancellation():
    assert free_reduce([A, -A]) == ()


def test_free_reduce_power_collision():
    # alpha^3 alpha^-2 reduces generator-wise to alpha
    assert free_reduce([A, A, A, -A, -A]) == (A,)


def test_free_reduce_already_reduced():
    w = (-B, -C, -C, B, C, C, C)  # b^-1 c^-2 b c^3: no adjacent cancelling pair
    assert free_reduce(w) == w


def test_free_reduce_idempotent_and_confluent():
    rng = random.Random(7)
    for _ in range(1500):
        raw = random_raw(rng)
        w = free_reduce(raw)
        assert free_reduce(w) == w
        assert reduce_random_order(raw, rng) == w


def test_invert_examples():
    assert invert(()) == ()
    assert invert((A, B, B)) == (-B, -B, -A)  # (a b^2)^-1 = b^-2 a^-1
    # (a^-1 b^-2 a b^3)^-1 = b^-3 a^-1 b^2 a
    assert invert((-A, -B, -B, A, B, B, B)) == (-B, -B, -B, -A, B, B, A)


def test_invert_involution():
    rng = random.Random(8)
    for _ in range(300):
        w = free_reduce(random_raw(rng))
        assert invert(invert(w)) == w


def test_concat_examples():
    w = (A, -B, C)
    assert concat((), w) == w
    assert concat(w, ()) == w
    assert concat((A, A), (B, B, B)) == (A, A, B, B, B)  # alpha^2 . beta^3
    assert concat((A, B), (-B, C)) == (A, C)
    assert concat([A, B], [-B, C]) == (A, C)  # any sequences in, a tuple out


def test_concat_inverse_cancels_and_associativity():
    rng = random.Random(9)
    for _ in range(300):
        u = free_reduce(random_raw(rng, max_len=15))
        v = free_reduce(random_raw(rng, max_len=15))
        w = free_reduce(random_raw(rng, max_len=15))
        assert concat(u, invert(u)) == ()
        assert concat(concat(u, v), w) == concat(u, concat(v, w))
        assert concat(u, v) == free_reduce(tuple(u) + tuple(v))


def test_power_examples():
    assert power((), 5) == ()
    assert power((A, B), 1) == (A, B)
    assert power((A, B), -1) == (-B, -A)
    # (c a b c^-1)^2 = c a b a b c^-1: the conjugator is not repeated
    assert power((C, A, B, -C), 2) == (C, A, B, A, B, -C)
    assert power((C, A, B, -C), -2) == (C, -B, -A, -B, -A, -C)
    assert power((A, B, -A), 3) == (A, B, B, B, -A)


def test_power_matches_repeated_product():
    rng = random.Random(12)
    words = [()]
    for _ in range(300):
        w = free_reduce(random_raw(rng, max_len=12))
        u = free_reduce(random_raw(rng, max_len=4))
        words += [w, concat(concat(u, w), invert(u))]  # the second is often not cyclically reduced
    assert sum(bool(cyclic_reduce(w)[1]) for w in words) > 100
    for w in words:
        for e in (-1, 1, rng.choice((-1, 1)) * rng.randint(2, 9)):
            expect = free_reduce(tuple(w) * abs(e))
            assert power(w, e) == (expect if e > 0 else invert(expect)), (w, e)


def test_cyclic_reduce_examples():
    assert cyclic_reduce(free_reduce((B, -B, B))) == ((B,), ())
    assert cyclic_reduce((A, B, -A)) == ((B,), (A,))
    assert cyclic_reduce((-C, A, A, C)) == ((A, A), (-C,))


def test_cyclic_reduce_round_trip():
    rng = random.Random(10)
    for _ in range(500):
        w = free_reduce(random_raw(rng))
        core, conj = cyclic_reduce(w)
        assert cyclic_reduce(core) == (core, ())
        assert concat(concat(conj, core), invert(conj)) == w


def test_exponent_vector_examples():
    assert exponent_vector((-B, -C, -C, B, C, C, C), 3) == (0, 0, 1)
    assert exponent_vector((), 3) == (0, 0, 0)
    assert exponent_vector((A, B, B, A, -B), 2) == (2, 1)


@pytest.mark.parametrize(
    "w, m, entry",
    [
        ((A, 0), 2, "entry 2 of the word, 0,"),
        ((A, -C, C), 2, "entry 2 of the word, -3,"),
        ((1.0,), 1, "entry 1 of the word, 1.0,"),
        ((None,), 1, "entry 1 of the word, None,"),
        ((A,), 0, "entry 1 of the word, 1,"),
    ],
)
def test_check_letters_names_the_first_bad_entry(w, m, entry):
    with pytest.raises(ValueError) as info:
        check_letters(w, m)
    assert str(info.value).startswith(entry)


def test_check_letters_accepts_letters_of_m_generators():
    assert check_letters((A, -B, C, -C, -A), 3) is None
    assert check_letters((), 0) is None


def test_exponent_vector_homomorphism():
    rng = random.Random(11)
    for _ in range(400):
        u = free_reduce(random_raw(rng))
        v = free_reduce(random_raw(rng))
        eu = exponent_vector(u, 3)
        ev = exponent_vector(v, 3)
        assert exponent_vector(concat(u, v), 3) == tuple(a + b for a, b in zip(eu, ev))
        assert exponent_vector(invert(u), 3) == tuple(-a for a in eu)


def test_rotate():
    w = (A, B, C)
    assert rotate(w, 0) == w
    assert rotate(w, 1) == (B, C, A)
    assert rotate(w, -1) == (C, A, B)
    assert rotate(w, 4) == rotate(w, 1)
    assert rotate((), 5) == ()


# deterministic, with no example database
PROPERTY = settings(derandomize=True, database=None, max_examples=500)
LETTERS = st.integers(-MAX_GENERATORS, MAX_GENERATORS).filter(bool)


@PROPERTY
@given(LETTERS)
def test_letter_decodes_column(x):
    c = column(x)
    assert 0 <= c < 2 * MAX_GENERATORS and letter(c) == x
    assert column(-x) == c ^ 1


@PROPERTY
@given(LETTERS, LETTERS)
def test_column_follows_the_letter_order(x, y):
    # a < a^-1 < b < b^-1 < ...
    assert (column(x) < column(y)) == ((abs(x), x < 0) < (abs(y), y < 0))


def test_column_examples():
    assert [column(x) for x in (A, -A, B, -B, C)] == [0, 1, 2, 3, 4]
    assert [letter(c) for c in range(5)] == [A, -A, B, -B, C]
