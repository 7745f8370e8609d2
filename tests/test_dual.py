import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acforge import dual
from acforge.dual import (
    AugmentedPresentation,
    Occurrence,
    OrderingWitness,
    align,
    default_witness,
    dualize,
    format_witness,
    occurrence_lists,
    parse_witness,
    read_bundle,
    verify_knot_certificate,
    write_bundle,
)
from acforge.corpus import higman_presentation
from acforge.coset import Finite, enumerate_cosets
from acforge.intmatrix import exponent_matrix
from acforge.lemma2 import presentation_from_matrix
from acforge.moves import (
    AcCertificate,
    CyclicPermute,
    MultiplyRight,
    apply_move,
    invert_certificate,
    replay,
)
from acforge.presentation import (
    EMPTY_PRESENTATION,
    Presentation,
    format_presentation,
    parse_presentation,
)
from acforge.words import free_reduce
from test_coset import exactly

RAPAPORT = parse_presentation("< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >")
POINCARE = parse_presentation("< a, b | a b^2 a b^-1, a^4 b a^-1 b >")


def transpose_check(p):
    """The default dual's exponent matrix equals A^T exactly."""
    return exponent_matrix(dualize(p, default_witness(p))) == exponent_matrix(p).transpose()


def random_balanced(rng, max_gens=4, max_len=10):
    m = rng.randint(1, max_gens)
    gens = tuple(f"g{i + 1}" for i in range(m))
    rels = tuple(
        free_reduce([rng.choice([1, -1]) * rng.randint(1, m) for _ in range(rng.randint(0, max_len))])
        for _ in range(m)
    )
    return Presentation(gens, rels)


def test_letters_are_checked_before_reduction_in_both_presentations():
    # a cancelling pair of an out-of-range letter used to be reduced away
    # by Presentation and rejected by AugmentedPresentation
    message = "^entry 1 of the word, 5, is not a letter of 1 generator\\(s\\)$"
    with pytest.raises(ValueError, match=message):
        Presentation(("a",), ((5, -5),))
    with pytest.raises(ValueError, match=message):
        AugmentedPresentation(("a",), ((5, -5),))


def test_default_witness_single_generator():
    w = default_witness(parse_presentation("< a | a >"))
    assert w.per_generator == ((Occurrence(1, 0, 1),),)


def test_default_witness_poincare_generator_a():
    w = default_witness(POINCARE)
    assert w.per_generator[0] == (
        Occurrence(1, 0, 1),
        Occurrence(1, 3, 1),
        Occurrence(2, 0, 1),
        Occurrence(2, 1, 1),
        Occurrence(2, 2, 1),
        Occurrence(2, 3, 1),
        Occurrence(2, 5, -1),
    )


def test_default_witness_rapaport_generator_a():
    w = default_witness(RAPAPORT)
    # a occurs in r2 (-,-,+,+,+) then r3 (-,+), in scan order
    assert w.per_generator[0] == (
        Occurrence(2, 1, -1),
        Occurrence(2, 2, -1),
        Occurrence(2, 4, 1),
        Occurrence(2, 5, 1),
        Occurrence(2, 6, 1),
        Occurrence(3, 0, -1),
        Occurrence(3, 3, 1),
    )


def test_default_witness_requires_balanced():
    with pytest.raises(ValueError):
        default_witness(parse_presentation("< a | >"))


def test_dualize_poincare_matches_known_dual():
    d = dualize(POINCARE)
    assert d.generators == ("x1", "x2")
    assert d.relators[0] == (1, 1, 2, 2, 2)  # alpha^2 beta^3, verbatim
    assert d.relators[1] == (1, 2, 2)  # alpha beta^2 = (alpha^-1 beta^-2)^-1 rotated


def test_dualize_rapaport_single_letters():
    d = dualize(RAPAPORT)
    assert d.relators == ((2,), (3,), (1,))


def test_dualize_identity_presentation():
    d = dualize(parse_presentation("< a | a >"))
    assert d == Presentation(("x1",), ((1,),))


def test_dualize_rejects_bad_witness():
    p = parse_presentation("< a | a >")
    with pytest.raises(ValueError):
        dualize(p, OrderingWitness(((Occurrence(1, 5, 1),),)))
    with pytest.raises(ValueError):
        dualize(p, OrderingWitness(()))


@pytest.mark.parametrize("x", [0, 3, 1.0], ids=["zero", "out-of-range", "float"])
def test_a_callers_witness_is_checked_as_letters(x):
    # Occurrence(1.0, 0, 1) == Occurrence(1, 0, 1), so matching alone passed it
    kc = align(POINCARE)
    first, *rest = kc.witness.per_generator
    o = first[0]
    witness = OrderingWitness(((o._replace(relator=x),) + first[1:], *rest))
    message = f"entry 1 of the word, {o.sign * x!r}, is not a letter of 2 generator(s)"
    with pytest.raises(ValueError) as info:
        dualize(kc.augmented, witness)
    assert str(info.value) == message
    assert verify_knot_certificate(kc._replace(witness=witness)) == [f"witness invalid: {message}"]


@pytest.mark.parametrize(
    "field, value",
    [("position", "0"), (None, (1, 0)), ("position", 0.0), ("sign", True)],
    ids=["str-position", "two-tuple", "float-position", "bool-sign"],
)
def test_a_malformed_occurrence_is_a_problem_not_an_exception(field, value):
    kc = align(POINCARE)
    first, *rest = kc.witness.per_generator
    bad = value if field is None else first[0]._replace(**{field: value})
    witness = OrderingWitness(((bad,) + first[1:], *rest))
    assert verify_knot_certificate(kc._replace(witness=witness)) == [
        f"witness invalid: witness for generator 1: occurrence {bad!r} is not three ints"
    ]


def test_align_refuses_a_bundle_that_fails_its_own_check(monkeypatch):
    monkeypatch.setattr(dual, "verify_knot_certificate", lambda kc: ["dual is wrong"])
    with pytest.raises(AssertionError, match=r"invalid bundle: \['dual is wrong'\]"):
        align(POINCARE)


def test_transpose_identity_examples():
    assert transpose_check(parse_presentation("< a | a >"))
    assert transpose_check(POINCARE)
    a = exponent_matrix(POINCARE)
    assert exponent_matrix(dualize(POINCARE)) == a.transpose()
    assert a.transpose().rows == ((2, 3), (1, 2))


def test_transpose_identity_randomized():
    rng = random.Random(67)
    for _ in range(600):
        p = random_balanced(rng)
        assert transpose_check(p)


def test_witness_independence_of_abelianization():
    rng = random.Random(71)
    for _ in range(200):
        p = random_balanced(rng, max_gens=3, max_len=8)
        occs = [list(o) for o in occurrence_lists(p)]
        for lst in occs:
            rng.shuffle(lst)
        w = OrderingWitness(tuple(tuple(o) for o in occs))
        d = dualize(p, w)
        assert exponent_matrix(d) == exponent_matrix(p).transpose()


def test_double_dual_matrix():
    rng = random.Random(73)
    for _ in range(200):
        p = random_balanced(rng)
        dd = dualize(dualize(p))
        assert exponent_matrix(dd) == exponent_matrix(p)


def test_align_single_generator():
    kc = align(parse_presentation("< a | a >"))
    assert kc.dual == Presentation(("x1",), ((1,),))
    assert kc.augmented.relators == ((1,),)
    assert len(kc.trivialization.moves) == 1
    assert verify_knot_certificate(kc) == []
    inv = invert_certificate(kc.trivialization)
    assert inv.end == EMPTY_PRESENTATION and replay(inv)


def test_align_poincare():
    kc = align(POINCARE)
    assert verify_knot_certificate(kc) == []
    assert dualize(kc.augmented, kc.witness) == kc.dual
    assert replay(kc.trivialization)
    assert exactly(enumerate_cosets(kc.dual, max_cosets=10_000), Finite(1))
    assert replay(invert_certificate(kc.trivialization))


def test_align_rapaport():
    kc = align(RAPAPORT)
    assert kc.source == RAPAPORT
    assert verify_knot_certificate(kc) == []
    assert exactly(enumerate_cosets(kc.dual, max_cosets=10_000), Finite(1))


@pytest.mark.parametrize(
    "p, augmented, witness",
    [
        (
            POINCARE,
            "< a, b | a b^2 a b^-1, a^4 b a^-1 b >",
            "1:0:+ 2:0:+ 2:1:+ 1:3:+ 2:2:+ 2:3:+ 2:5:-\n2:4:+ 1:1:+ 2:6:+ 1:2:+ 1:4:-\n",
        ),
        (
            RAPAPORT,
            "< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >",
            "2:4:+ 2:5:+ 2:1:- 2:6:+ 2:2:- 3:3:+ 3:0:-\n"
            "3:4:+ 1:3:+ 1:0:- 3:5:+ 3:1:- 3:6:+ 3:2:-\n"
            "2:0:- 1:4:+ 2:3:+ 1:5:+ 1:1:- 1:6:+ 1:2:-\n",
        ),
        # the only one of the three with P-side pads (appended to r_4)
        (
            higman_presentation(4),
            "< a1, a2, a3, a4 | a1^-1 a2^-1 a1 a2^2, a2^-1 a3^-1 a2 a3^2, "
            "a3^-1 a4^-1 a3 a4^2, a4^-1 a1^-1 a4 a1^2 a2 a2^-1 a3 a3^-1 >",
            "4:3:+ 1:2:+ 1:0:- 4:4:+ 4:1:-\n"
            "4:6:- 1:3:+ 4:5:+ 1:4:+ 1:1:- 2:2:+ 2:0:-\n"
            "4:7:+ 2:3:+ 4:8:- 2:4:+ 2:1:- 3:2:+ 3:0:-\n"
            "4:0:- 3:3:+ 4:2:+ 3:4:+ 3:1:-\n",
        ),
    ],
    ids=["poincare", "rapaport", "higman4"],
)
def test_align_output_is_pinned(p, augmented, witness):
    kc = align(p)
    assert format_presentation(kc.augmented) == augmented
    assert format_witness(kc.witness) == witness
    # the trivialization is the Lemma 2 certificate of the transpose, unchanged
    assert kc.trivialization == presentation_from_matrix(exponent_matrix(p).transpose())[1]


def test_align_requires_perfect():
    with pytest.raises(ValueError, match="not perfect"):
        align(parse_presentation("< a, b | a b, a b >"))
    with pytest.raises(ValueError, match="not balanced"):
        align(parse_presentation("< a | >"))


def test_align_empty_presentation():
    kc = align(EMPTY_PRESENTATION)
    assert kc.dual == EMPTY_PRESENTATION
    assert kc.trivialization.moves == ()


def test_align_random_perfect_presentations():
    # start from duals of unimodular constructions, which are perfect by design
    from test_lemma2 import random_unimodular

    rng = random.Random(83)
    count = 0
    while count < 25:
        n = rng.randint(1, 3)
        p, _ = presentation_from_matrix(random_unimodular(rng, n, n_ops=6))
        kc = align(p)
        assert verify_knot_certificate(kc) == []
        count += 1


def reference_pads_and_witness(p, q):
    """The two-phase pads and witness of ``align`` before its one-pass form,
    kept as the differential reference: count the signed occurrences of
    a_i in r_j and of x_j in q_i, append (a_i a_i^-1)^k to r_j where P has
    k too few, then consume each (generator, relator, sign) class in scan
    order along q_i followed by the Q-side surplus pairs.  Also returns
    the generators that get both P-side pads and Q-side surplus."""
    n = len(p.generators)

    def signed_counts(relators):
        plus = [[0] * n for _ in range(n)]
        minus = [[0] * n for _ in range(n)]
        for j, r in enumerate(relators):
            for x in r:
                (plus if x > 0 else minus)[abs(x) - 1][j] += 1
        return plus, minus

    plus_p, minus_p = signed_counts(p.relators)  # [i][j]: a_i in r_j
    plus_q, minus_q = signed_counts(q.relators)  # [j][i]: x_j in q_i
    rels = [list(r) for r in p.relators]
    surplus = [[0] * n for _ in range(n)]
    padded = set()
    for j in range(n):
        for i in range(n):
            s = plus_p[i][j] - plus_q[j][i]
            assert minus_p[i][j] - minus_q[j][i] == s
            if s < 0:
                rels[j] += [i + 1, -(i + 1)] * -s
                padded.add(i)
            else:
                surplus[i][j] = s
    augmented = AugmentedPresentation(p.generators, tuple(tuple(r) for r in rels))

    lists = {}
    for i, occs in enumerate(occurrence_lists(augmented), start=1):
        for occ in occs:
            lists.setdefault((i, occ.relator, occ.sign), []).append(occ)
    pools = {key: iter(occs) for key, occs in lists.items()}
    per_generator = []
    for i in range(1, n + 1):
        target = list(q.relators[i - 1])
        for j in range(1, n + 1):
            target.extend([j, -j] * surplus[i - 1][j - 1])
        per_generator.append(tuple(next(pools[i, abs(x), 1 if x > 0 else -1]) for x in target))
    both = {i for i in padded if any(surplus[i])}
    return augmented, OrderingWitness(tuple(per_generator)), both


def relabelled(p, rng):
    """p with its generators and relators permuted, each relator rotated
    and some of them inverted: the same group, the matrix permuted and
    sign-changed."""
    n = len(p.generators)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    rels = []
    for r in rng.sample(p.relators, n):
        k = rng.randrange(len(r) or 1)
        w = [perm[abs(x) - 1] * (1 if x > 0 else -1) for x in r[k:] + r[:k]]
        rels.append(tuple(-x for x in reversed(w)) if rng.random() < 0.5 else tuple(w))
    return Presentation(p.generators, tuple(rels))


def test_align_matches_the_two_phase_reference():
    from test_lemma2 import random_unimodular

    rng = random.Random(89)
    inputs = []
    for _ in range(40):
        p, _ = presentation_from_matrix(random_unimodular(rng, rng.randint(1, 5), n_ops=12))
        inputs += [p, dualize(p)]
    for m in range(4, 9):
        inputs += [higman_presentation(m), higman_presentation(m, variant=(2, 3))]
    for _ in range(10):
        inputs += [relabelled(POINCARE, rng), relabelled(RAPAPORT, rng)]

    both = 0
    for p in inputs:
        kc = align(p)
        augmented, witness, mixed = reference_pads_and_witness(p, kc.dual)
        assert format_presentation(kc.augmented) == format_presentation(augmented)
        assert format_witness(kc.witness) == format_witness(witness)
        both += len(mixed)
    # some generator is padded in one relator and in surplus in another
    assert both > 0


@pytest.mark.parametrize(
    "text",
    [
        "1:0:",
        "1:1:+-",
        "1:0:x",
        "1:0:++",
        "1:0",
        pytest.param("1:" + "9" * 5000 + ":+", id="5000-digits"),
        "1:2",
        ":0:+",
    ],
)
def test_parse_witness_rejects_bad_triples(text):
    # a ValueError naming the line, never an IndexError or a bare unpacking error
    with pytest.raises(ValueError, match=r"^line 1: "):
        parse_witness(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "1:" + "9" * 5000 + ":+",
            f"line 1: an entry of 5000 digits is past the limit of {sys.get_int_max_str_digits()} digits",
        ),
        ("1:2", "line 1: witness triple '1:2' has 2 fields, not 3"),
        ("1:0:+\n2:1:- 3:1:+:5", "line 2: witness triple '3:1:+:5' has 4 fields, not 3"),
    ],
    ids=["digits", "two-fields", "second-line"],
)
def test_parse_witness_names_the_line_and_the_field(text, message):
    with pytest.raises(ValueError) as e:
        parse_witness(text)
    assert str(e.value) == message


def test_dualize_checks_only_a_witness_it_is_given(monkeypatch):
    checked = []
    monkeypatch.setattr(dual, "_check_witness", lambda p, w: checked.append(w))
    assert dualize(POINCARE) == dualize(POINCARE, default_witness(POINCARE))
    assert checked == [default_witness(POINCARE)]


def test_witness_text_round_trip():
    w = default_witness(POINCARE)
    assert parse_witness(format_witness(w)) == w
    empty = OrderingWitness(())
    assert parse_witness(format_witness(empty)) == empty


def test_bundle_round_trip(tmp_path):
    kc = align(POINCARE)
    write_bundle(kc, tmp_path / "out")
    back = read_bundle(tmp_path / "out")
    assert back == kc
    assert verify_knot_certificate(back) == []


def test_tampered_bundle_gives_problems_not_an_exception(tmp_path):
    # augmented.pres declares a third generator and appends it to relator 2;
    # the exponent matrices then differ in shape, and the check says so
    write_bundle(align(POINCARE), tmp_path)
    (tmp_path / "augmented.pres").write_text("< a, b, c | a b^2 a b^-1, a^4 b a^-1 b c >\n")
    problems = verify_knot_certificate(read_bundle(tmp_path))
    assert problems == [
        "augmented presentation does not reduce to the source",
        "pair insertion changed the exponent matrix",
        "witness invalid: presentation is not balanced: 3 generator(s), 2 relator(s)",
    ]


def one_more_move(kc, move, move_dual=True):
    """kc with ``move`` appended to its trivialization, whose end, and with
    ``move_dual`` the dual too, becomes the presentation the move gives."""
    t = kc.trivialization
    end = apply_move(t.end, move)
    kc = kc._replace(trivialization=AcCertificate(t.start, t.moves + (move,), end))
    return kc._replace(dual=end) if move_dual else kc


@pytest.mark.parametrize(
    "move, move_dual, problems",
    [
        # a rotation keeps the exponent matrix: only the dualize check sees it
        (CyclicPermute(1, 1), True, ["dual does not equal dualize(augmented, witness)"]),
        (
            MultiplyRight(1, 2),
            True,
            ["dual does not equal dualize(augmented, witness)", "dual's exponent matrix is not the transpose"],
        ),
        (CyclicPermute(2, 1), False, ["trivialization does not end at the dual"]),
    ],
    ids=["dual-rotated", "dual-matrix", "trivialization-end"],
)
def test_verify_knot_certificate_names_a_changed_dual(move, move_dual, problems):
    kc = one_more_move(align(POINCARE), move, move_dual)
    assert replay(kc.trivialization)
    assert verify_knot_certificate(kc) == problems


@pytest.mark.parametrize(
    "old, new, problem",
    [
        # starts at < a | a > and destabilizes it first, so it still replays
        ("START < | >\n", "START < a | a >\nDESTAB 1 1\n", "trivialization does not start at the empty presentation"),
        ("MULRI 1 2\n", "MULR 1 2\n", "trivialization certificate does not replay"),
        # no generator is left to drop: the move fails replay, and reading it
        # must not pop from an empty name list
        ("START < | >\n", "START < | >\nDESTAB 0 1\n", "trivialization certificate does not replay"),
    ],
    ids=["start", "replay", "destab-0"],
)
def test_verify_knot_certificate_names_a_changed_trivialization(tmp_path, old, new, problem):
    write_bundle(align(POINCARE), tmp_path)
    path = tmp_path / "trivialization.cert"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert verify_knot_certificate(read_bundle(tmp_path)) == [problem]


@st.composite
def padded_balanced(draw):
    """Names and raw relators, as lists, of a balanced presentation on 1-3
    generators; some relators carry cancelling pairs."""
    m = draw(st.integers(1, 3))
    letters = st.integers(1, m).flatmap(lambda g: st.sampled_from((g, -g)))
    relators = []
    for _ in range(m):
        r = draw(st.lists(letters, max_size=6))
        for pos, x in draw(st.lists(st.tuples(st.integers(0, 6), letters), max_size=2)):
            r[pos:pos] = [x, -x]
        relators.append(r)
    return [f"g{i}" for i in range(1, m + 1)], relators


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(padded_balanced(), st.data())
def test_unchecked_builds_equal_the_validating_constructor(pres, data):
    names, relators = pres
    augmented = AugmentedPresentation(names, relators)
    assert augmented.reduced() == Presentation(names, relators)
    for p in (augmented, augmented.reduced()):
        # a witness in scan order, then one with each generator's occurrences shuffled
        for w in (default_witness(p), OrderingWitness(tuple(data.draw(st.permutations(o)) for o in occurrence_lists(p)))):
            raw = [[occ.sign * occ.relator for occ in occs] for occs in w.per_generator]
            expected = Presentation([f"x{k}" for k in range(1, len(names) + 1)], raw)
            d = dualize(p, w)
            assert d == expected and hash(d) == hash(expected)
