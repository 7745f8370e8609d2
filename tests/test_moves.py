import random

import pytest

from acforge.intmatrix import IntMatrix, exponent_matrix, invariant_factors
from acforge.lemma2 import presentation_from_matrix
from acforge.moves import (
    AcCertificate,
    CertificateError,
    CyclicPermute,
    Destabilize,
    InvertRelator,
    MoveError,
    MultiplyRight,
    Stabilize,
    apply_move,
    format_certificate,
    inverse_move,
    invert_certificate,
    parse_certificate,
    replay,
    replay_trace,
    _Replay,
)
from acforge.presentation import MAX_LETTERS, EMPTY_PRESENTATION, Presentation, parse_presentation, total_letters
from acforge.search import search_trivialization


def nonunit_factors(a):
    """Invariant factors other than 1, sorted; the AC-move invariant."""
    return tuple(sorted(f for f in invariant_factors(a) if f != 1))
from acforge.words import cyclic_reduce, free_reduce


def pres(text):
    return parse_presentation(text)


def random_presentation(rng, max_gens=4, max_rel_len=12, min_rels=1, max_rels=4):
    m = rng.randint(1, max_gens)
    n = rng.randint(min_rels, max_rels)
    gens = tuple(f"g{i + 1}" for i in range(m))
    rels = []
    for _ in range(n):
        raw = [rng.choice([1, -1]) * rng.randint(1, m) for _ in range(rng.randint(0, max_rel_len))]
        rels.append(free_reduce(raw))
    return Presentation(gens, tuple(rels))


def random_move(rng, p, invertible_only=False):
    """A valid move for p; with invertible_only, cyclic shifts are sampled on
    cyclically reduced relators only (reducing rotations lose information)."""
    n = len(p.relators)
    m = len(p.generators)
    choices = []
    if n:
        choices += ["inv", "cyc"]
    if n >= 2:
        choices += ["mulr", "mulri"]
    choices.append("stab")
    kind = rng.choice(choices)
    if kind == "inv":
        return InvertRelator(rng.randint(1, n))
    if kind == "cyc":
        if invertible_only:
            ok = [i for i in range(1, n + 1) if not cyclic_reduce(p.relators[i - 1])[1]]
            if not ok:
                return InvertRelator(rng.randint(1, n))
            i = rng.choice(ok)
        else:
            i = rng.randint(1, n)
        return CyclicPermute(i, rng.randint(-15, 15))
    if kind in ("mulr", "mulri"):
        i = rng.randint(1, n)
        j = rng.choice([k for k in range(1, n + 1) if k != i])
        return MultiplyRight(i, j, 1 if kind == "mulr" else -1)
    raw = [rng.choice([1, -1]) * rng.randint(1, m) for _ in range(rng.randint(0, 4))] if m else []
    return Stabilize(free_reduce(raw))


def test_invert_relator_example():
    assert apply_move(pres("< a | a >"), InvertRelator(1)) == pres("< a | a^-1 >")


def test_multiply_right_example():
    assert apply_move(pres("< a, b | a, b >"), MultiplyRight(2, 1)) == pres("< a, b | a, b a >")


def test_destabilize_collapses_trivial_presentation():
    p = pres("< alpha, beta, gamma | alpha, beta, gamma >")
    p = apply_move(p, Destabilize(3, 3))
    p = apply_move(p, Destabilize(2, 2))
    p = apply_move(p, Destabilize(1, 1))
    assert p == EMPTY_PRESENTATION


def test_cyclic_permute():
    p = pres("< a, b | a b b >")
    assert apply_move(p, CyclicPermute(1, 1)) == pres("< a, b | b b a >")
    assert apply_move(p, CyclicPermute(1, -1)) == pres("< a, b | b a b >")
    # rotating a conjugate-shaped relator strips the conjugating pair
    q = Presentation(("a", "b"), ((1, 2, -1),))
    assert apply_move(q, CyclicPermute(1, 1)).relators == ((2,),)


def test_stabilize_names_and_shape():
    p = pres("< a | a >")
    q = apply_move(p, Stabilize((1,)))
    assert q.generators == ("a", "x1")
    assert q.relators == ((1,), (2, 1))
    r = apply_move(q, Stabilize(()))
    assert r.generators == ("a", "x1", "x2")
    assert r.relators[-1] == (3,)


def test_stabilize_avoids_name_collision():
    p = pres("< x1 | x1 >")
    q = apply_move(p, Stabilize(()))
    assert q.generators == ("x1", "x2")


def test_move_errors():
    p = pres("< a, b | a b, b >")
    with pytest.raises(MoveError):
        apply_move(p, InvertRelator(3))
    with pytest.raises(MoveError):
        apply_move(p, MultiplyRight(1, 1))
    with pytest.raises(MoveError):
        apply_move(p, Destabilize(1, 2))  # not the last generator
    with pytest.raises(MoveError):
        apply_move(p, Destabilize(2, 1))  # relator 1 is not b.w
    with pytest.raises(MoveError):
        apply_move(p, Destabilize(2, 2))  # b occurs in relator 1 as well
    with pytest.raises(MoveError):
        apply_move(p, Stabilize((3,)))  # word letter out of range


def test_stab_word_letters_are_checked_before_reduction():
    # (2, -2) reduces to the empty word, but 2 is no letter of < a | a >
    with pytest.raises(MoveError, match=r"^STAB word: entry 1 of the word, 2, is not a letter of 1 generator\(s\)$"):
        apply_move(pres("< a | a >"), Stabilize((2, -2)))


def test_replay_of_a_stab_of_the_letter_zero_fails_at_its_step():
    p = pres("< a, b | a, b >")
    assert replay_trace(AcCertificate(p, (Stabilize((0,)),), p)) == (False, 0, p)


def test_format_certificate_names_the_step_of_a_stab_letter_it_cannot_name():
    # the letter 0 was written as b^-1, which reads back as Stabilize((-2,))
    p = pres("< a, b | a, b >")
    message = r"^step 0: STAB word: entry 1 of the word, 0, is not a letter of 2 generator\(s\)$"
    with pytest.raises(CertificateError, match=message):
        format_certificate(AcCertificate(p, (Stabilize((0,)),), p))


@pytest.mark.parametrize("x", [0, 3, 1.0], ids=["zero", "out-of-range", "float"])
def test_stab_words_are_checked_in_replay_and_in_certificate_text(x):
    p = pres("< a, b | a, b >")
    cert = AcCertificate(p, (Stabilize((1, x)),), p)
    message = f"STAB word: entry 2 of the word, {x!r}, is not a letter of 2 generator(s)"
    assert replay_trace(cert) == (False, 0, p)
    with pytest.raises(MoveError) as info:
        apply_move(p, cert.moves[0])
    assert str(info.value) == message
    with pytest.raises(CertificateError) as info:
        format_certificate(cert)
    assert str(info.value) == f"step 0: {message}"


def test_unknown_move_is_a_move_error():
    p = pres("< a | a >")
    with pytest.raises(MoveError, match="^unknown move 'INV 1'$"):
        apply_move(p, "INV 1")
    with pytest.raises(MoveError, match="^unknown move 'INV 1'$"):
        inverse_move("INV 1", p)
    assert replay_trace(AcCertificate(p, ("INV 1",), p)) == (False, 0, p)


def test_growth_past_the_letter_cap_is_a_value_error_not_a_move_error():
    # counted before reduction, as the parser counts; a move that reaches
    # exactly MAX_LETTERS letters applies
    half = MAX_LETTERS // 2
    p = Presentation(("a", "b"), ((1,) * half, (2,) * (half // 2)))
    assert total_letters(apply_move(p, MultiplyRight(1, 2))) == MAX_LETTERS
    assert total_letters(apply_move(p, Stabilize((1,) * (half // 2 - 1)))) == MAX_LETTERS
    over = [MultiplyRight(1, 2, 2), MultiplyRight(1, 2, -2), Stabilize((1,) * (half // 2)), Stabilize((1, -1) * half)]
    for move in over:
        with pytest.raises(ValueError, match=f"more than {MAX_LETTERS}$") as info:
            apply_move(p, move)
        assert not isinstance(info.value, MoveError)
        # a replay that reaches it is inconclusive, not failed
        with pytest.raises(ValueError, match=f"more than {MAX_LETTERS}$"):
            replay_trace(AcCertificate(p, (InvertRelator(1), move), p))


def test_move_invertibility_randomized():
    rng = random.Random(41)
    for _ in range(1200):
        p = random_presentation(rng)
        move = random_move(rng, p, invertible_only=True)
        q = apply_move(p, move)
        back = apply_move(q, inverse_move(move, p))
        assert back == p, (p, move, q, back)


def test_destabilize_stabilize_round_trip():
    p = pres("< a, b | a b >")
    s = Stabilize((1, -2))
    q = apply_move(p, s)
    d = inverse_move(s, p)
    assert d == Destabilize(3, 2)
    assert apply_move(q, d) == p
    assert inverse_move(d, q) == s


def test_moves_preserve_nonunit_invariant_factors():
    rng = random.Random(47)
    for _ in range(1000):
        p = random_presentation(rng, max_rel_len=8)
        move = random_move(rng, p)
        q = apply_move(p, move)
        assert nonunit_factors(exponent_matrix(p)) == nonunit_factors(exponent_matrix(q))


def test_replay_examples():
    p = pres("< a | a >")
    assert replay(AcCertificate(p, (), p))
    cert = AcCertificate(p, (InvertRelator(1),), pres("< a | a^-1 >"))
    assert replay(cert)
    bad_end = AcCertificate(p, (InvertRelator(1),), p)
    ok, step, _ = replay_trace(bad_end)
    assert not ok and step == 1
    bad_move = AcCertificate(p, (InvertRelator(2),), p)
    ok, step, _ = replay_trace(bad_move)
    assert not ok and step == 0


def test_invert_certificate():
    p = EMPTY_PRESENTATION
    cert = AcCertificate(p, (Stabilize(()),), pres("< x1 | x1 >"))
    assert replay(cert)
    inv = invert_certificate(cert)
    assert inv.moves == (Destabilize(1, 1),)
    assert replay(inv)
    assert invert_certificate(AcCertificate(p, (), p)).moves == ()


def test_invert_certificate_rejects_reducing_rotation():
    q = Presentation(("a", "b"), ((1, 2, -1),))
    cert = AcCertificate(q, (CyclicPermute(1, 1),), Presentation(("a", "b"), ((2,),)))
    assert replay(cert)
    with pytest.raises(CertificateError, match="^certificate is not invertible: the CYC at step 0 shortens relator 1$"):
        invert_certificate(cert)


def test_invert_certificate_names_a_destab_that_stab_would_rename():
    # a STAB names its generator x1, x2, ..., so undoing the DESTAB of a
    # generator named otherwise cannot give the start back
    cert = AcCertificate(pres("< a | a >"), (Destabilize(1, 1),), EMPTY_PRESENTATION)
    assert replay(cert)
    message = "^certificate is not invertible: the DESTAB at step 0 removes generator 'a', which STAB would name 'x1'$"
    with pytest.raises(CertificateError, match=message):
        invert_certificate(cert)
    # every search certificate of a presentation named a, b ends that way
    found = search_trivialization(pres("< a, b | b, a >")).certificate
    assert replay(found)
    with pytest.raises(CertificateError, match="removes generator 'b', which STAB would name 'x1'$"):
        invert_certificate(found)


def test_invert_certificate_of_a_certificate_that_misses_its_end():
    p = pres("< a | a >")
    with pytest.raises(CertificateError, match="^input certificate does not replay to its end$"):
        invert_certificate(AcCertificate(p, (InvertRelator(1),), p))


def test_invert_certificate_whose_inverse_does_not_replay():
    # the undoing STAB appends x2's relator last, after x1's
    cert = parse_certificate("START < x1, x2 | x2, x1 >\nDESTAB 2 1\nEND < x1 | x1 >\n")
    assert replay(cert)
    with pytest.raises(CertificateError, match=r"^certificate is not invertible \(inverse fails at step 1\)$"):
        invert_certificate(cert)


@pytest.mark.parametrize(
    "move, reason",
    [
        (Destabilize(1, 5), "relator index 5 out of range 1..1"),
        (Destabilize(1, 0), "relator index 0 out of range 1..1"),
        (Destabilize(2, 1), "destabilize must remove the last generator 1, not 2"),
    ],
)
def test_invert_certificate_invalid_move_is_a_certificate_error(move, reason):
    p = pres("< x1 | x1 >")
    with pytest.raises(CertificateError) as info:
        invert_certificate(AcCertificate(p, (move,), EMPTY_PRESENTATION))
    assert str(info.value) == f"input certificate invalid at step 0: {reason}"


def test_invert_certificate_random_round_trips():
    rng = random.Random(53)
    for _ in range(300):
        p = random_presentation(rng)
        moves = []
        cur = p
        for _ in range(rng.randint(0, 6)):
            mv = random_move(rng, cur, invertible_only=True)
            moves.append(mv)
            cur = apply_move(cur, mv)
        cert = AcCertificate(p, tuple(moves), cur)
        assert replay(cert)
        inv = invert_certificate(cert)
        assert inv.start == cur and inv.end == p
        assert replay(inv)


def unit_moves(moves):
    """Each valid MultiplyRight of exponent e as |e| moves of exponent +1 or -1."""
    for mv in moves:
        if isinstance(mv, MultiplyRight) and type(mv.exponent) is int and mv.exponent:
            yield from [MultiplyRight(mv.relator, mv.other, 1 if mv.exponent > 0 else -1)] * abs(mv.exponent)
        else:
            yield mv


def one_at_a_time(p, moves):
    """Reference replay: one ``apply_move`` per unit move.  Returns the last
    presentation reached and the unit step of the first invalid move (None
    if every move applied)."""
    for step, mv in enumerate(unit_moves(moves)):
        try:
            p = apply_move(p, mv)
        except MoveError:
            return p, step
    return p, None


def random_run_chain(rng, p, invertible_only=False):
    """Valid unit moves from p in which a MultiplyRight often repeats 2..12
    times, and the same chain with each drawn repeat as one move."""
    moves, drawn = [], []
    for _ in range(rng.randint(1, 8)):
        mv = random_move(rng, p, invertible_only)
        k = rng.randint(1, 12) if isinstance(mv, MultiplyRight) else 1
        moves += [mv] * k
        drawn.append(MultiplyRight(mv.relator, mv.other, k * mv.exponent) if k > 1 else mv)
        p = one_at_a_time(p, [mv] * k)[0]
    return moves, drawn, p


def test_replay_folds_multiply_runs_exactly():
    rng = random.Random(67)
    runs = 0
    for _ in range(300):
        p = random_presentation(rng, min_rels=2)
        moves, drawn, end = random_run_chain(rng, p)
        runs += any(a == b and isinstance(a, MultiplyRight) for a, b in zip(moves, moves[1:]))
        cert = AcCertificate(p, tuple(moves), end)
        # built from unit moves or from merged ones, it is the same certificate
        assert cert == AcCertificate(p, tuple(drawn), end)
        assert cert.length == len(moves) and one_at_a_time(p, cert.moves) == (end, None)
        assert replay_trace(cert) == (True, None, end)
        text = format_certificate(cert)
        assert len(text.splitlines()) == len(moves) + 2
        assert parse_certificate(text) == cert
        assert format_certificate(parse_certificate(text)) == text
    assert runs > 100


@pytest.mark.parametrize("sign, r1", [(1, (1, 2, 2, -1)), (-1, (1, -2, -2, -2, -2, -2, -2, -2, -2, -1))])
def test_multiply_run_cancels_across_the_seam(sign, r1):
    # r2 = a b a^-1 is not cyclically reduced: (a b^-3 a^-1)(a b a^-1)^(5 sign)
    p = Presentation(("a", "b"), ((1, -2, -2, -2, -1), (1, 2, -1)))
    moves = [MultiplyRight(1, 2, sign)] * 5
    end = Presentation(("a", "b"), (r1, (1, 2, -1)))
    assert one_at_a_time(p, moves) == (end, None)
    assert apply_move(p, MultiplyRight(1, 2, 5 * sign)) == end
    assert replay_trace(AcCertificate(p, tuple(moves), end)) == (True, None, end)


@pytest.mark.parametrize(
    "bad", [MultiplyRight(1, 1), MultiplyRight(1, 3), MultiplyRight(3, 1), MultiplyRight(1, 2, 0)]
)
def test_invalid_run_fails_at_its_first_move(bad):
    p = pres("< a, b | a b, b >")
    moves = [MultiplyRight(1, 2)] * 3 + [InvertRelator(2)] + [bad] * 4 + [InvertRelator(1)]
    before, step = one_at_a_time(p, moves)
    assert step == 4
    with pytest.raises(MoveError) as single:
        apply_move(before, bad)
    cert = AcCertificate(p, tuple(moves), p)
    with pytest.raises(MoveError) as merged:
        apply_move(before, cert.moves[2])
    assert str(merged.value) == str(single.value)
    assert replay_trace(cert) == (False, 4, before)
    with pytest.raises(CertificateError, match="step 4"):
        invert_certificate(cert)


def test_invalid_exponent_is_never_merged_into_a_run():
    p = pres("< a, b | a b, b >")
    for bad in (0, 1.0, "1"):
        moves = (MultiplyRight(1, 2), MultiplyRight(1, 2, bad), MultiplyRight(1, 2), MultiplyRight(1, 2, 2))
        cert = AcCertificate(p, moves, p)
        assert cert.moves == moves[:2] + (MultiplyRight(1, 2, 3),)
        assert replay_trace(cert) == (False, 1, apply_move(p, moves[0]))


def test_certificate_holds_each_run_as_one_move():
    p = pres("< a, b | a b, b >")
    moves = [MultiplyRight(1, 2)] * 3 + [MultiplyRight(1, 2, -1)] * 2 + [InvertRelator(2)]
    cert = AcCertificate(p, tuple(moves), one_at_a_time(p, moves)[0])
    # opposite signs are never merged: MULR then MULRI stay two moves
    assert cert.moves == (MultiplyRight(1, 2, 3), MultiplyRight(1, 2, -2), InvertRelator(2))
    assert cert.length == 6
    assert replay(cert)
    text = format_certificate(cert)
    assert text.splitlines()[1:-1] == ["MULR 1 2"] * 3 + ["MULRI 1 2"] * 2 + ["INV 2"]
    assert parse_certificate(text) == cert


def test_invert_certificate_with_runs_matches_move_by_move():
    rng = random.Random(71)
    for _ in range(200):
        p = random_presentation(rng, min_rels=2)
        moves, _, end = random_run_chain(rng, p, invertible_only=True)
        states = [p]
        for mv in moves:
            states.append(apply_move(states[-1], mv))
        expect = tuple(inverse_move(mv, s) for mv, s in zip(reversed(moves), reversed(states[:-1])))
        inv = invert_certificate(AcCertificate(p, tuple(moves), end))
        assert inv == AcCertificate(end, expect, p)


def test_certificate_file_round_trip():
    p = pres("< a, b | a b, b >")
    moves = (
        CyclicPermute(1, 1),
        InvertRelator(2),
        MultiplyRight(1, 2),
        MultiplyRight(1, 2, -1),
        Stabilize((1, -2)),
    )
    cur = p
    for mv in moves:
        cur = apply_move(cur, mv)
    cert = AcCertificate(p, moves, cur)
    assert replay(cert)
    text = format_certificate(cert)
    assert parse_certificate(text) == cert
    assert text.startswith("START < a, b |")
    assert "STAB a b^-1" in text


def test_multiply_right_exponent_must_be_a_nonzero_int():
    p = pres("< a, b | a b, b >")
    assert apply_move(p, MultiplyRight(1, 2, -1)) == pres("< a, b | a, b >")
    for bad in (0, 1.0, "1", None):
        with pytest.raises(MoveError):
            apply_move(p, MultiplyRight(1, 2, bad))
        with pytest.raises(CertificateError):
            format_certificate(AcCertificate(p, (MultiplyRight(1, 2, bad),), p))
    for e in (2, -2):
        unit = MultiplyRight(1, 2, e // 2)
        q = apply_move(apply_move(p, unit), unit)
        assert apply_move(p, MultiplyRight(1, 2, e)) == q
        cert = AcCertificate(p, (MultiplyRight(1, 2, e),), q)
        assert cert == AcCertificate(p, (unit, unit), q) and cert.length == 2
        assert format_certificate(cert).splitlines()[1:-1] == [f"{'MULR' if e > 0 else 'MULRI'} 1 2"] * 2


@pytest.mark.parametrize("sign, keyword", [(1, "MULR"), (-1, "MULRI")])
def test_multiply_right_inverse_flips_sign_and_both_signs_round_trip(sign, keyword):
    p = pres("< a, b | a b, b a^2 >")
    move = MultiplyRight(2, 1, sign)
    undo = inverse_move(move, p)
    assert undo == MultiplyRight(2, 1, -sign)
    assert inverse_move(undo, p) == move
    q = apply_move(p, move)
    assert apply_move(q, undo) == p
    cert = AcCertificate(p, (move, undo), p)
    text = format_certificate(cert)
    assert text.splitlines()[1:3] == [f"{keyword} 2 1", f"{'MULRI' if sign > 0 else 'MULR'} 2 1"]
    assert parse_certificate(text) == cert
    assert replay(cert)


def test_certificate_text_round_trips_random_chains():
    rng = random.Random(61)
    for _ in range(300):
        cur = start = random_presentation(rng)
        moves = []
        for _ in range(rng.randint(0, 8)):
            mv = random_move(rng, cur)
            moves.append(mv)
            cur = apply_move(cur, mv)
        cert = AcCertificate(start, tuple(moves), cur)
        assert parse_certificate(format_certificate(cert)) == cert


def test_format_certificate_of_a_destab_with_no_generator_left():
    # DESTAB 0 drops no name; the writer prints it and goes on
    cert = AcCertificate(EMPTY_PRESENTATION, (Destabilize(0, 1), Stabilize(())), pres("< x1 | x1 >"))
    text = format_certificate(cert)
    assert text == "START < | >\nDESTAB 0 1\nSTAB 1\nEND < x1 | x1 >\n"
    assert parse_certificate(text) == cert
    assert replay_trace(cert)[:2] == (False, 0)


def test_parse_certificate_errors():
    with pytest.raises(CertificateError):
        parse_certificate("INV 1\nEND < | >\n")
    with pytest.raises(CertificateError):
        parse_certificate("START < | >\nINV 1\n")
    with pytest.raises(CertificateError):
        parse_certificate("START < a | a >\nWIBBLE 1\nEND < a | a >\n")
    with pytest.raises(CertificateError):
        parse_certificate("START < a | a >\nMULR 1\nEND < a | a >\n")
    # an extra field is an error, not ignored
    for line in ("MULR 1 2 3", "MULRI 1 2 3", "CYC 1 1 9", "DESTAB 2 2 7"):
        with pytest.raises(CertificateError, match="line 2"):
            parse_certificate(f"START < a, b | a, b >\n{line}\nEND < a, b | a, b >\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("CYC 1", "CYC takes 2 fields, got 1"),
        ("INV", "INV takes 1 field, got 0"),
        ("INV 1 2", "INV takes 1 field, got 2"),
        ("MULR 1", "MULR takes 2 fields, got 1"),
        ("MULRI 1 2 3", "MULRI takes 2 fields, got 3"),
        ("DESTAB 2", "DESTAB takes 2 fields, got 1"),
    ],
)
def test_parse_certificate_names_the_field_count(line, message):
    with pytest.raises(CertificateError) as e:
        parse_certificate(f"START < a, b | a, b >\n{line}\nEND < a, b | a, b >\n")
    assert str(e.value) == f"line 2: {message}"


def test_trusted_results_equal_validated_ones():
    # apply_move skips the validating constructor; its results must be exactly
    # what that constructor would store, along whole chains of moves
    rng = random.Random(59)
    for _ in range(300):
        cur = random_presentation(rng)
        for _ in range(rng.randint(1, 8)):
            mv = random_move(rng, cur)
            nxt = apply_move(cur, mv)
            assert nxt == Presentation(nxt.generators, nxt.relators), (cur, mv, nxt)
            if isinstance(mv, Stabilize) and rng.random() < 0.5:
                back = apply_move(nxt, inverse_move(mv, cur))
                assert back == Presentation(back.generators, back.relators) == cur
                nxt = back
            cur = nxt
        n, m = len(cur.relators), len(cur.generators)
        for bad in (
            InvertRelator(n + 1),
            CyclicPermute(0, 1),
            MultiplyRight(1, 1),
            Stabilize((m + 1,)),
            Destabilize(m + 1, 1),
        ):
            with pytest.raises(MoveError):
                apply_move(cur, bad)


def test_replay_does_not_revalidate(monkeypatch):
    _, cert = presentation_from_matrix(IntMatrix(((1, 5000), (0, 1))))
    calls = []
    validate = Presentation.__post_init__

    def counting(self):
        calls.append(1)
        validate(self)

    monkeypatch.setattr(Presentation, "__post_init__", counting)
    assert replay_trace(cert)[0]
    assert len(calls) <= sum(isinstance(mv, (Stabilize, Destabilize)) for mv in cert.moves)


@pytest.mark.parametrize(
    "start, moves, stab_lines",
    [
        # x1 is created, removed and created again
        (
            "< a | a >",
            (Stabilize((1,)), Destabilize(2, 2), Stabilize((-1,)), Stabilize((2, 1))),
            ["STAB a", "STAB a^-1", "STAB x1 a"],
        ),
        # the start already has an x1, so the fresh names are x2 and x3
        ("< x1 | x1 >", (Stabilize((1,)), Stabilize((2, -1))), ["STAB x1", "STAB x2 x1^-1"]),
    ],
)
def test_certificate_text_follows_reused_names(start, moves, stab_lines):
    cur = pres(start)
    for mv in moves:
        cur = apply_move(cur, mv)
    cert = AcCertificate(pres(start), moves, cur)
    text = format_certificate(cert)
    assert [ln for ln in text.splitlines() if ln.startswith("STAB")] == stab_lines
    assert parse_certificate(text) == cert
    assert replay(parse_certificate(text))


def test_names_followed_across_a_replay_are_fresh_names():
    # replay and the certificate text follow one name set through STAB and
    # DESTAB; every name must be what a rebuild from scratch would give
    rng = random.Random(67)
    pool = ["a", "x0", "x1", "x2", "x3", "x01", "x10", "xx", "x" + "9" * 4301]
    for _ in range(300):
        names = tuple(rng.sample(pool, rng.randint(1, 4)))
        cur = start = Presentation(names, tuple((g,) for g in range(1, len(names) + 1)))
        moves = []
        for _ in range(rng.randint(1, 12)):
            m = len(cur.generators)
            if m and rng.random() < 0.4:
                mv = Destabilize(m, m)
            else:
                word = [rng.choice([1, -1]) * rng.randint(1, m) for _ in range(rng.randint(0, 2) if m else 0)]
                mv = Stabilize(free_reduce(word))
            moves.append(mv)
            cur = apply_move(cur, mv)
        cert = AcCertificate(start, tuple(moves), cur)
        assert replay(cert)
        assert parse_certificate(format_certificate(cert)) == cert


def near_cap_move(rng, p):
    """A MultiplyRight or Stabilize that brings p to about ``MAX_LETTERS``
    letters, counted before reduction, sometimes just over; or a DESTAB."""
    n, m = len(p.relators), len(p.generators)
    slack = MAX_LETTERS - total_letters(p)
    if rng.random() < 0.15:
        return Destabilize(m, rng.randint(1, n))
    if rng.random() < 0.5:
        i, j = rng.sample(range(1, n + 1), 2)
        lj = max(1, len(p.relators[j - 1]))
        return MultiplyRight(i, j, rng.choice([1, -1]) * max(1, slack // lj + rng.randint(-1, 1)))
    word = [rng.choice([1, -1]) * rng.randint(1, m) for _ in range(max(0, slack - 1 + rng.randint(-1, 1)))]
    return Stabilize(tuple(word))


def grown_total(p, move):
    """Letters p would hold after a MultiplyRight or Stabilize, counted as the cap counts them."""
    if isinstance(move, MultiplyRight):
        return total_letters(p) + abs(move.exponent) * len(p.relators[move.other - 1])
    return total_letters(p) + 1 + len(move.word)


def test_running_letter_count_matches_a_recount():
    # the replay state counts letters as it goes instead of re-summing them;
    # the count must equal total_letters after every move, and the growth cap
    # must refuse exactly the moves that a re-count puts over MAX_LETTERS
    rng = random.Random(71)
    # built once each: validating a million letters is the slow part
    near = [
        Presentation(("a", "b", "c"), ((1,) * (MAX_LETTERS - slack - 5), (2, -3, 2), (3, 3)))
        for slack in (0, 37)
    ]
    refused = near_cap = 0
    for trial in range(120):
        at_cap = trial % 10 == 0
        state = _Replay(near[trial // 10 % 2] if at_cap else random_presentation(rng))
        for _ in range(12):
            before = state.presentation()
            if at_cap:
                move = near_cap_move(rng, before)
            elif rng.random() < 0.2:
                move = Destabilize(len(before.generators), rng.randint(1, len(before.relators) or 1))
            else:
                move = random_move(rng, before)
                if isinstance(move, MultiplyRight) and rng.random() < 0.5:
                    move = MultiplyRight(move.relator, move.other, rng.choice([-3, -2, 2, 3]))
            try:
                state.apply(move)
            except MoveError:
                assert state.presentation() == before
                continue
            except ValueError as e:
                grown = grown_total(before, move)
                assert grown > MAX_LETTERS
                assert str(e) == f"move would grow the presentation to {grown} letters, more than {MAX_LETTERS}"
                assert state.presentation() == before
                refused += 1
                continue
            if isinstance(move, (MultiplyRight, Stabilize)):
                grown = grown_total(before, move)
                assert grown <= MAX_LETTERS
                near_cap += grown > MAX_LETTERS - 50
            assert state.letters == total_letters(state.presentation())
    assert refused >= 20 and near_cap >= 10, (refused, near_cap)
