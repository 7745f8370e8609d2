import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acforge.intmatrix import IntMatrix, determinant, exponent_matrix
from acforge.lemma2 import MAX_ROW_ADDITIONS, decompose_unimodular, presentation_from_matrix
from acforge.moves import (
    InvertRelator,
    MultiplyRight,
    Stabilize,
    apply_move,
    format_certificate,
    invert_certificate,
    replay,
)
from acforge.presentation import EMPTY_PRESENTATION, format_presentation, total_letters
from test_intmatrix import identity


def apply_ops(moves, n):
    """Apply the row operations of InvertRelator (negate row i) and
    MultiplyRight (row t += e * row s) moves in order to the n x n identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for mv in moves:
        if isinstance(mv, InvertRelator):
            i = mv.relator - 1
            rows[i] = [-x for x in rows[i]]
        else:
            t, s = mv.relator - 1, mv.other - 1
            rows[t] = [a + mv.exponent * b for a, b in zip(rows[t], rows[s])]
    return IntMatrix(rows, ncols=n)


def random_unimodular(rng, n, n_ops=20):
    """Random product of unit row operations on the identity (the move
    vocabulary of the decomposition, so every output is reachable)."""
    moves = []
    for _ in range(rng.randint(0, n_ops)):
        if n >= 2 and rng.random() < 0.7:
            i = rng.randint(1, n)
            j = rng.choice([k for k in range(1, n + 1) if k != i])
            moves.append(MultiplyRight(j, i, rng.choice((1, -1))))
        else:
            moves.append(InvertRelator(rng.randint(1, n)))
    return apply_ops(moves, n)


def reference_decompose(a):
    """The decomposition before signed additions: MultiplyRight of exponent
    1 only, each subtraction spelled invert-multiply-invert.  Kept as the
    differential reference for ``decompose_unimodular``."""
    n = a.nrows
    b = [list(r) for r in a.rows]
    trace = []

    def negate(i):
        b[i] = [-x for x in b[i]]
        trace.append(InvertRelator(i + 1))

    def add(src, dst):
        b[dst] = [x + y for x, y in zip(b[dst], b[src])]
        trace.append(MultiplyRight(dst + 1, src + 1))

    def addmul(src, dst, c):
        if c > 0:
            for _ in range(c):
                add(src, dst)
        elif c < 0:
            negate(src)
            for _ in range(-c):
                add(src, dst)
            negate(src)

    for col in range(n):
        while True:
            nonzero = [i for i in range(col, n) if b[i][col] != 0]
            piv = min(nonzero, key=lambda i: (abs(b[i][col]), i))
            rest = [i for i in nonzero if i != piv]
            if not rest:
                break
            for i in rest:
                addmul(piv, i, -(b[i][col] // b[piv][col]))
        if piv != col:
            add(piv, col)
            addmul(col, piv, -1)
    for i in range(n):
        if b[i][i] < 0:
            negate(i)
    for col in range(n - 1, -1, -1):
        for i in range(col):
            addmul(col, i, -b[i][col])

    moves = []
    for mv in reversed(trace):
        if isinstance(mv, InvertRelator):
            moves.append(mv)
        else:  # inverse of "add" is invert-multiply-invert
            moves.extend([InvertRelator(mv.other), mv, InvertRelator(mv.other)])
    return moves


def reference_presentation(a):
    """The presentation and move count that ``reference_decompose`` builds."""
    moves = [Stabilize(())] * a.nrows + reference_decompose(a)
    current = EMPTY_PRESENTATION
    for move in moves:
        current = apply_move(current, move)
    return current, len(moves)


def test_apply_ops_identity():
    assert apply_ops([], 3) == identity(3)
    assert apply_ops([InvertRelator(2)], 2) == IntMatrix([[1, 0], [0, -1]])
    assert apply_ops([MultiplyRight(2, 1)], 2) == IntMatrix([[1, 0], [1, 1]])
    assert apply_ops([MultiplyRight(2, 1, -1)], 2) == IntMatrix([[1, 0], [-1, 1]])


def test_decompose_identity():
    assert decompose_unimodular(identity(4)) == []
    assert decompose_unimodular(IntMatrix([], ncols=0)) == []


def test_decompose_single_negation():
    assert decompose_unimodular(IntMatrix([[-1]])) == [InvertRelator(1)]


def test_decompose_shear_is_one_run():
    assert decompose_unimodular(IntMatrix([[1, 7], [0, 1]])) == [MultiplyRight(1, 2, 7)]
    assert decompose_unimodular(IntMatrix([[1, -7], [0, 1]])) == [MultiplyRight(1, 2, -7)]


def test_decompose_2x2_example():
    a = IntMatrix([[2, 3], [1, 2]])
    assert apply_ops(decompose_unimodular(a), 2) == a


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_unimodular(IntMatrix([[1, 2]]))
    with pytest.raises(ValueError, match="det = 2"):
        decompose_unimodular(IntMatrix([[2, 1], [0, 1]]))


@pytest.mark.parametrize("rows, det", [([[1, 2], [2, 4]], 0), ([[1, 1], [1, -1]], -2), ([[0, 0], [0, 0]], 0), ([[3]], 3)])
def test_decompose_names_the_determinant(rows, det):
    # the pivots of the forward pass multiply to det(a)
    a = IntMatrix(rows)
    assert determinant(a) == det
    with pytest.raises(ValueError, match=f"^matrix is not unimodular: det = {det}$"):
        decompose_unimodular(a)


def test_decompose_rejects_exactly_the_nonunit_determinants():
    rng = random.Random(71)
    for _ in range(500):
        n = rng.randint(0, 4)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], ncols=n)
        d = determinant(a)
        if d in (1, -1):
            assert apply_ops(decompose_unimodular(a), n) == a
        else:
            with pytest.raises(ValueError, match=f"^matrix is not unimodular: det = {d}$"):
                decompose_unimodular(a)


def test_decompose_random_round_trip():
    rng = random.Random(59)
    for _ in range(120):
        n = rng.randint(1, 5)
        a = random_unimodular(rng, n)
        assert abs(determinant(a)) == 1
        moves = decompose_unimodular(a)
        assert all(isinstance(mv, InvertRelator) or (type(mv) is MultiplyRight and mv.exponent) for mv in moves)
        assert apply_ops(moves, n) == a


def test_presentation_from_identity():
    p, cert = presentation_from_matrix(identity(3))
    assert p.generators == ("x1", "x2", "x3")
    assert p.relators == ((1,), (2,), (3,))
    assert cert.moves == (Stabilize(()),) * 3
    assert cert.start == EMPTY_PRESENTATION and cert.end == p
    assert replay(cert)


def test_presentation_from_negative_unit():
    p, cert = presentation_from_matrix(IntMatrix([[-1]]))
    assert p.relators == ((-1,),)
    assert replay(cert)


def test_presentation_from_2x2_example():
    a = IntMatrix([[2, 3], [1, 2]])
    p, cert = presentation_from_matrix(a)
    assert exponent_matrix(p) == a
    assert replay(cert)
    inv = invert_certificate(cert)
    assert inv.start == p and inv.end == EMPTY_PRESENTATION
    assert replay(inv)


def test_certificates_use_only_primitive_moves():
    a = IntMatrix([[2, 3], [1, 2]])
    _, cert = presentation_from_matrix(a)
    assert all(isinstance(m, (Stabilize, InvertRelator, MultiplyRight)) for m in cert.moves)


@pytest.mark.parametrize("k", [1, 7, 1000, -1000])
def test_shear_is_one_move_per_unit_addition(k):
    # one move of exponent k, written as one MULR/MULRI line per unit
    _, cert = presentation_from_matrix(IntMatrix([[1, k], [0, 1]]))
    assert cert.moves[2:] == (MultiplyRight(1, 2, k),)
    assert cert.length == abs(k) + 2
    assert replay(cert)
    lines = format_certificate(cert).splitlines()
    assert lines[3:-1] == [f"{'MULR' if k > 0 else 'MULRI'} 1 2"] * abs(k)


def test_shear_at_the_addition_cap_builds_and_replays_in_linear_time():
    # well under 0.1 s with the row addition as one power product; as k unit
    # moves the growing relator is copied once per move and this takes minutes
    k = MAX_ROW_ADDITIONS
    t0 = time.perf_counter()
    p, cert = presentation_from_matrix(IntMatrix([[1, k], [0, 1]]))
    assert cert.length == k + 2
    assert p.relators == ((1,) + (2,) * k, (2,))
    assert replay(cert)
    assert time.perf_counter() - t0 < 5


def test_matches_reference_decomposition():
    # same presentation byte for byte, never more unit moves
    rng = random.Random(67)
    signs = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_unimodular(rng, n)
        p, cert = presentation_from_matrix(a)
        ref, ref_moves = reference_presentation(a)
        assert format_presentation(p) == format_presentation(ref)
        assert cert.length <= ref_moves
        signs.update(1 if m.exponent > 0 else -1 for m in cert.moves if isinstance(m, MultiplyRight))
    assert signs == {1, -1}


def test_random_matrices_round_trip():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_unimodular(rng, n)
        p, cert = presentation_from_matrix(a)
        assert exponent_matrix(p) == a
        assert replay(cert)
        assert replay(invert_certificate(cert))
        assert total_letters(p) < 100_000  # no silent blowup at this scale


@st.composite
def unimodular_matrices(draw):
    """I of size 1..4 after up to 8 row negations and row additions
    row t += c * row s, c in -3..3."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        t = draw(st.integers(0, n - 1))
        s = draw(st.integers(0, n - 1))
        if s == t:
            rows[t] = [-x for x in rows[t]]
        else:
            c = draw(st.integers(-3, 3))
            rows[t] = [x + c * y for x, y in zip(rows[t], rows[s])]
    return IntMatrix(rows, ncols=n)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(unimodular_matrices())
def test_lemma2_certificate_replays_in_the_benchmark_replayer(a):
    # the benchmark's replayer shares no code with acforge.moves
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import check
        import inputs
    finally:
        sys.path.pop(0)
    q, cert = presentation_from_matrix(a)
    start, end, moves = check.replay_certificate(format_certificate(cert))
    assert start == check.EMPTY
    assert inputs.format_pres(end) == format_presentation(q)
    assert moves == cert.length
    assert inputs.exponent_matrix(end) == [list(r) for r in a.rows]
