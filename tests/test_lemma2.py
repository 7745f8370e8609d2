import random

import pytest

from acforge.intmatrix import IntMatrix, determinant, exponent_matrix
from acforge.lemma2 import (
    RowAdd,
    RowNegate,
    decompose_unimodular,
    presentation_from_matrix,
)
from acforge.moves import (
    InvertRelator,
    MultiplyRight,
    Stabilize,
    invert_certificate,
    replay,
)
from acforge.presentation import EMPTY_PRESENTATION, total_letters


def apply_ops(ops, n):
    """Apply elementary ops in order to the n x n identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for op in ops:
        if isinstance(op, RowNegate):
            i = op.row - 1
            rows[i] = [-x for x in rows[i]]
        else:
            s, t = op.source - 1, op.target - 1
            rows[t] = [a + b for a, b in zip(rows[t], rows[s])]
    return IntMatrix(rows, ncols=n)


def random_unimodular(rng, n, n_ops=20):
    """Random product of elementary ops on the identity (the op vocabulary
    of the decomposition, so every output is reachable)."""
    ops = []
    for _ in range(rng.randint(0, n_ops)):
        if n >= 2 and rng.random() < 0.7:
            i = rng.randint(1, n)
            j = rng.choice([k for k in range(1, n + 1) if k != i])
            ops.append(RowAdd(i, j))
        else:
            ops.append(RowNegate(rng.randint(1, n)))
    return apply_ops(ops, n)


def test_apply_ops_identity():
    assert apply_ops([], 3) == IntMatrix.identity(3)
    assert apply_ops([RowNegate(2)], 2) == IntMatrix([[1, 0], [0, -1]])
    assert apply_ops([RowAdd(1, 2)], 2) == IntMatrix([[1, 0], [1, 1]])


def test_decompose_identity():
    assert decompose_unimodular(IntMatrix.identity(4)) == []
    assert decompose_unimodular(IntMatrix([], ncols=0)) == []


def test_decompose_single_negation():
    assert decompose_unimodular(IntMatrix([[-1]])) == [RowNegate(1)]


def test_decompose_2x2_example():
    a = IntMatrix([[2, 3], [1, 2]])
    ops = decompose_unimodular(a)
    assert apply_ops(ops, 2) == a


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_unimodular(IntMatrix([[1, 2]]))
    with pytest.raises(ValueError, match="det = 2"):
        decompose_unimodular(IntMatrix([[2, 1], [0, 1]]))


def test_decompose_random_round_trip():
    rng = random.Random(59)
    for _ in range(120):
        n = rng.randint(1, 5)
        a = random_unimodular(rng, n)
        assert abs(determinant(a)) == 1
        assert apply_ops(decompose_unimodular(a), n) == a


def test_presentation_from_identity():
    p, cert = presentation_from_matrix(IntMatrix.identity(3))
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
