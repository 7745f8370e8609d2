import random
import sys
import time
from typing import List

import pytest

from acforge.intmatrix import (
    IntMatrix,
    _decimal_digits,
    determinant,
    exponent_matrix,
    invariant_factors,
    is_perfect_presentation,
    matrix_from_text,
    matrix_to_text,
    smith_normal_form,
)
from acforge.corpus import higman_presentation
from acforge.presentation import MAX_LETTERS, parse_presentation

RAPAPORT = parse_presentation("< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >")
POINCARE = parse_presentation("< a, b | a b^2 a b^-1, a^4 b a^-1 b >")


def cofactor_det(rows):
    """Oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def identity(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def sympy_matrix(a):
    """``a`` as a sympy matrix over ZZ, whose product is an oracle that
    shares no code with ``acforge``; the shape is given, so empty shapes
    survive."""
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import ZZ

    return matrices.DomainMatrix([list(map(ZZ, r)) for r in a.rows], (a.nrows, a.ncols), ZZ)


def random_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_matrix_of_no_rows_has_no_columns():
    a = IntMatrix([])
    assert (a.nrows, a.ncols, a.rows) == (0, 0, ())


def test_exponent_matrix_examples():
    assert exponent_matrix(RAPAPORT).rows == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert exponent_matrix(POINCARE).rows == ((2, 1), (3, 2))
    empty = exponent_matrix(parse_presentation("< | >"))
    assert (empty.nrows, empty.ncols) == (0, 0)


def test_determinant_examples():
    assert determinant(IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])) == 1
    assert determinant(IntMatrix([[2, 1], [3, 2]])) == 1
    assert determinant(identity(4)) == 1
    assert determinant(IntMatrix([], ncols=0)) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix([[1, 2]]))


def test_determinant_against_cofactor_expansion():
    rng = random.Random(17)
    for _ in range(10_000):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, n)
        assert determinant(IntMatrix(rows)) == cofactor_det(rows)


def test_determinant_large_entries_exact():
    # entries big enough that float arithmetic would go wrong
    big = 10**30
    a = IntMatrix([[big, big - 1], [big + 1, big]])
    assert determinant(a) == big * big - (big - 1) * (big + 1)  # == 1


def check_snf(a):
    facs, u, v = smith_normal_form(a)
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    d = (sympy_matrix(u) * sympy_matrix(a) * sympy_matrix(v)).to_list()
    for i in range(a.nrows):
        for j in range(a.ncols):
            expected = facs[i] if i == j and i < len(facs) else 0
            assert d[i][j] == expected
    assert all(f >= 0 for f in facs)
    nonzero = [f for f in facs if f != 0]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros, if any, come after all nonzero factors
    assert list(facs) == nonzero + [0] * (len(facs) - len(nonzero))
    return facs


@pytest.mark.parametrize("n, k, m", [(0, 3, 1), (2, 0, 4), (3, 0, 0), (0, 0, 2), (2, 3, 2), (1, 4, 3)])
def test_transpose_and_product_of_every_shape(n, k, m):
    rng = random.Random(100 * n + 10 * k + m)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)], ncols=k)
    t = a.transpose()
    assert (t.nrows, t.ncols) == (k, n) and t.transpose() == a
    assert all(t.rows[j][i] == a.rows[i][j] for i in range(n) for j in range(k))


def test_snf_examples():
    assert check_snf(identity(3)) == (1, 1, 1)
    assert check_snf(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert check_snf(exponent_matrix(RAPAPORT)) == (1, 1, 1)


def test_snf_random_postconditions():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)], ncols=m)
        check_snf(a)


def test_is_perfect_examples():
    assert is_perfect_presentation(POINCARE)
    assert is_perfect_presentation(RAPAPORT)
    assert not is_perfect_presentation(parse_presentation("< a | >"))
    assert not is_perfect_presentation(parse_presentation("< a, b | a b >"))
    assert is_perfect_presentation(parse_presentation("< | >"))


def test_is_perfect_higman_family():
    # r_i = a_i^-1 a_{i+1}^-1 a_i a_{i+1}^2 has exponent row e_{i+1}: a shift
    # permutation matrix, det +-1
    for m in (4, 5, 6):
        assert is_perfect_presentation(higman_presentation(m, variant=(1, 2)))
        assert is_perfect_presentation(higman_presentation(m, variant=(2, 3)))


def test_perfect_invariant_under_reordering():
    rng = random.Random(29)
    base = POINCARE
    for _ in range(20):
        gens = list(base.generators)
        rng.shuffle(gens)
        perm = {old + 1: gens.index(name) + 1 for old, name in enumerate(base.generators)}
        relators = [
            tuple((1 if x > 0 else -1) * perm[abs(x)] for x in r) for r in base.relators
        ]
        rng.shuffle(relators)
        q = type(base)(tuple(gens), tuple(relators))
        assert is_perfect_presentation(q)


def test_matrix_text_round_trip():
    a = IntMatrix([[0, -2, 3], [41, 5, -6]])
    assert matrix_from_text(matrix_to_text(a)) == a
    b = IntMatrix([], ncols=3)
    assert matrix_from_text(matrix_to_text(b)) == b
    assert matrix_to_text(a).splitlines()[0] == "2 3"


@pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (2, 0), (5, 0), (0, 1), (0, 4), (1, 1), (2, 3), (4, 2)])
def test_matrix_text_round_trip_every_shape(n, m):
    rng = random.Random(n * 10 + m)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], ncols=m)
    b = matrix_from_text(matrix_to_text(a))
    assert b == a and (b.nrows, b.ncols) == (n, m)


def test_matrix_text_zero_columns_keeps_the_row_check():
    # n x 0 reads back from the header alone, but a row with entries is still refused
    assert matrix_from_text("3 0\n").nrows == 3
    with pytest.raises(ValueError, match="expected 0 entries per row, got 1"):
        matrix_from_text("1 0\n5\n")


def test_intmatrix_refuses_ragged_rows_and_a_wrong_ncols():
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ncols=2 does not match row width 1"):
        IntMatrix([[1]], ncols=2)


def test_only_a_well_formed_int_is_called_past_the_digit_limit():
    # a sign, then digits past the limit, is well formed; two signs are not
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(ValueError, match=f"^line 2: an entry of {digits} digits is past the limit"):
        matrix_from_text(f"1 1\n-{'9' * digits}\n")
    with pytest.raises(ValueError, match="^line 2: invalid literal for int\\(\\) with base 10: '\\+-5'$"):
        matrix_from_text("1 1\n+-5\n")


def reference_snf(a):
    """The earlier three-matrix elimination: the same pivots, quotients,
    swaps and witness rows, with M, U and V kept apart and no early exits."""
    n, m = a.nrows, a.ncols
    M: List[List[int]] = [list(r) for r in a.rows]
    U: List[List[int]] = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V: List[List[int]] = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_addmul(src, dst, c):
        M[dst] = [x + c * y for x, y in zip(M[dst], M[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def col_addmul(src, dst, c):
        for row in M:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(n, m):
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = M[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            dirty = False
            for i in range(n):
                if i == t or M[i][t] == 0:
                    continue
                row_addmul(t, i, -(M[i][t] // M[t][t]))
                if M[i][t] != 0:
                    row_swap(t, i)
                    dirty = True
            if dirty:
                continue
            for j in range(m):
                if j == t or M[t][j] == 0:
                    continue
                col_addmul(t, j, -(M[t][j] // M[t][t]))
                if M[t][j] != 0:
                    col_swap(t, j)
                    dirty = True
            if dirty:
                continue
            witness = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if M[i][j] % M[t][t] != 0:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            row_addmul(witness, t, 1)
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    factors = tuple(M[i][i] for i in range(min(n, m)))
    return factors, IntMatrix(U, ncols=n), IntMatrix(V, ncols=m)


def snf_triple(a, snf=smith_normal_form):
    facs, u, v = snf(a)
    return facs, u.rows, v.rows


def test_snf_matches_reference_on_random_matrices():
    # where the pivot does not divide an entry, a gcd step replaces the
    # reference's floor division and swap, so U and V may differ; the
    # factors are equal and U and V are checked on their own
    rng = random.Random(31)
    for _ in range(3000):
        n = rng.randint(0, 6)
        m = rng.randint(0, 6)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], ncols=m)
        factors = check_snf(a)
        assert factors == reference_snf(a)[0], a
        assert invariant_factors(a) == factors, a


@pytest.mark.parametrize("variant", [(1, 2), (2, 3)])
def test_snf_matches_reference_on_higman(variant):
    for m in range(4, 51):
        a = exponent_matrix(higman_presentation(m, variant=variant))
        assert snf_triple(a) == snf_triple(a, reference_snf), m


def test_snf_factors_match_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    rng = random.Random(37)
    for _ in range(500):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        expected = [int(f) for f in normalforms.invariant_factors(Matrix(rows), domain=ZZ)]
        expected += [0] * (min(n, m) - len(expected))
        assert invariant_factors(IntMatrix(rows, ncols=m)) == tuple(expected), rows


def dense_matrix(n, hi=9):
    rng = random.Random(7)
    return IntMatrix([[rng.randint(-hi, hi) for _ in range(n)] for _ in range(n)])


def test_snf_stays_small_on_a_dense_matrix():
    # floor division with swaps and restarts reached 211,832-bit entries
    # of U and V here, after 12 s; gcd steps stay near 550 bits
    a = dense_matrix(12)
    check_snf(a)
    _, u, v = smith_normal_form(a)
    assert max(abs(x).bit_length() for w in (u, v) for r in w.rows for x in r) <= 1000


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("hi", [9, 99])
def test_snf_factors_match_sympy_on_dense_matrices(n, hi):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    a = dense_matrix(n, hi)
    expected = [int(f) for f in normalforms.invariant_factors(Matrix(a.rows), domain=ZZ)]
    assert check_snf(a) == tuple(expected + [0] * (n - len(expected)))


def test_perfect_higman_600_is_fast():
    # a unit pivot ends the pivot scan at its row and skips the
    # divisibility scan; two full block scans per pivot took about 11.6 s
    p = higman_presentation(600)
    t0 = time.process_time()
    assert is_perfect_presentation(p)
    assert time.process_time() - t0 < 3.0


def test_matrix_header_past_the_entry_bound():
    for header in (f"{MAX_LETTERS + 1} 0", f"0 {MAX_LETTERS + 1}", "1001 1000"):
        n, m = header.split()
        with pytest.raises(ValueError, match=f"^the matrix would be {n} x {m}; a matrix holds at most {MAX_LETTERS} entries"):
            matrix_from_text(header + "\n")
    assert matrix_from_text("1000 0\n").nrows == 1000


def test_smith_normal_form_refuses_a_transform_past_the_entry_bound():
    # U of a 1000 x 0 matrix holds exactly the bound's 10^6 entries
    factors, u, v = smith_normal_form(IntMatrix([[]] * 1000, ncols=0))
    assert factors == () and u.nrows == 1000 and v.nrows == 0
    with pytest.raises(ValueError, match="^U or V of a 0 x 1001 matrix would be 1001 x 1001"):
        smith_normal_form(IntMatrix([], ncols=1001))


def test_matrix_text_comments_on_every_line():
    a = IntMatrix([[1, 2], [3, 4]])
    assert matrix_from_text("# lead\n2 2 # header\n1 2 # row\n\n3 4#\n") == a
    with pytest.raises(ValueError, match="^expected 'n m' header, got '2'$"):
        matrix_from_text("2 # 2\n")


def test_decimal_digits_counts_exactly_around_each_power_of_ten():
    for k in range(1, 400):
        for x in (10**k - 1, 10**k, 2 ** (k * 10 // 3)):
            assert _decimal_digits(x) == _decimal_digits(-x) == len(str(x)), x
    assert _decimal_digits(0) == 1
