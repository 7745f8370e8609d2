"""Slow and mutation checks of the benchmark's own checker.

Kept out of the per-run checks (they take tens of seconds, or need sympy)
and out of the repository's test suite.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402
from sympy.combinatorics.fp_groups import FpGroup, low_index_subgroups  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402


def _fp_group(p):
    names, rels = p
    F, *gens = free_group(",".join(names))
    words = []
    for r in rels:
        w = F.identity
        for x in r:
            w *= gens[abs(x) - 1] ** (1 if x > 0 else -1)
        words.append(w)
    return FpGroup(F, words)


def test_rapaport_has_no_quotient_of_degree_5():
    """`quotient --max-degree 5` reports EXHAUSTED on Rapaport: every subgroup
    of index at most 5 is the whole group (about 20 s)."""
    subgroups = low_index_subgroups(_fp_group(inputs.RAPAPORT), 5)
    assert all(len(table.table) == 1 for table in subgroups)


@pytest.mark.parametrize("n", [4, 5])
def test_coxeter_presentation_orders(n):
    rng = random.Random(n)
    assert _fp_group(inputs.relabel(inputs.coxeter_symmetric(n), rng)).order() == sympy.factorial(n)


def test_poincare_images_generate_a5():
    # a -> (1 2 3 4 5), b -> (2 3 5): a witness of the shape `quotient` prints
    images = [check.parse_cycles("(1 2 3 4 5)", 5), check.parse_cycles("(2 3 5)", 5)]
    assert check._closure_order(images) == 60
    assert PermutationGroup([Permutation(p) for p in images]).order() == 60


def _lemma2_certificate():
    from acforge.intmatrix import IntMatrix
    from acforge.lemma2 import presentation_from_matrix
    from acforge.moves import format_certificate

    matrix = [[2, 1, 1], [1, 1, 0], [3, 2, 2]]
    p, cert = presentation_from_matrix(IntMatrix(matrix, ncols=3))
    return matrix, format_certificate(cert)


def test_replayer_accepts_program_certificates():
    pytest.importorskip("acforge")
    matrix, text = _lemma2_certificate()
    start, end, moves = check.replay_certificate(text)
    assert start == check.EMPTY and inputs.exponent_matrix(end) == matrix and moves > 3


def test_replayer_rejects_a_changed_move():
    pytest.importorskip("acforge")
    _, text = _lemma2_certificate()
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("MULR "))
    i, j = lines[k].split()[1:]
    lines[k] = f"MULRI {i} {j}"
    with pytest.raises(check.CheckError):
        check.replay_certificate("\n".join(lines))


def test_table_check_rejects_a_wrong_table(tmp_path):
    n = 3
    names, rels = inputs.coxeter_symmetric(n)
    (tmp_path / "c.pres").write_text(inputs.format_pres((names, rels)))
    # the regular action of S_3 = <s1, s2> on itself, then one entry broken
    perms = [(1, 0, 3, 2, 5, 4), (2, 4, 0, 5, 1, 3)]
    good = "ORDER 6\n" + "".join(
        f"{c + 1}: " + " ".join(f"{p[c] + 1} {check._inverse(p)[c] + 1}" for p in perms) + "\n" for c in range(6)
    )
    op = {"check": {"n": n, "input": "c.pres"}}
    assert check._check_coxeter_table(op, good, tmp_path) == []
    bad = good.replace("1: 2 2", "1: 3 2", 1)
    assert check._check_coxeter_table(op, bad, tmp_path)
