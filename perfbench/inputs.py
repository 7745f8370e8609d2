"""Seeded inputs and the operation list of each workload.

Everything here is the benchmark's own code; nothing imports ``acforge``.
A plan is a JSON-able dict: the input files to write and the operations to
run, each with the exit code and the checks its output must pass.  The same
seed gives the same plan.  Seeds change the content of inputs (labels,
relator order and rotation, shear sizes, matrices) but keep the amount of
work nearly constant, so that timings from different seeds are comparable.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Sequence, Tuple

Pres = Tuple[Tuple[str, ...], List[List[int]]]

WORKLOADS = ("search", "certify", "finite")

TRIVIAL23 = (("a", "b"), [[-1, -2, -2, 1, 2, 2, 2], [-2, -1, -1, 2, 1, 1, 1]])
AK2 = (("x", "y"), [[1, 1, -2, -2, -2], [1, 2, 1, -2, -1, -2]])
DUAL_POINCARE = (("alpha", "beta"), [[1, 1, 2, 2, 2], [-1, -2, -2]])
# the aligned dual that `theorem3` builds for Poincare's presentation
ALIGNED_DUAL_POINCARE = (("x1", "x2"), [[1, 2, 2, 1, 2], [2, 1, 2]])
POINCARE = (("a", "b"), [[1, 2, 2, 1, -2], [1, 1, 1, 1, 2, -1, 2]])
RAPAPORT = (
    ("a", "b", "c"),
    [[-2, -3, -3, 2, 3, 3, 3], [-3, -1, -1, 3, 1, 1, 1], [-1, -2, -2, 1, 2, 2, 2]],
)

SEARCH_CAPS = {"trivial23": 1000, "ak2": 3000}
SHEAR_BASE = 1000  # the shear is [[1, k], [0, 1]] with k in 1000..1024
SHEAR_SPREAD = 24
DENSE_COUNT, DENSE_N, DENSE_OPS, DENSE_BOUND = 4, 3, 8, 2
COXETER_ORDERS = (5, 6, 7)
COXETER_TABLE = 7
RAPAPORT_CAP = 100_000
HIGMAN_CAP = 20_000
QUOTIENT_DEGREE = 5
FAULT_GENERATORS = 1100

NAME_POOL = ("a", "b", "c", "d", "g", "h", "p", "q", "r", "s", "t", "u", "v", "w", "y", "z")


# --- presentations ------------------------------------------------------------


def free_reduce(letters: Sequence[int]) -> List[int]:
    out: List[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def format_word(w: Sequence[int], names: Sequence[str]) -> str:
    if not w:
        return "1"
    parts = []
    for letter, run in itertools.groupby(w):
        k = len(list(run))
        exp = k if letter > 0 else -k
        name = names[abs(letter) - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def format_pres(p: Pres) -> str:
    names, rels = p
    return f"< {', '.join(names)} | {', '.join(format_word(r, names) for r in rels)} >"


def higman(m: int, variant: Tuple[int, int]) -> Pres:
    """r_i = a_i^-1 a_{i+1}^-p a_i a_{i+1}^q, indices mod m."""
    p, q = variant
    rels = []
    for i in range(1, m + 1):
        nxt = i % m + 1
        rels.append([-i] + [-nxt] * p + [i] + [nxt] * q)
    return tuple(f"a{i}" for i in range(1, m + 1)), rels


def coxeter_symmetric(n: int) -> Pres:
    """Coxeter presentation of S_n on s_1..s_{n-1}."""
    rels = [[i, i] for i in range(1, n)]
    rels += [[i, i + 1] * 3 for i in range(1, n - 1)]
    rels += [[i, j, i, j] for i in range(1, n) for j in range(i + 2, n)]
    return tuple(f"s{i}" for i in range(1, n)), rels


def relabel(p: Pres, rng: random.Random, order: str = "any") -> Pres:
    """The same group under new generator names, with each relator rotated
    and perhaps inverted.  ``order`` says what else may change: "any"
    shuffles generators and relators; "cyclic" rotates the generator
    indices, a symmetry of the cyclic families (Rapaport, Higman), and
    shuffles relators; "keep" changes neither, so that a search, which
    brings every relator to a canonical rotation first, does the same work
    for every seed."""
    names, rels = p
    m = len(names)
    perm = list(range(1, m + 1))
    if order == "any":
        rng.shuffle(perm)
    elif order == "cyclic":
        shift = rng.randrange(m)
        perm = [(i + shift) % m + 1 for i in range(m)]
    new_index = {g: k + 1 for k, g in enumerate(perm)}  # old generator -> new position
    if m <= 4:
        new_names = tuple(rng.sample(NAME_POOL, m))
    else:
        prefix = rng.choice(("a", "g", "t"))
        new_names = tuple(f"{prefix}{k}" for k in range(1, m + 1))
    out = []
    for r in rels:
        w = [new_index[abs(x)] * (1 if x > 0 else -1) for x in r]
        k = rng.randrange(len(w))
        w = w[k:] + w[:k]
        if rng.random() < 0.5:
            w = [-x for x in reversed(w)]
        out.append(free_reduce(w))
    if order != "keep":
        rng.shuffle(out)
    return new_names, out


def exponent_matrix(p: Pres) -> List[List[int]]:
    names, rels = p
    rows = []
    for r in rels:
        row = [0] * len(names)
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


# --- matrices -----------------------------------------------------------------


def lemma2_presentation(n: int, ops: Sequence[Tuple[int, int]]) -> Pres:
    """The paper's Lemma 2 construction: start from < x1..xn | x1..xn > and
    mirror each row operation on the relators.  ``(s, t)`` with s != t adds
    row s to row t (r_t <- r_t r_s); ``(s, s)`` negates row s (r_s <- r_s^-1)."""
    rels = [[i] for i in range(1, n + 1)]
    for s, t in ops:
        if s == t:
            rels[s - 1] = [-x for x in reversed(rels[s - 1])]
        else:
            rels[t - 1] = free_reduce(rels[t - 1] + rels[s - 1])
    return tuple(f"x{i}" for i in range(1, n + 1)), rels


def small_lemma2_ops() -> List[Tuple[Tuple[int, int], ...]]:
    """Three-step row-operation sequences on 2x2 whose Lemma-2 presentation
    has 3 to 5 letters; `acsearch` solves each within ~500 states."""
    steps = ((1, 2), (2, 1), (1, 1), (2, 2))
    pool = []
    for seq in itertools.product(steps, repeat=3):
        _, rels = lemma2_presentation(2, seq)
        if 3 <= sum(len(r) for r in rels) <= 5 and seq[-1][0] != seq[-1][1]:
            pool.append(seq)
    return pool


def dense_matrix(rng: random.Random) -> List[List[int]]:
    """Product of DENSE_OPS seeded signed row additions, entries at most
    DENSE_BOUND in size and at most one zero entry."""
    n = DENSE_N
    while True:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(DENSE_OPS):
            s, t = rng.sample(range(n), 2)
            sign = rng.choice((1, -1))
            rows[t] = [a + sign * b for a, b in zip(rows[t], rows[s])]
        entries = [x for r in rows for x in r]
        if max(map(abs, entries)) <= DENSE_BOUND and entries.count(0) <= 1:
            return rows


def format_matrix(rows: List[List[int]]) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "\n".join(" ".join(map(str, r)) for r in rows)


# --- plans --------------------------------------------------------------------


def _op(op_id, kind, argv=None, rc=0, check=None, artefacts=(), **extra) -> Dict:
    op = {"id": op_id, "kind": kind, "rc": rc, "check": check or {}, "artefacts": list(artefacts)}
    if argv is not None:
        op["argv"] = list(argv)
    op.update(extra)
    return op


def _search_plan(rng: random.Random):
    files, ops = {}, []
    for name, base in (("ak2", AK2), ("trivial23", TRIVIAL23)):
        files[f"{name}.pres"] = format_pres(relabel(base, rng, "keep"))
        cap = SEARCH_CAPS[name]
        ops.append(
            _op(
                f"acsearch-capped/{name}",
                "solve",
                ["acsearch", f"{name}.pres", "--max-states", str(cap)],
                rc=1,
                check={"type": "capped-search", "cap": cap},
            )
        )
    found = [
        ("dual_poincare", relabel(DUAL_POINCARE, rng, "keep")),
        ("aligned_dual_poincare", relabel(ALIGNED_DUAL_POINCARE, rng, "keep")),
    ]
    for k, seq in enumerate(small_lemma2_ops(), start=1):
        found.append((f"lemma2_small{k}", relabel(lemma2_presentation(2, seq), rng, "keep")))
    for name, pres in found:
        files[f"{name}.pres"] = format_pres(pres)
        ops.append(
            _op(
                f"acsearch/{name}",
                "solve",
                ["acsearch", f"{name}.pres", "-o", f"{name}.cert"],
                check={"type": "found-search", "input": f"{name}.pres", "cert": f"{name}.cert"},
                artefacts=[f"{name}.cert"],
            )
        )
        ops.append(
            _op(f"verify-cert/{name}", "verify", ["verify-cert", f"{name}.cert"], check={"type": "stdout", "text": "OK\n"})
        )
    return files, ops


def _certify_chain(name: str, matrix) -> List[Dict]:
    d = name
    return [
        _op(
            f"lemma2/{name}",
            "solve",
            ["lemma2", f"{name}.mat", "-o", d],
            check={"type": "lemma2", "matrix": matrix, "dir": d},
            artefacts=[f"{d}/presentation.pres", f"{d}/build.cert"],
        ),
        _op(f"verify-cert/{name}", "verify", ["verify-cert", f"{d}/build.cert"], check={"type": "stdout", "text": "OK\n"}),
    ] + _theorem3_pair(name, f"{d}/presentation.pres", f"{d}/bundle")


def _theorem3_pair(name: str, pres_file: str, bundle: str) -> List[Dict]:
    return [
        _op(
            f"theorem3/{name}",
            "solve",
            ["theorem3", pres_file, "-o", bundle],
            check={"type": "theorem3", "input": pres_file, "dir": bundle},
            artefacts=[f"{bundle}/{f}" for f in BUNDLE_FILES],
        ),
        _op(f"bundle-check/{name}", "verify", lib="bundle-check", path=bundle, rc=None, check={"type": "no-problems"}),
    ]


BUNDLE_FILES = ("source.pres", "augmented.pres", "witness.txt", "dual.pres", "trivialization.cert")


def _certify_plan(rng: random.Random):
    files, ops = {}, []
    matrix = [[1, SHEAR_BASE + rng.randrange(SHEAR_SPREAD + 1)], [0, 1]]
    files["shear.mat"] = format_matrix(matrix)
    ops += _certify_chain("shear", matrix)
    for k in range(1, DENSE_COUNT + 1):
        matrix = dense_matrix(rng)
        files[f"dense{k}.mat"] = format_matrix(matrix)
        ops += _certify_chain(f"dense{k}", matrix)
    e = rng.randrange(11)
    perfect = [
        ("poincare", relabel(POINCARE, rng)),
        ("rapaport", relabel(RAPAPORT, rng, "cyclic")),
        (f"higman{20 + e}", relabel(higman(20 + e, (1, 2)), rng, "cyclic")),
        (f"higman23_{30 - e}", relabel(higman(30 - e, (2, 3)), rng, "cyclic")),
    ]
    for name, pres in perfect:
        files[f"{name}.pres"] = format_pres(pres)
        ops += _theorem3_pair(name, f"{name}.pres", f"{name}_bundle")
    return files, ops


def _finite_plan(rng: random.Random):
    files, ops = {}, []
    files["rapaport.pres"] = format_pres(relabel(RAPAPORT, rng, "cyclic"))
    hm, h23m = 4 + rng.randrange(3), 4 + rng.randrange(3)
    files["higman.pres"] = format_pres(relabel(higman(hm, (1, 2)), rng, "cyclic"))
    files["higman23.pres"] = format_pres(relabel(higman(h23m, (2, 3)), rng, "cyclic"))
    files["higman4.pres"] = format_pres(relabel(higman(4, (1, 2)), rng, "cyclic"))
    files["poincare.pres"] = format_pres(relabel(POINCARE, rng))
    for name, cap in (("rapaport", RAPAPORT_CAP), ("higman", HIGMAN_CAP), ("higman23", HIGMAN_CAP)):
        ops.append(
            _op(
                f"order-capped/{name}",
                "solve",
                ["order", f"{name}.pres", "--max-cosets", str(cap)],
                rc=1,
                check={"type": "stdout", "text": f"CAP-EXCEEDED {cap}\n", "cap": cap},
            )
        )
    for n in COXETER_ORDERS:
        files[f"coxeter{n}.pres"] = format_pres(relabel(coxeter_symmetric(n), rng))
        ops.append(
            _op(f"order/coxeter{n}", "solve", ["order", f"coxeter{n}.pres"], check={"type": "stdout", "text": f"ORDER {math.factorial(n)}\n"})
        )
    n = COXETER_TABLE
    table = f"coxeter{n}.table"
    ops.append(
        _op(
            f"order-table/coxeter{n}",
            "solve",
            ["order", f"coxeter{n}.pres", "--table"],
            check={"type": "coxeter-table", "n": n, "input": f"coxeter{n}.pres"},
            stdout_file=table,
            artefacts=[table],
        )
    )
    ops.append(_op(f"validate-table/coxeter{n}", "verify", lib="validate-table", pres=f"coxeter{n}.pres", table=table, rc=None, check={"type": "no-problems"}))
    ops.append(
        _op(
            "quotient/poincare",
            "solve",
            ["quotient", "poincare.pres", "--max-degree", str(QUOTIENT_DEGREE)],
            check={"type": "witness", "input": "poincare.pres", "image_order": 60},
            stdout_file="poincare.witness",
            artefacts=["poincare.witness"],
        )
    )
    ops.append(_op("verify-witness/poincare", "verify", lib="verify-witness", pres="poincare.pres", witness="poincare.witness", rc=None, check={"type": "no-problems"}))
    for name in ("rapaport", "higman4"):
        ops.append(
            _op(
                f"quotient/{name}",
                "solve",
                ["quotient", f"{name}.pres", "--max-degree", str(QUOTIENT_DEGREE)],
                rc=1,
                check={"type": "stdout", "text": f"EXHAUSTED {QUOTIENT_DEGREE}\n"},
            )
        )
    # a known fault: the recursive backtracker overflows the interpreter
    # stack on many generators.  The right answer is EXHAUSTED 2 (the group
    # is trivial), so a mended program passes this check.
    names = tuple(f"a{i}" for i in range(1, FAULT_GENERATORS + 1))
    files["many_generators.pres"] = format_pres((names, [[i] for i in range(1, FAULT_GENERATORS + 1)]))
    ops.append(
        _op(
            "quotient/many_generators",
            "solve",
            ["quotient", "many_generators.pres", "--max-degree", "2"],
            rc=1,
            check={"type": "stdout", "text": "EXHAUSTED 2\n"},
        )
    )
    return files, ops


def build_plan(workload: str, seed: int) -> Dict:
    rng = random.Random(f"{workload}:{seed}")
    files, ops = {"search": _search_plan, "certify": _certify_plan, "finite": _finite_plan}[workload](rng)
    return {"workload": workload, "seed": seed, "files": files, "ops": ops}
