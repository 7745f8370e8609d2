"""Independent checks of every operation's output.

Nothing here imports ``acforge``: presentations, certificates, coset tables
and permutation witnesses are parsed, replayed and evaluated by this file's
own code, and results are compared with facts computed apart from the
program (the seeded matrix, n! for S_n, |A_5| = 60, the caps) or with
properties the method must have.  The checks run in the parent process
after the measured process has exited, so they never enter its timings or
its peak memory.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from inputs import exponent_matrix, free_reduce

Pres = Tuple[Tuple[str, ...], List[List[int]]]

_TOKEN = re.compile(r"\s*(?:(#[^\n]*)|([A-Za-z][A-Za-z0-9_]*)|(-?\d+)|([<>|,^]))")


class CheckError(ValueError):
    pass


# --- presentations ------------------------------------------------------------


def _tokens(text: str) -> List[str]:
    out, i = [], 0
    text = text.rstrip()
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.end() == i:
            raise CheckError(f"cannot read {text[i:i + 20]!r}")
        i = m.end()
        if not m.group(1):
            out.append(m.group(2) or m.group(3) or m.group(4))
    return out


def _word(toks: List[str], pos: int, index: Dict[str, int]) -> Tuple[List[int], int]:
    if toks[pos] == "1":
        return [], pos + 1
    letters: List[int] = []
    while pos < len(toks) and toks[pos] in index:
        g = index[toks[pos]]
        pos += 1
        exp = 1
        if pos < len(toks) and toks[pos] == "^":
            exp = int(toks[pos + 1])
            pos += 2
        letters += [g if exp > 0 else -g] * abs(exp)
    return letters, pos


def parse_word(text: str, names: Sequence[str]) -> List[int]:
    toks = _tokens(text)
    letters, pos = _word(toks, 0, {n: i + 1 for i, n in enumerate(names)})
    if pos != len(toks):
        raise CheckError(f"bad word {text!r}")
    return free_reduce(letters)


def parse_pres(text: str, reduce: bool = True) -> Pres:
    toks = _tokens(text)
    if toks[0] != "<":
        raise CheckError("presentation must start with '<'")
    pos, names = 1, []
    while toks[pos] not in ("|",):
        if toks[pos] != ",":
            names.append(toks[pos])
        pos += 1
    pos += 1
    index = {n: i + 1 for i, n in enumerate(names)}
    rels = []
    while toks[pos] != ">":
        w, after = _word(toks, pos, index)
        if after == pos:
            raise CheckError(f"unexpected {toks[pos]!r}")
        pos = after
        rels.append(free_reduce(w) if reduce else w)
        if toks[pos] == ",":
            pos += 1
    if pos != len(toks) - 1:
        raise CheckError("trailing text after '>'")
    return tuple(names), rels


def read_pres(path: Path, reduce: bool = True) -> Pres:
    return parse_pres(path.read_text(), reduce)


def transpose(rows: List[List[int]]) -> List[List[int]]:
    return [list(c) for c in zip(*rows)] if rows else []


# --- certificates ---------------------------------------------------------------


def _fresh_name(names: Sequence[str]) -> str:
    k = 1
    while f"x{k}" in names:
        k += 1
    return f"x{k}"


def replay_certificate(text: str) -> Tuple[Pres, Pres, int]:
    """Replay a certificate from its START; returns (start, end, moves).

    Raises CheckError when a move does not apply or the replay does not
    reach the END line.  Move semantics follow the certificate format:
    relators are kept freely reduced, so pair insertion and deletion change
    nothing, and a cyclic shift reduces the rotated word.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2 or not lines[0].startswith("START ") or not lines[-1].startswith("END "):
        raise CheckError("certificate needs START and END lines")
    start = parse_pres(lines[0][6:])
    end = parse_pres(lines[-1][4:])
    names = list(start[0])
    rels = [list(r) for r in start[1]]

    def rel(i: int) -> List[int]:
        if not 1 <= i <= len(rels):
            raise CheckError(f"relator {i} out of range")
        return rels[i - 1]

    for line in lines[1:-1]:
        op, *args = line.split()
        if op == "CYC":
            i, k = int(args[0]), int(args[1])
            w = rel(i)
            if w:
                k %= len(w)
                rels[i - 1] = free_reduce(w[k:] + w[:k])
        elif op == "INV":
            i = int(args[0])
            rels[i - 1] = [-x for x in reversed(rel(i))]
        elif op in ("MULR", "MULRI"):
            i, j = int(args[0]), int(args[1])
            if i == j:
                raise CheckError("relator multiplied by itself")
            other = rel(j) if op == "MULR" else [-x for x in reversed(rel(j))]
            w = rel(i)
            k = 0
            while w and k < len(other) and w[-1] == -other[k]:
                w.pop()
                k += 1
            w.extend(other[k:])
        elif op == "STAB":
            word = parse_word(line[4:].strip(), names)
            names.append(_fresh_name(names))
            rels.append([len(names)] + word)
        elif op == "DESTAB":
            g, i = int(args[0]), int(args[1])
            w = rel(i)
            if g != len(names) or not w or w[0] != g or any(abs(x) == g for x in w[1:]):
                raise CheckError(f"DESTAB {g} {i} does not apply")
            if any(abs(x) == g for k, r in enumerate(rels, 1) if k != i for x in r):
                raise CheckError(f"DESTAB {g}: generator still in use")
            names.pop()
            del rels[i - 1]
        elif op in ("INSPAIR", "DELPAIR"):
            i, p = int(args[0]), int(args[1])
            if not 0 <= p <= len(rel(i)):
                raise CheckError(f"{op} position out of range")
            if op == "INSPAIR" and not 1 <= int(args[2]) <= len(names):
                raise CheckError("INSPAIR generator out of range")
        else:
            raise CheckError(f"unknown move {op!r}")
    reached = (tuple(names), rels)
    if reached != end:
        raise CheckError("replay does not reach the END presentation")
    return start, end, len(lines) - 2


EMPTY: Pres = ((), [])


# --- permutations and coset tables ------------------------------------------------


def parse_cycles(text: str, degree: int) -> List[int]:
    image = list(range(degree))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        pts = [int(x) - 1 for x in cyc.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            image[a] = b
    if sorted(image) != list(range(degree)):
        raise CheckError(f"{text!r} is not a permutation")
    return image


def _apply_word(word: Sequence[int], images: Sequence[Sequence[int]], inverses, point: int) -> int:
    for x in word:
        point = images[x - 1][point] if x > 0 else inverses[-x - 1][point]
    return point


def _closure_order(gens: Sequence[Sequence[int]]) -> int:
    degree = len(gens[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _inverse(p: Sequence[int]) -> List[int]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return out


# --- per-operation checks ----------------------------------------------------------


def _check_stdout(op, out, work):
    if out != op["check"]["text"]:
        return [f"stdout {out[:80]!r}, expected {op['check']['text']!r}"]
    return []


def _check_capped_search(op, out, work):
    cap = op["check"]["cap"]
    lines = out.splitlines()
    if (
        len(lines) != 4
        or lines[0] != "NOT-FOUND"
        or lines[1] != f"STATES-SEEN {cap}"
        or not re.fullmatch(r"STATES-EXPANDED \d+", lines[2])
        or lines[3] != "LIMIT states"
    ):
        return [f"capped search printed {lines!r}"]
    return []


def _check_found_search(op, out, work):
    c = op["check"]
    lines = out.splitlines()
    m = re.fullmatch(r"FOUND depth=(\d+) moves=(\d+) states-seen=(\d+) states-expanded=(\d+)", lines[0])
    if not m or lines[1:] != [f"WROTE {c['cert']}"]:
        return [f"search printed {lines!r}"]
    start, end, moves = replay_certificate((work / c["cert"]).read_text())
    problems = []
    if start != read_pres(work / c["input"]):
        problems.append("certificate START is not the input presentation")
    if end != EMPTY:
        problems.append("certificate END is not the empty presentation")
    if moves != int(m.group(2)):
        problems.append(f"certificate has {moves} moves, stdout says {m.group(2)}")
    return problems


def _check_lemma2(op, out, work):
    c = op["check"]
    d = work / c["dir"]
    pres_text = (d / "presentation.pres").read_text()
    pres = parse_pres(pres_text)
    letters = sum(len(r) for r in pres[1])
    expected = [pres_text.rstrip("\n"), f"LETTERS {letters}", f"WROTE {c['dir']}/presentation.pres", f"WROTE {c['dir']}/build.cert"]
    problems = []
    if out.splitlines() != expected:
        problems.append(f"lemma2 printed {out.splitlines()[1:]!r}")
    if exponent_matrix(pres) != c["matrix"]:
        problems.append("exponent matrix differs from the seeded matrix")
    start, end, _ = replay_certificate((d / "build.cert").read_text())
    if start != EMPTY or end != pres:
        problems.append("build.cert does not lead from the empty presentation to the output")
    return problems


def _check_theorem3(op, out, work):
    c = op["check"]
    d = work / c["dir"]
    source = read_pres(d / "source.pres")
    aug_names, aug = read_pres(d / "augmented.pres", reduce=False)
    dual = read_pres(d / "dual.pres")
    problems = []
    if source != read_pres(work / c["input"]):
        problems.append("source.pres is not the input")
    if (aug_names, [free_reduce(r) for r in aug]) != source:
        problems.append("augmented.pres does not reduce to source.pres")
    if exponent_matrix(dual) != transpose(exponent_matrix(source)):
        problems.append("dual.pres's exponent matrix is not the transpose of source.pres's")
    # the witness orders every occurrence of each generator and spells the dual
    occurrences = [[] for _ in aug_names]
    for j, r in enumerate(aug, start=1):
        for pos, x in enumerate(r):
            occurrences[abs(x) - 1].append((j, pos, 1 if x > 0 else -1))
    witness = [
        [(int(j), int(p), 1 if s == "+" else -1) for j, p, s in (t.split(":") for t in line.split())]
        for line in (d / "witness.txt").read_text().splitlines()
    ]
    if len(witness) != len(occurrences) or any(sorted(w) != sorted(o) for w, o in zip(witness, occurrences)):
        problems.append("witness is not an ordering of the augmented occurrences")
    elif [free_reduce([s * j for j, _, s in w]) for w in witness] != dual[1]:
        problems.append("dual.pres is not spelled by the witness")
    start, end, moves = replay_certificate((d / "trivialization.cert").read_text())
    if start != EMPTY or end != dual:
        problems.append("trivialization.cert does not lead from the empty presentation to dual.pres")
    lines = out.splitlines()
    if len(lines) != 3 or lines[0] != f"WROTE {c['dir']}" or not lines[1].startswith("DUAL "):
        problems.append(f"theorem3 printed {lines!r}")
    elif parse_pres(lines[1][5:]) != dual or lines[2] != f"MOVES {moves}":
        problems.append("printed DUAL or MOVES disagree with the bundle")
    return problems


def _check_coxeter_table(op, out, work):
    n = op["check"]["n"]
    names, rels = read_pres(work / op["check"]["input"])
    order = math.factorial(n)
    lines = out.splitlines()
    if lines[0] != f"ORDER {order}" or len(lines) != order + 1:
        return [f"table has {len(lines) - 1} rows, expected {order}"]
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        label, _, rest = line.partition(": ")
        row = [int(x) - 1 for x in rest.split()]
        if label != str(i) or len(row) != 2 * len(names):
            return [f"malformed table row {line[:40]!r}"]
        rows.append(row)
    images, inverses = [], []
    for g in range(len(names)):
        fwd = [row[2 * g] for row in rows]
        back = [row[2 * g + 1] for row in rows]
        if sorted(fwd) != list(range(order)):
            return [f"generator {names[g]} does not act as a permutation"]
        if back != _inverse(fwd):
            return [f"inverse column of {names[g]} is not the inverse permutation"]
        images.append(fwd)
        inverses.append(back)
    for r in rels:
        for c in range(order):
            if _apply_word(r, images, inverses, c) != c:
                return [f"a relator does not return coset {c + 1} to itself"]
    return []


def _check_witness(op, out, work):
    names, rels = read_pres(work / op["check"]["input"])
    lines = out.splitlines()
    m = re.fullmatch(r"DEGREE (\d+)", lines[0])
    if not m or len(lines) != len(names) + 2:
        return [f"quotient printed {lines!r}"]
    degree = int(m.group(1))
    images = []
    for name, line in zip(names, lines[1:-1]):
        label, _, cycles = line.partition(" -> ")
        if label != name:
            return [f"witness line {line!r} is not for generator {name}"]
        images.append(parse_cycles(cycles, degree))
    inverses = [_inverse(p) for p in images]
    problems = []
    if all(p == list(range(degree)) for p in images):
        problems.append("all images are the identity")
    if any(_apply_word(r, images, inverses, x) != x for r in rels for x in range(degree)):
        problems.append("a relator is not the identity on the images")
    order = _closure_order(images)
    if order != op["check"]["image_order"] or lines[-1] != f"IMAGE-ORDER {order}":
        problems.append(f"images generate a group of order {order}, stdout says {lines[-1]!r}")
    return problems


def _check_no_problems(op, out, work):
    return [] if out == "[]" else [f"library check reported {out}"]


CHECKS = {
    "stdout": _check_stdout,
    "capped-search": _check_capped_search,
    "found-search": _check_found_search,
    "lemma2": _check_lemma2,
    "theorem3": _check_theorem3,
    "coxeter-table": _check_coxeter_table,
    "witness": _check_witness,
    "no-problems": _check_no_problems,
}


def check_op(op: Dict, result: Dict, work: Path) -> List[str]:
    """Problems with one operation's final output (empty when it is right)."""
    problems = []
    codes = set(result["rc"])
    if op["rc"] is not None and codes != {op["rc"]}:
        problems.append(f"exit codes {sorted(codes)}, expected {op['rc']}")
    if len(set(result["stdout_hashes"])) != 1:
        problems.append("stdout differs between repetitions")
    if len(set(result["artefact_hashes"])) != 1:
        problems.append("written files differ between repetitions")
    try:
        problems += CHECKS[op["check"]["type"]](op, result["stdout"], work)
    except (CheckError, OSError, ValueError, IndexError, KeyError) as e:
        problems.append(f"{type(e).__name__}: {e}")
    return problems


def is_failed(error, rc) -> bool:
    """An operation failed when it gave no verdict: it raised, or exited 2."""
    return error is not None or rc == 2
