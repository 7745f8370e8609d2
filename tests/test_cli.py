"""The CLI contract, run in-process through ``main(argv)``: exit code 0 for
success, 1 for a negative or inconclusive verdict, 2 for usage or parse
errors."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from acforge import cli, coset, dual, intmatrix, lemma2, moves, presentation
from acforge.cli import build_parser, main
from acforge.dual import read_bundle, verify_knot_certificate
from acforge.presentation import MAX_LETTERS, parse_presentation
from test_intmatrix import dense_matrix, sympy_matrix

DUAL_POINCARE = "< alpha, beta | alpha^2 beta^3, alpha^-1 beta^-2 >"
AK2 = "< x, y | x^2 y^-3, x y x y^-1 x^-1 y^-1 >"
POINCARE = "< a, b | a b^2 a b^-1, a^4 b a^-1 b >"
RAPAPORT = "< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >"
UNDECLARED = "< a | b >"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        rc = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        return rc, out, err

    return _run


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture
def build_cert(tmp_path, run):
    """``lemma2 -o`` on a small shear; the path of its build.cert."""
    matrix = write(tmp_path, "shear.mat", "2 2\n1 7\n0 1\n")
    rc, _, _ = run("lemma2", matrix, "-o", tmp_path / "out")
    assert rc == 0
    return tmp_path / "out" / "build.cert"


def test_verify_cert_ok(run, build_cert):
    assert run("verify-cert", build_cert) == (0, "OK\n", "")


def test_verify_cert_tampered_move(run, build_cert, tmp_path):
    lines = build_cert.read_text().splitlines()
    lines[4] = "INV 9"  # START, two STABs, one move, then the tampered move
    rc, out, _ = run("verify-cert", write(tmp_path, "bad.cert", "\n".join(lines) + "\n"))
    assert (rc, out) == (1, "FAILED step 3\n")


@pytest.mark.parametrize(
    "text",
    [
        "START < a | a >\nWIBBLE 1\nEND < a | a >\n",
        "START < a | a >\nMULR 1\nEND < a | a >\n",
        "START < a | a >\nSTAB b\nEND < a | a >\n",
        "INV 1\nEND < | >\n",
        # pair lines of older certificate files are no longer moves
        "START < a | a >\nINSPAIR 1 0 1 +\nEND < a | a >\n",
        "START < a | a >\nDELPAIR 1 0\nEND < a | a >\n",
        # a third field is not an exponent
        "START < a, b | a, b >\nMULR 1 2 3\nEND < a, b | a b^3, b >\n",
    ],
)
def test_verify_cert_malformed(run, tmp_path, text):
    rc, out, err = run("verify-cert", write(tmp_path, "m.cert", text))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    if "PAIR" in text:
        assert "unknown move keyword" in err
    if "MULR 1" in text:
        assert "MULR takes 2 fields, got " in err


def test_verify_cert_stab_after_invalid_move_is_a_failed_step(run, tmp_path):
    # STAB names are followed from START without replay, so an invalid move
    # before a STAB no longer makes the file unreadable
    text = "START < a | a >\nINV 2\nSTAB a\nEND < a, x1 | a, x1 a >\n"
    assert run("verify-cert", write(tmp_path, "c.cert", text)) == (1, "FAILED step 0\n", "")


def test_verify_cert_failed_step_counts_lines_not_merged_moves(run, tmp_path):
    # the three MULR lines are one move of exponent 3, the four MULR 1 1
    # lines one invalid move; the failure is at its first line
    moves = ["MULR 1 2"] * 3 + ["INV 2"] + ["MULR 1 1"] * 4 + ["INV 1"]
    text = "\n".join(["START < a, b | a b, b >"] + moves + ["END < a, b | a b, b >"]) + "\n"
    assert run("verify-cert", write(tmp_path, "c.cert", text)) == (1, "FAILED step 4\n", "")


def test_verify_cert_stab_after_destab_of_inner_generator(run, tmp_path):
    # a DESTAB of a generator other than the last changes no name and fails
    # replay, so the STAB after it is read against the START names and the
    # file is a failed step, like any other invalid move
    text = "START < a, b | a, b >\nDESTAB 1 1\nSTAB b\nEND < b | b >\n"
    assert run("verify-cert", write(tmp_path, "c.cert", text)) == (1, "FAILED step 0\n", "")


@pytest.mark.parametrize(
    "moves, step",
    [(["DESTAB 0 1"], 0), (["DESTAB 1 1", "DESTAB 0 1"], 1)],
    ids=["from-empty", "after-the-last"],
)
def test_verify_cert_destab_of_generator_zero_is_a_failed_step(run, tmp_path, moves, step):
    # no generator is left to drop, so the names stay as they are and the
    # move fails replay; it must not pop from an empty name list
    start = "< | >" if step == 0 else "< a | a >"
    text = "\n".join([f"START {start}"] + moves + ["END < | >"]) + "\n"
    assert run("verify-cert", write(tmp_path, "c.cert", text)) == (1, f"FAILED step {step}\n", "")


@pytest.mark.parametrize("popped", ["x0", "x" + "9" * 4301], ids=["x0", "x_4301_digits"])
def test_verify_cert_stab_after_destab_of_non_series_name(run, tmp_path, popped):
    # neither name is one of x1, x2, ...: dropping it frees no fresh name,
    # so the last STAB takes x2 again
    moves = ["STAB 1", "DESTAB 3 3", "DESTAB 2 2", "STAB 1"]
    text = "\n".join([f"START < x1, {popped} | x1, {popped} >"] + moves + ["END < x1, x2 | x1, x2 >"]) + "\n"
    assert run("verify-cert", write(tmp_path, "c.cert", text)) == (0, "OK\n", "")


def stab_lines_cert(tmp_path, n):
    """A certificate of n ``STAB 1`` lines from < a | a >."""
    names = ["a"] + [f"x{k}" for k in range(1, n + 1)]
    end = f"< {', '.join(names)} | {', '.join(names)} >"
    lines = ["START < a | a >"] + ["STAB 1"] * n + [f"END {end}"]
    return write(tmp_path, "stab.cert", "\n".join(lines) + "\n")


def test_verify_cert_many_stab_lines_is_fast(run, tmp_path):
    # each STAB takes the next fresh name from one name set kept across the
    # parse and the replay, not from a rebuild of all names
    path = stab_lines_cert(tmp_path, 5000)
    t0 = time.perf_counter()
    assert run("verify-cert", path) == (0, "OK\n", "")
    assert time.perf_counter() - t0 < 2.0


def test_verify_cert_20000_stab_lines_is_linear(run, tmp_path):
    # each STAB is one append to the replay state and one step of its running
    # letter count; re-summing the letters or copying the relators on every
    # line made this input quadratic (about 9 s)
    path = stab_lines_cert(tmp_path, 20000)
    t0 = time.perf_counter()
    assert run("verify-cert", path) == (0, "OK\n", "")
    assert time.perf_counter() - t0 < 2.0


def test_quotient_many_generators_exhausts(run, tmp_path):
    names = [f"a{i}" for i in range(1, 1101)]
    path = write(tmp_path, "many.pres", f"< {', '.join(names)} | {', '.join(names)} >")
    assert run("quotient", path, "--max-degree", 2) == (1, "EXHAUSTED 2\n", "")


def test_quotient_rapaport_exhausts_at_default_degree(run, tmp_path):
    # Rapaport's group is nontrivial, but it has no subgroup of index 2..7
    assert run("quotient", write(tmp_path, "rap.pres", RAPAPORT)) == (1, "EXHAUSTED 7\n", "")


def test_parse_letter_cap(run, tmp_path):
    rc, out, err = run("parse", write(tmp_path, "big.pres", f"< a | a^{10 * MAX_LETTERS} >"))
    assert (rc, out) == (2, "")
    assert "letters" in err


def test_parse_non_ascii_letter_is_a_parse_error(run, tmp_path):
    rc, out, err = run("parse", write(tmp_path, "e.pres", "< é | >"))
    assert (rc, out, err) == (2, "", "error: 1:3: unexpected character 'é'\n")


def test_order_table_enumerates_once(run, tmp_path, monkeypatch):
    runs = []
    enumerate_run = coset._Enumerator.run

    def counting(self):
        runs.append(1)
        return enumerate_run(self)

    monkeypatch.setattr(coset._Enumerator, "run", counting)
    path = write(tmp_path, "s3.pres", "< a, b | a^2, b^3, a b a b >")
    rc, out, _ = run("order", path, "--table")
    assert rc == 0 and len(runs) == 1
    lines = out.splitlines()
    assert lines[0] == "ORDER 6" and len(lines) == 7
    assert run("order", write(tmp_path, "z.pres", "< a | >"), "--table", "--max-cosets", 50) == (
        1,
        "CAP-EXCEEDED 50\n",
        "",
    )
    rc, _, err = run("order", path, "--table", "--max-cosets", 0)
    assert rc == 2 and "max_cosets" in err


def test_order_table_standard_numbering(run, tmp_path):
    # coset 1 first, then cosets in order of first appearance, row by row
    assert run("order", write(tmp_path, "s3.pres", "< a, b | a^2, b^3, a b a b >"), "--table") == (
        0,
        "ORDER 6\n1: 2 2 3 4\n2: 1 1 5 6\n3: 6 6 4 1\n4: 5 5 1 3\n5: 4 4 6 2\n6: 3 3 2 5\n",
        "",
    )


def test_order_table_of_no_generators_has_no_trailing_space(run, tmp_path):
    assert run("order", write(tmp_path, "e.pres", "< | >"), "--table") == (0, "ORDER 1\n1:\n", "")


def test_order_table_depends_only_on_the_group(run, tmp_path):
    # Coxeter S4, relators shuffled, rotated, inverted, s^2 written as s^-2
    rels = [[1, 1], [2, 2], [3, 3], [1, 2] * 3, [2, 3] * 3, [1, 3] * 2]
    names = ("s1", "s2", "s3")

    def text(rels):
        words = [" ".join(f"{names[abs(x) - 1]}^{x // abs(x)}" for x in r) for r in rels]
        return f"< {', '.join(names)} | {', '.join(words)} >"

    _, expected, _ = run("order", write(tmp_path, "s4.pres", text(rels)), "--table")
    assert expected.startswith("ORDER 24\n") and len(expected.splitlines()) == 25
    rng = random.Random(4)
    for k in range(20):
        variant = []
        for r in rels:
            s = rng.randrange(len(r))
            r = r[s:] + r[:s]
            variant.append([-x for x in reversed(r)] if rng.random() < 0.5 else r)
        rng.shuffle(variant)
        path = write(tmp_path, f"v{k}.pres", text(variant))
        assert run("order", path, "--table") == (0, expected, "")


def relabelled_s5(rng):
    """Coxeter S5 under shuffled new names, relators rotated, perhaps
    inverted and shuffled."""
    rels = [[i, i] for i in range(1, 5)] + [[i, i + 1] * 3 for i in range(1, 4)]
    rels += [[i, j] * 2 for i in range(1, 5) for j in range(i + 2, 5)]
    names = ["u", "v", "w", "z"]
    rng.shuffle(names)
    words = []
    for r in rels:
        s = rng.randrange(len(r))
        r = r[s:] + r[:s]
        if rng.random() < 0.5:
            r = [-x for x in reversed(r)]
        words.append(" ".join(f"{names[abs(x) - 1]}^{1 if x > 0 else -1}" for x in r))
    rng.shuffle(words)
    return f"< {', '.join(sorted(names))} | {', '.join(words)} >"


def test_order_table_bytes(run, tmp_path):
    # the row format as first written: 1-based, one row per coset in standard order
    text = relabelled_s5(random.Random(5))
    t = coset.coset_table(parse_presentation(text))
    expected = [f"ORDER {t.order}"]
    for i, row in enumerate(t.rows):
        expected.append(f"{i + 1}: " + " ".join(str(x + 1) for x in row))
    assert t.order == 120
    out = run("order", write(tmp_path, "s5.pres", text), "--table")
    assert out == (0, "\n".join(expected) + "\n", "")


S4_TABLE = (
    "ORDER 24\n"
    "1: 2 2 3 3 4 4\n"
    "2: 1 1 5 5 6 6\n"
    "3: 7 7 1 1 8 8\n"
    "4: 6 6 9 9 1 1\n"
    "5: 10 10 2 2 11 11\n"
    "6: 4 4 12 12 2 2\n"
    "7: 3 3 10 10 13 13\n"
    "8: 13 13 14 14 3 3\n"
    "9: 15 15 4 4 14 14\n"
    "10: 5 5 7 7 16 16\n"
    "11: 16 16 17 17 5 5\n"
    "12: 18 18 6 6 17 17\n"
    "13: 8 8 19 19 7 7\n"
    "14: 20 20 8 8 9 9\n"
    "15: 9 9 18 18 20 20\n"
    "16: 11 11 21 21 10 10\n"
    "17: 22 22 11 11 12 12\n"
    "18: 12 12 15 15 22 22\n"
    "19: 23 23 13 13 21 21\n"
    "20: 14 14 23 23 15 15\n"
    "21: 24 24 16 16 19 19\n"
    "22: 17 17 24 24 18 18\n"
    "23: 19 19 20 20 24 24\n"
    "24: 21 21 22 22 23 23\n"
)


def test_order_table_bytes_are_pinned(run, tmp_path):
    # Coxeter S4: the bytes order --table printed when its output was one print call
    text = "< s1, s2, s3 | s1^2, s2^2, s3^2, s1 s2 s1 s2 s1 s2, s2 s3 s2 s3 s2 s3, s1 s3 s1 s3 >"
    assert run("order", write(tmp_path, "s4.pres", text), "--table") == (0, S4_TABLE, "")


@pytest.mark.parametrize("count", [0, 1, 2, 4095, 4096, 8193])
def test_write_lines_writes_what_print_writes(capsys, count):
    # blocks of 4096 lines; one empty line, and no lines, print a lone newline
    assert cli.LINES_PER_WRITE == 4096
    lines = [f"line {k}" for k in range(count)] if count != 1 else [""]
    cli.write_lines(lines)
    written = capsys.readouterr().out
    print(*lines, sep="\n")
    assert written == capsys.readouterr().out


def test_order_table_json_holds_the_rows(run, tmp_path):
    path = write(tmp_path, "s5.pres", relabelled_s5(random.Random(6)))
    rc, text, _ = run("order", path, "--table")
    rows = [[int(x) for x in ln.split(": ")[1].split()] for ln in text.splitlines()[1:]]
    rc_json, out, _ = run("order", path, "--table", "--format", "json")
    payload = json.loads(out)
    assert (rc, rc_json, payload["verdict"]) == (0, 0, "order")
    assert payload["data"] == {"order": 120, "table": rows}
    rc, out, _ = run("order", path, "--format", "json")
    assert rc == 0 and json.loads(out)["data"] == {"order": 120}


def test_order_slot_budget_caps_many_generators(run, tmp_path):
    # 500 generators: a row is 1001 slots, so the default coset cap alone
    # would allow a table of about 8 GB
    names = ", ".join(f"a{i}" for i in range(1, 501))
    path = write(tmp_path, "wide.pres", f"< {names} | >")
    tracemalloc.start()
    try:
        rc, out, err = run("order", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, err) == (1, "") and out.startswith("CAP-EXCEEDED ")
    assert peak < 10 * coset.MAX_TABLE_SLOTS


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 3\n1 0 0\n0 1 0\n", "not square"),
        ("2 2\n2 0\n0 1\n", "not unimodular"),
        ("2 2\n1 x\n0 1\n", "invalid literal"),
    ],
    ids=["non-square", "determinant-2", "non-integer"],
)
def test_lemma2_malformed_matrix(run, tmp_path, text, message):
    rc, out, err = run("lemma2", write(tmp_path, "bad.mat", text))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["snf", "lemma2"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty matrix text"),
        ("2\n", "expected 'n m' header, got '2'"),
        ("-1 2\n", "negative dimensions"),
    ],
    ids=["empty", "one-field-header", "negative"],
)
def test_malformed_matrix_header(run, tmp_path, command, text, message):
    assert run(command, write(tmp_path, "bad.mat", text)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["snf", "lemma2"])
def test_matrix_entry_past_the_digit_limit(run, tmp_path, command):
    limit = sys.get_int_max_str_digits()
    path = write(tmp_path, "big.mat", "1 1\n1" + "0" * limit + "\n")
    rc, out, err = run(command, path)
    assert (rc, out) == (2, "")
    assert err == f"error: line 2: an entry of {limit + 1} digits is past the limit of {limit} digits\n"
    rc, out, err = run(command, write(tmp_path, "bad.mat", "# a comment\n2 2\n1 0\n\nx 1\n"))
    assert (rc, out) == (2, "")
    assert err == "error: line 5: invalid literal for int() with base 10: 'x'\n"


def test_certificate_integer_past_the_digit_limit(run, tmp_path):
    limit = sys.get_int_max_str_digits()
    text = f"START < a | a >\nCYC 1 {'9' * (limit + 700)}\nEND < a | a >\n"
    rc, out, err = run("verify-cert", write(tmp_path, "big.cert", text))
    assert (rc, out) == (2, "")
    assert err == f"error: line 2: an entry of {limit + 700} digits is past the limit of {limit} digits\n"


def test_lemma2_huge_entry_fails_fast(run, tmp_path):
    # a 21-byte matrix file whose certificate would need 10**9 moves
    path = write(tmp_path, "huge.mat", "2 2\n1 1000000000\n0 1\n")
    tracemalloc.start()
    try:
        rc, out, err = run("lemma2", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "row additions" in err
    assert peak < 10**7


def test_lemma2_and_theorem3_row_addition_cap(run, tmp_path, monkeypatch):
    monkeypatch.setattr(lemma2, "MAX_ROW_ADDITIONS", 7)
    assert run("lemma2", write(tmp_path, "ok.mat", "2 2\n1 7\n0 1\n"))[0] == 0
    rc, out, err = run("lemma2", write(tmp_path, "big.mat", "2 2\n1 8\n0 1\n"))
    assert (rc, out) == (2, "") and err == "error: matrix needs 8 row additions, more than 7\n"
    # the dual of < a, b | a b^8, b > needs the transposed shear
    rc, out, err = run("theorem3", write(tmp_path, "p.pres", "< a, b | a b^8, b >"), "-o", tmp_path / "bundle")
    assert (rc, out) == (2, "") and err == "error: matrix needs 8 row additions, more than 7\n"


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


F27, F28, F29 = (_fibonacci(k) for k in (27, 28, 29))


@pytest.mark.parametrize(
    "command, name, text",
    [
        # relator lengths grow like the Fibonacci numbers in the build
        ("lemma2", "fib.mat", f"2 2\n{F29} {F28}\n{F28} {F27}\n"),
        ("verify-cert", "fib.cert", "START < a, b | a, b >\n" + "MULR 1 2\nMULR 2 1\n" * 16 + "END < a, b | a, b >\n"),
        ("verify-cert", "stab.cert", "START < a | >\n" + "STAB a^999999\n" * 30 + "END < a | >\n"),
    ],
    ids=["lemma2-fibonacci", "verify-cert-fibonacci", "verify-cert-stab"],
)
def test_growth_past_the_letter_cap_is_an_error_not_a_failed_check(run, tmp_path, command, name, text):
    # a few hundred bytes of input that would otherwise take seconds and
    # hundreds of MB; the replay is inconclusive, so never FAILED (exit 1)
    path = write(tmp_path, name, text)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        rc, out, err = run(command, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err.startswith("error: move would grow the presentation to ")
    assert err.endswith(f" letters, more than {MAX_LETTERS}\n")
    assert time.perf_counter() - t0 < 2 and peak < 5 * 10**7


def test_verify_cert_distinct_long_stab_lines_stop_at_the_parse(run, tmp_path):
    # every distinct STAB word is parsed before the replay starts, so the
    # letter cap on moves came after all ten of them (about 108 MB); the
    # parse counts their letters and stops at the second line
    lines = ["START < a | a >"] + ["STAB a^999999", "STAB a^999998"] * 5 + ["END < a | a >"]
    path = write(tmp_path, "stab.cert", "\n".join(lines) + "\n")
    assert run("verify-cert", path) == (2, "", f"error: line 3: STAB words expand to more than {MAX_LETTERS} letters\n")


def test_theorem3_build_past_the_letter_cap(run, tmp_path, monkeypatch):
    # the dual of < a, b | a b^8, b > is built with 2 + 8 letters
    path = write(tmp_path, "p.pres", "< a, b | a b^8, b >")
    monkeypatch.setattr(moves, "MAX_LETTERS", 10)
    assert run("theorem3", path, "-o", tmp_path / "ok")[0] == 0
    monkeypatch.setattr(moves, "MAX_LETTERS", 9)
    rc, out, err = run("theorem3", path, "-o", tmp_path / "bundle")
    assert (rc, out, err) == (2, "", "error: move would grow the presentation to 10 letters, more than 9\n")


def test_acsearch_found_writes_a_certificate_that_verifies(run, tmp_path):
    path = write(tmp_path, "dp.pres", DUAL_POINCARE)
    cert = tmp_path / "dp.cert"
    rc, out, err = run("acsearch", path, "-o", cert)
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith("FOUND depth=3 ") and lines[1] == f"WROTE {cert}"
    assert run("verify-cert", cert) == (0, "OK\n", "")


def test_acsearch_output_to_a_pipe(run, tmp_path):
    # /dev/stdout is the pipe here; it reports size 0, so it is never cut
    path = write(tmp_path, "dp.pres", DUAL_POINCARE)
    src = str(Path(cli.__file__).parents[1])
    r = subprocess.run(
        [sys.executable, "-m", "acforge.cli", "acsearch", str(path), "-o", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": src},
    )
    assert (r.returncode, r.stderr) == (0, "")
    # the certificate goes straight to the pipe; the buffered lines follow at exit
    *certificate, found, wrote = r.stdout.splitlines()
    assert found.startswith("FOUND depth=3 ") and wrote == "WROTE /dev/stdout"
    expected = tmp_path / "expected.cert"
    assert run("acsearch", path, "-o", expected)[0] == 0
    assert certificate == expected.read_text().splitlines()


@pytest.mark.parametrize("command", ["acsearch", "lemma2"])
def test_an_artefact_that_is_standard_output_is_refused(tmp_path, command):
    # `acforge acsearch F -o out.txt > out.txt`: the certificate would be
    # written at offset 0, and the lines printed after it over its start
    if command == "acsearch":
        source, target = write(tmp_path, "dp.pres", DUAL_POINCARE), tmp_path / "out.txt"
        argv = [str(source), "-o", str(target)]
    else:
        source, target = write(tmp_path, "shear.mat", SHEAR), tmp_path / "d" / "build.cert"
        target.parent.mkdir()
        argv = [str(source), "-o", str(target.parent)]
    src = str(Path(cli.__file__).parents[1])
    with open(target, "w") as out:
        r = subprocess.run(
            [sys.executable, "-m", "acforge.cli", command, *argv],
            stdout=out, stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": src},
        )
    assert r.returncode == 2
    assert r.stderr == f"error: {target}: standard output is redirected to this file; name another\n"
    assert target.read_text() == ""


def run_with_closed(fds, *argv):
    """Exit code and stderr of ``python -m acforge.cli *argv`` in a child
    whose ``fds`` are closed before it starts, as by ``>&-`` in a shell."""
    src = str(Path(cli.__file__).parents[1])
    r = subprocess.run(
        [sys.executable, "-m", "acforge.cli", *map(str, argv)],
        preexec_fn=lambda: [os.close(fd) for fd in fds],
        stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": src},
    )
    return r.returncode, r.stderr


@pytest.mark.parametrize("fds", [(1,), (0, 1)])
@pytest.mark.parametrize("command", ["acsearch", "lemma2", "theorem3"])
def test_artefacts_are_written_with_standard_output_closed(run, tmp_path, fds, command):
    # `acforge lemma2 M -o d >&-`: the artefact opens as fd 1 (fd 0 with
    # fds 0 and 1 closed), which is no redirection of standard output
    name, text = {"acsearch": ("dp.pres", DUAL_POINCARE), "lemma2": ("shear.mat", SHEAR)}.get(command, ("p.pres", POINCARE))
    source = write(tmp_path, name, text)
    target = {"acsearch": "out.cert"}.get(command, "out")
    opened, closed = tmp_path / "open", tmp_path / "closed"
    for d in (opened, closed):
        d.mkdir()
    assert run(command, source, "-o", opened / target)[0] == 0
    assert run_with_closed(fds, command, source, "-o", closed / target) == (0, "")
    files = sorted(p.relative_to(opened) for p in opened.rglob("*") if p.is_file())
    assert files and files == sorted(p.relative_to(closed) for p in closed.rglob("*") if p.is_file())
    for f in files:
        assert (closed / f).read_bytes() == (opened / f).read_bytes(), f
        if f.suffix == ".cert":
            assert run("verify-cert", closed / f) == (0, "OK\n", "")


@pytest.mark.parametrize(
    "command, text, code", [("parse", POINCARE, 0), ("order", "< a, b | a b a^-1 b^-1 >", 1)], ids=["parse", "order"]
)
def test_verdicts_keep_their_exit_codes_with_standard_output_closed(tmp_path, command, text, code):
    # `acforge parse F >&-`: sys.stdout is None, so nothing is written, as print does
    path = write(tmp_path, "p.pres", text)
    extra = ("--max-cosets", "10") if command == "order" else ()
    for mode in ("text", "json"):
        assert run_with_closed((1,), command, path, *extra, "--format", mode) == (code, ""), mode


def junk(path, size=20000):
    """Fill ``path`` with more bytes than any artefact a test here rewrites it with."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("#" * (size - 1) + "\n")


def test_rewrites_over_longer_files_hold_exactly_the_new_bytes(run, tmp_path):
    pres = write(tmp_path, "dp.pres", DUAL_POINCARE)
    fresh, over = tmp_path / "fresh.cert", tmp_path / "over.cert"
    junk(over)
    assert run("acsearch", pres, "-o", fresh)[0] == run("acsearch", pres, "-o", over)[0] == 0
    assert over.read_bytes() == fresh.read_bytes()
    assert run("verify-cert", over) == (0, "OK\n", "")

    matrix = write(tmp_path, "shear.mat", SHEAR)
    for name in ("presentation.pres", "build.cert"):
        junk(tmp_path / "over" / name)
    assert run("lemma2", matrix, "-o", tmp_path / "fresh")[0] == run("lemma2", matrix, "-o", tmp_path / "over")[0] == 0
    for name in ("presentation.pres", "build.cert"):
        assert (tmp_path / "over" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
    assert run("verify-cert", tmp_path / "over" / "build.cert") == (0, "OK\n", "")


def test_theorem3_over_the_bundle_of_a_larger_presentation(run, tmp_path):
    bundle, fresh = tmp_path / "bundle", tmp_path / "fresh"
    assert run("theorem3", write(tmp_path, "big.pres", "< a, b | a, b a^40 >"), "-o", bundle)[0] == 0
    old_sizes = {f.name: f.stat().st_size for f in bundle.iterdir()}
    small = write(tmp_path, "small.pres", "< a, b | a, b a^3 >")
    assert run("theorem3", small, "-o", bundle)[0] == run("theorem3", small, "-o", fresh)[0] == 0
    assert sorted(old_sizes) == sorted(f.name for f in fresh.iterdir())
    for name, size in old_sizes.items():
        assert (bundle / name).read_bytes() == (fresh / name).read_bytes(), name
        assert size > (bundle / name).stat().st_size, name
    assert verify_knot_certificate(read_bundle(bundle)) == []
    assert run("verify-cert", bundle / "trivialization.cert") == (0, "OK\n", "")


def test_every_artefact_goes_through_write_text(run, tmp_path, monkeypatch):
    written = []

    def recording(path, text):
        written.append(Path(path).name)
        presentation.write_text(path, text)

    monkeypatch.setattr(cli, "write_text", recording)
    monkeypatch.setattr(dual, "write_text", recording)
    assert run("theorem3", write(tmp_path, "p.pres", POINCARE), "-o", tmp_path / "bundle")[0] == 0
    assert written == ["source.pres", "augmented.pres", "witness.txt", "dual.pres", "trivialization.cert"]
    written.clear()
    assert run("lemma2", write(tmp_path, "shear.mat", SHEAR), "-o", tmp_path / "out")[0] == 0
    assert written == ["presentation.pres", "build.cert"]
    written.clear()
    assert run("acsearch", write(tmp_path, "dp.pres", DUAL_POINCARE), "-o", tmp_path / "dp.cert")[0] == 0
    assert written == ["dp.cert"]
    package = Path(cli.__file__).parent
    bypasses = [f.name for f in package.glob("*.py") if re.search(r"\.write_(text|bytes)\(", f.read_text())]
    assert bypasses == []


def move_lines(cert):
    return len(cert.read_text().splitlines()) - 2  # all but START and END


@pytest.mark.parametrize(
    "matrix",
    # the shear is one move of exponent 3; in the second matrix Lemma 2 emits
    # MULRI 1 2 once and then twice, one merged move of exponent -3
    ["2 2\n1 3\n0 1\n", "2 2\n-2 -1\n1 0\n"],
    ids=["shear", "adjacent-steps"],
)
def test_printed_move_counts_are_certificate_lines(run, tmp_path, matrix):
    out = tmp_path / "out"
    assert run("lemma2", write(tmp_path, "m.mat", matrix), "-o", out)[0] == 0
    build = out / "build.cert"
    n = move_lines(build)
    rc, text, _ = run("lemma2", tmp_path / "m.mat", "--format", "json")
    assert rc == 0 and json.loads(text)["data"]["moves"] == n
    rc, text, _ = run("verify-cert", build, "--format", "json")
    assert rc == 0 and json.loads(text)["data"]["moves"] == n

    rc, text, _ = run("theorem3", out / "presentation.pres", "-o", tmp_path / "bundle")
    assert rc == 0 and f"MOVES {move_lines(tmp_path / 'bundle' / 'trivialization.cert')}" in text.splitlines()

    cert = tmp_path / "search.cert"
    rc, text, _ = run("acsearch", out / "presentation.pres", "-o", cert)
    assert rc == 0 and f" moves={move_lines(cert)} " in text.splitlines()[0]


def test_acsearch_not_found_under_state_cap(run, tmp_path):
    path = write(tmp_path, "ak2.pres", AK2)
    assert run("acsearch", path, "--max-states", 3000) == (
        1,
        "NOT-FOUND\nSTATES-SEEN 3000\nSTATES-EXPANDED 698\nLIMIT states\n",
        "",
    )
    rc, out, _ = run("acsearch", path, "--max-states", 3000, "--format", "json")
    data = json.loads(out)["data"]
    assert rc == 1 and data["limit_hit"] == "states"
    assert data["frontier"][0] == 1 and sum(data["frontier"]) == data["states_seen"] == 3000


def test_acsearch_certificate_with_a_rotated_multiplier(run, tmp_path):
    # the path multiplies relator 2 by a rotation of relator 1, which the
    # certificate writes as CYC, MULR, CYC back
    path = write(tmp_path, "rot.pres", "< a, b, c | b^-1 c, c^-1 a^-1 c^-1 b a, a^-1 >")
    cert = tmp_path / "rot.cert"
    rc, out, err = run("acsearch", path, "-o", cert)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "FOUND depth=2 moves=13 states-seen=498 states-expanded=15"
    assert cert.read_text().splitlines()[6:9] == ["CYC 1 1", "MULR 2 1", "CYC 1 -1"]
    assert run("verify-cert", cert) == (0, "OK\n", "")


def test_acsearch_not_found_when_the_space_is_exhausted(run, tmp_path):
    path = write(tmp_path, "p.pres", "< a, b | a^2, b >")
    caps = ("--max-total-letters", 6, "--max-letters", 4)
    assert run("acsearch", path, *caps) == (
        1,
        "NOT-FOUND\nSTATES-SEEN 8\nSTATES-EXPANDED 8\nLIMIT space-exhausted\n",
        "",
    )
    rc, out, _ = run("acsearch", path, *caps, "--format", "json")
    data = json.loads(out)["data"]
    assert rc == 1 and data["limit_hit"] is None and data["frontier"] == [1, 5, 2]


@pytest.mark.parametrize(
    "text, flags",
    [("< a, b | a >", ()), (DUAL_POINCARE, ("--max-states", 0))],
    ids=["unbalanced", "zero-states"],
)
def test_acsearch_usage_errors(run, tmp_path, text, flags):
    rc, out, err = run("acsearch", write(tmp_path, "p.pres", text), *flags)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def test_acsearch_refuses_a_start_state_past_the_rotation_budget(run, tmp_path):
    # a relator of L letters has 2L rotations of L bytes: a^8000 needs
    # 128 MB and is searched, a^10000 needs 200 MB and the 19-byte
    # a^999999 about 2 TB, both refused before they are normalized
    path = write(tmp_path, "p.pres", "< a, b | a^8000, b >")
    assert run("acsearch", path) == (1, "NOT-FOUND\nSTATES-SEEN 2\nSTATES-EXPANDED 2\nLIMIT space-exhausted\n", "")
    for n in (10_000, 999_999):
        rc, out, err = run("acsearch", write(tmp_path, "p.pres", f"< a | a^{n} >"))
        assert (rc, out) == (2, "")
        need, budget = 2 * n * n, 8 * coset.MAX_TABLE_SLOTS
        assert err == f"error: the relators' rotations would take {need} bytes; a search allows fewer than {budget}\n"


def test_acsearch_drops_long_products_before_cancelling_their_ends(run, tmp_path):
    # each of about 7,000 multipliers a^-k b a^-(7000-k) leaves a product of
    # some 14,000 letters whose ends must cancel to fit the cap; cancelling
    # them a pair at a time took 5.6 s
    path = write(tmp_path, "p.pres", "< a, b | a^7000 b, b a^-7000 >")
    t0 = time.perf_counter()
    assert run("acsearch", path) == (1, "NOT-FOUND\nSTATES-SEEN 1\nSTATES-EXPANDED 1\nLIMIT space-exhausted\n", "")
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("command", ["acsearch", "dualize", "theorem3"])
def test_unbalanced_input_has_one_message(run, tmp_path, command):
    # one check, presentation.require_balanced, for the search, the dual and align
    extra = ("-o", tmp_path / "bundle") if command == "theorem3" else ()
    rc, out, err = run(command, write(tmp_path, "p.pres", "< a, b | a >"), *extra)
    assert (rc, out, err) == (2, "", "error: presentation is not balanced: 2 generator(s), 1 relator(s)\n")


def test_acsearch_generator_limit(run, tmp_path):
    # letters are coded in one byte: 127 generators search, 128 are refused
    def pres(m):
        names = [f"g{k}" for k in range(1, m + 1)]
        return f"< {', '.join(names)} | {', '.join(names[:-1])}, g{m} g1 >"

    rc, out, err = run("acsearch", write(tmp_path, "ok.pres", pres(127)), "--max-total-letters", 200)
    assert (rc, err) == (0, "") and out.startswith("FOUND depth=1 ")
    rc, out, err = run("acsearch", write(tmp_path, "big.pres", pres(128)))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "at most 127 generators" in err


def test_acsearch_stdout_is_deterministic(run, tmp_path):
    path = write(tmp_path, "dp.pres", DUAL_POINCARE)
    first = run("acsearch", path)
    assert first[0] == 0 and first[1].startswith("FOUND ")
    assert run("acsearch", path) == first


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_readers_look_up_their_parser_at_call_time(run, tmp_path, monkeypatch, build_cert):
    # a parser replaced in ``cli`` after the argument parser is cached (as
    # the traced benchmark run replaces them) still sees every read
    build_parser()
    calls = []
    for name in ("parse_presentation", "matrix_from_text", "parse_certificate"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda text, name=name, f=original: calls.append(name) or f(text))
    pres, shear = write(tmp_path, "p.pres", POINCARE), write(tmp_path, "shear.mat", SHEAR)
    for argv in (("parse", pres), ("snf", shear), ("lemma2", shear), ("verify-cert", build_cert)):
        assert run(*argv)[0] == 0, argv
    assert calls == ["parse_presentation", "matrix_from_text", "matrix_from_text", "parse_certificate"]


def test_python_dash_m_runs_main(tmp_path):
    def cli_run(*argv):
        src = str(Path(cli.__file__).parents[1])
        r = subprocess.run(
            [sys.executable, "-m", "acforge.cli", *map(str, argv)],
            capture_output=True, text=True, cwd=tmp_path, env={"PYTHONPATH": src},
        )
        return r.returncode, r.stdout, r.stderr

    assert cli_run("parse", write(tmp_path, "p.pres", "< a, b | a^2, b >")) == (0, "< a, b | a^2, b >\n", "")
    assert cli_run("balanced", write(tmp_path, "u.pres", "< a, b | a^2 >")) == (1, "BALANCED false\n", "")
    rc, out, err = cli_run("parse", tmp_path / "missing.pres")
    assert (rc, out) == (2, "") and err.startswith("error: [Errno 2] No such file or directory")


# the exit code of each verdict, written out here rather than read from the CLI
EXIT_CODES = {
    "ok": 0,
    "balanced": 0,
    "unbalanced": 1,
    "perfect": 0,
    "imperfect": 1,
    "order": 0,
    "cap-exceeded": 1,
    "found": 0,
    "exhausted": 1,
    "not-found": 1,
    "verified": 0,
    "failed": 1,
    "regression": 1,
}

SHEAR = "2 2\n1 7\n0 1\n"
STAB_CERT = "START < a | a >\nSTAB 1\nEND < a, x1 | a, x1 >\n"
INVALID_MOVE_CERT = "START < a | a >\nINV 2\nSTAB a\nEND < a, x1 | a, x1 a >\n"

# (command, input file text or None, flags, verdict): every verdict each command gives
VERDICT_CASES = [
    ("parse", POINCARE, (), "ok"),
    ("balanced", POINCARE, (), "balanced"),
    ("balanced", "< a, b | a^2 >", (), "unbalanced"),
    ("matrix", POINCARE, (), "ok"),
    ("snf", SHEAR, (), "ok"),
    ("perfect", POINCARE, (), "perfect"),
    ("perfect", "< a | a^2 >", (), "imperfect"),
    ("lemma2", SHEAR, (), "ok"),
    ("dualize", POINCARE, (), "ok"),
    ("theorem3", POINCARE, (), "ok"),
    ("order", "< a | a^5 >", (), "order"),
    ("order", "< a | a^5 >", ("--max-cosets", 2), "cap-exceeded"),
    ("quotient", "< a | a^5 >", (), "found"),
    ("quotient", "< a | a >", ("--max-degree", 3), "exhausted"),
    ("acsearch", DUAL_POINCARE, (), "found"),
    ("acsearch", AK2, ("--max-states", 10), "not-found"),
    ("verify-cert", STAB_CERT, (), "verified"),
    ("verify-cert", INVALID_MOVE_CERT, (), "failed"),
    ("corpus", None, (), "ok"),
    ("corpus", None, (), "regression"),
]


@pytest.mark.parametrize("command, text, flags, verdict", VERDICT_CASES, ids=[f"{c[0]}-{c[3]}" for c in VERDICT_CASES])
def test_verdict_sets_the_exit_code(run, tmp_path, monkeypatch, command, text, flags, verdict):
    if verdict == "regression":
        monkeypatch.setattr("acforge.cli.check_entry", lambda entry: ["broken"])
    argv = [command] + ([write(tmp_path, "input", text)] if text is not None else []) + list(flags)
    if command == "theorem3":
        argv += ["-o", tmp_path / "bundle"]
    text_rc, out, err = run(*argv)
    assert err == "" and out.endswith("\n")
    json_rc, out, err = run(*argv, "--format", "json")
    assert err == "" and json.loads(out)["verdict"] == verdict
    assert text_rc == json_rc == EXIT_CODES[verdict]


def test_verdict_cases_cover_every_command_and_verdict():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {c[0] for c in VERDICT_CASES} == set(sub.choices)
    assert {c[3] for c in VERDICT_CASES} == set(EXIT_CODES)


def test_timings_only_with_the_flag_and_only_in_json(run, tmp_path):
    path = write(tmp_path, "p.pres", "< a, b | a, b >")
    rc, out, _ = run("order", path, "--format", "json", "--timings")
    timings = json.loads(out)["timings"]
    assert rc == 0 and list(timings) == ["seconds"]
    assert isinstance(timings["seconds"], float) and timings["seconds"] >= 0
    rc, out, _ = run("order", path, "--format", "json")
    assert rc == 0 and json.loads(out)["timings"] == {}
    for argv in (("order", path, "--table"), ("quotient", path, "--max-degree", 2)):
        assert run(*argv, "--timings") == run(*argv)


@pytest.mark.parametrize(
    "command, text, rc, stdout",
    [
        ("balanced", POINCARE, 0, "BALANCED true\n"),
        ("balanced", "< a, b | a^2 >", 1, "BALANCED false\n"),
        ("matrix", POINCARE, 0, "2 2\n2 1\n3 2\n"),
        ("perfect", POINCARE, 0, "PERFECT true\n"),
        ("perfect", "< a | a^2 >", 1, "PERFECT false\n"),
        ("dualize", POINCARE, 0, "< x1, x2 | x1^2 x2^3, x1 x2^2 >\n"),
    ],
)
def test_presentation_command_verdicts(run, tmp_path, command, text, rc, stdout):
    path = write(tmp_path, "p.pres", text)
    assert run(command, path) == (rc, stdout, "")
    assert run(command, path) == (rc, stdout, "")


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("balanced", UNDECLARED, "undeclared generator"),
        ("matrix", UNDECLARED, "undeclared generator"),
        ("perfect", UNDECLARED, "undeclared generator"),
        ("dualize", UNDECLARED, "undeclared generator"),
        ("dualize", "< a, b | a^2 >", "not balanced"),
        ("theorem3", UNDECLARED, "undeclared generator"),
        ("theorem3", "< a | a^2 >", "not perfect"),
    ],
)
def test_presentation_command_errors(run, tmp_path, command, text, message):
    extra = ("-o", tmp_path / "bundle") if command == "theorem3" else ()
    rc, out, err = run(command, write(tmp_path, "bad.pres", text), *extra)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_snf(run, tmp_path):
    path = write(tmp_path, "m.mat", "2 2\n2 1\n1 1\n")
    expected = "FACTORS 1 1\nU\n2 2\n1 0\n1 -1\nV\n2 2\n0 1\n1 -2\n"
    assert run("snf", path) == (0, expected, "")
    assert run("snf", path) == (0, expected, "")
    rc, out, err = run("snf", write(tmp_path, "bad.mat", "2 2\n1 7\n"))
    assert (rc, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0 0\n", "FACTORS\nU\n0 0\nV\n0 0\n"),
        ("0 3\n", "FACTORS\nU\n0 0\nV\n3 3\n1 0 0\n0 1 0\n0 0 1\n"),
        ("2 0\n", "FACTORS\nU\n2 2\n1 0\n0 1\nV\n0 0\n"),
    ],
    ids=["0x0", "0x3", "2x0"],
)
def test_snf_of_an_empty_matrix_has_no_trailing_space(run, tmp_path, text, expected):
    assert run("snf", write(tmp_path, "e.mat", text)) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_snf_result_past_the_digit_limit(run, tmp_path, fmt):
    # entries of 3,001 digits, which the reader accepts; the second factor has 6,001
    big = "1" + "0" * 3000
    path = write(tmp_path, "big.mat", f"2 2\n{big} 1\n0 {big}\n")
    limit = sys.get_int_max_str_digits()
    assert run("snf", path, "--format", fmt) == (
        2,
        "",
        f"error: FACTORS entry 2: an integer of 6001 digits is past the limit of {limit} digits\n",
    )


def dense_presentation(e):
    """< a1..an | ... >: relator i is a1^e_i1 ... an^e_in, zero exponents left out."""
    gens = ", ".join(f"a{j}" for j in range(1, e.ncols + 1))
    rels = ", ".join(" ".join(f"a{j}^{x}" for j, x in enumerate(row, 1) if x) for row in e.rows)
    return f"< {gens} | {rels} >\n"


def timed(run, *argv):
    t0 = time.process_time()
    result = run(*argv)
    assert time.process_time() - t0 < 5, argv[0]
    return result


def test_dense_14_generators(run, tmp_path):
    # the floor-division Smith normal form did not finish these in 60 s
    e = dense_matrix(14)
    pres = write(tmp_path, "d.pres", dense_presentation(e))
    assert timed(run, "perfect", pres) == (1, "PERFECT false\n", "")
    factors = (1,) * 13 + (1438117468352700,)
    assert timed(run, "theorem3", pres, "-o", tmp_path / "bundle") == (
        2,
        "",
        f"error: presentation is not perfect: det 1438117468352700, invariant factors {factors}\n",
    )
    rc, out, err = timed(run, "snf", write(tmp_path, "d.mat", intmatrix.matrix_to_text(e)))
    assert (rc, err) == (0, "")
    head, rest = out.split("\nU\n")
    u, v = rest.split("V\n")
    assert head == "FACTORS " + " ".join(map(str, factors))
    u, v = (sympy_matrix(intmatrix.matrix_from_text(x)) for x in (u, v))
    d = (u * sympy_matrix(e) * v).to_list()
    assert d == [[f if i == j else 0 for j in range(14)] for i, f in enumerate(factors)]


def test_dense_40_generators(run, tmp_path):
    # the factors took about a minute while U and V were built beside them
    pres = write(tmp_path, "d.pres", dense_presentation(dense_matrix(40)))
    assert timed(run, "perfect", pres) == (1, "PERFECT false\n", "")
    det = 11266311261325612794844974514138411613282906372394540
    assert timed(run, "theorem3", pres, "-o", tmp_path / "bundle") == (
        2,
        "",
        f"error: presentation is not perfect: det {det}, invariant factors {(1,) * 39 + (det,)}\n",
    )


def test_matrix_text_names_the_entry_past_the_digit_limit():
    a = intmatrix.IntMatrix([[1, 2], [3, 10 ** (sys.get_int_max_str_digits() + 5)]])
    with pytest.raises(ValueError, match=r"^U row 2 entry 2: an integer of \d+ digits is past the limit"):
        intmatrix.matrix_to_text(a, "U")


@pytest.mark.parametrize(
    "text, message",
    [
        ("< a | a^2 >", "presentation is not perfect: det 2, invariant factors (2,)"),
        ("< a, b | a b, a b >", "presentation is not perfect: det 0, invariant factors (1, 0)"),
        # unimodular: past the row-addition cap, never "not perfect"
        ("< a, b | a b^100001, b >", "matrix needs 100001 row additions, more than 100000"),
    ],
    ids=["det-2", "det-0", "row-addition-cap"],
)
def test_theorem3_error_texts(run, tmp_path, text, message):
    bundle = tmp_path / "bundle"
    rc, out, err = run("theorem3", write(tmp_path, "p.pres", text), "-o", bundle)
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not bundle.exists()


def test_theorem3_higman_600_is_fast(run, tmp_path):
    # one pass over the dual's relators, and Lemma 2 as the only test of
    # unimodularity: a Bareiss determinant and n x n occurrence counts in
    # front of it took 14 s CPU on a 2-CPU x86-64 host
    rc, text, _ = run("corpus", "--family", "higman", "--m", 600)
    assert rc == 0
    bundle = tmp_path / "bundle"
    t0 = time.process_time()
    rc, out, _ = run("theorem3", write(tmp_path, "h.pres", text), "-o", bundle)
    assert time.process_time() - t0 < 6
    assert rc == 0 and out.startswith(f"WROTE {bundle}\nDUAL < x1, x2, ")


def test_perfect_runs_one_smith_normal_form(run, tmp_path, monkeypatch):
    # one elimination per run, on the matrix alone: U and V are never built
    calls, snf_calls = [], []
    eliminate, snf = intmatrix._eliminate, intmatrix.smith_normal_form
    monkeypatch.setattr(intmatrix, "_eliminate", lambda *a: calls.append(a) or eliminate(*a))
    monkeypatch.setattr(intmatrix, "smith_normal_form", lambda a: snf_calls.append(a) or snf(a))
    path = write(tmp_path, "p.pres", "< a, b | a^2 b^3, a b^2 a b^2 >")
    assert run("perfect", path) == (1, "PERFECT false\n", "")
    rc, out, _ = run("perfect", path, "--format", "json")
    assert rc == 1 and json.loads(out)["data"] == {"perfect": False, "invariant_factors": [1, 2]}
    assert len(calls) == 2 and snf_calls == []


def test_theorem3_bundle_is_deterministic(run, tmp_path):
    path = write(tmp_path, "p.pres", POINCARE)
    bundle = tmp_path / "bundle"
    expected = f"WROTE {bundle}\nDUAL < x1, x2 | x1 x2^2 x1 x2, x2 x1 x2 >\nMOVES 7\n"
    assert run("theorem3", path, "-o", bundle) == (0, expected, "")
    files = {f.name: f.read_bytes() for f in bundle.iterdir()}
    assert run("theorem3", path, "-o", bundle) == (0, expected, "")
    assert {f.name: f.read_bytes() for f in bundle.iterdir()} == files


def test_corpus_family(run):
    higman = (
        "< a1, a2, a3, a4 | a1^-1 a2^-1 a1 a2^2, a2^-1 a3^-1 a2 a3^2, "
        "a3^-1 a4^-1 a3 a4^2, a4^-1 a1^-1 a4 a1^2 >\n"
    )
    assert run("corpus", "--family", "higman", "--m", 4) == (0, higman, "")
    assert run("corpus", "--family", "higman", "--m", 4) == (0, higman, "")
    rc, out, err = run("corpus", "--family", "higman23", "--m", 0)
    assert (rc, out) == (2, "") and "m must be >= 1" in err


@pytest.mark.parametrize("family, m, letters", [("higman", 200_001, 1_000_005), ("higman23", 142_858, 1_000_006)])
def test_corpus_family_past_the_letter_cap(run, family, m, letters):
    # 5 letters per relator for higman, 7 for higman23; refused before
    # anything is built
    t0 = time.perf_counter()
    rc, out, err = run("corpus", "--family", family, "--m", m)
    assert (rc, out) == (2, "")
    assert err == f"error: m = {m} needs {letters} letters, more than {MAX_LETTERS}\n"
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize(
    "command, name, text",
    [("lemma2", "shear.mat", "2 2\n1 7\n0 1\n"), ("acsearch", "dp.pres", DUAL_POINCARE)],
    ids=["lemma2", "acsearch"],
)
def test_certificate_is_formatted_only_when_printed_or_written(run, tmp_path, monkeypatch, command, name, text):
    calls = []

    def counted(cert):
        calls.append(cert)
        return moves.format_certificate(cert)

    monkeypatch.setattr(cli, "format_certificate", counted)
    path = write(tmp_path, name, text)
    rc, out, _ = run(command, path, "--format", "json")
    assert rc == 0 and "moves" in json.loads(out)["data"] and calls == []
    rc, out, _ = run(command, path)
    assert rc == 0 and len(calls) == 1
    assert out.endswith(moves.format_certificate(calls[0]))
    rc, _, _ = run(command, path, "-o", tmp_path / "out")
    assert rc == 0 and len(calls) == 2


MATRIX_BOUND = f"a matrix holds at most {MAX_LETTERS} entries, and no side longer than that"


@pytest.mark.parametrize("command", ["perfect", "matrix", "theorem3"])
def test_exponent_matrix_past_the_entry_bound_exits_2(run, tmp_path, command):
    # Higman m = 1001 is 1001 x 1001, just past the bound; m = 800 still runs
    rc, text, _ = run("corpus", "--family", "higman", "--m", 1001)
    bundle = tmp_path / "bundle"
    extra = ["-o", bundle] if command == "theorem3" else []
    rc, out, err = run(command, write(tmp_path, "h.pres", text), *extra)
    assert (rc, out) == (2, "")
    assert err == f"error: the exponent matrix would be 1001 x 1001; {MATRIX_BOUND}\n"
    assert not bundle.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("snf", "1001 0\n", f"U or V of a 1001 x 0 matrix would be 1001 x 1001; {MATRIX_BOUND}"),
        ("lemma2", f"{MAX_LETTERS + 1} 0\n", f"the matrix would be {MAX_LETTERS + 1} x 0; {MATRIX_BOUND}"),
    ],
    ids=["transform", "header"],
)
def test_matrix_past_the_entry_bound_exits_2(run, tmp_path, command, text, message):
    t0 = time.perf_counter()
    assert run(command, write(tmp_path, "big.mat", text)) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - t0 < 1
