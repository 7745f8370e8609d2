"""Command-line interface.

Input has one path.  ``build_parser``'s ``add`` declares each subcommand's
positional ``file`` with its reader: ``read_presentation`` by default,
``read_matrix`` for ``snf`` and ``lemma2``, ``read_certificate`` for
``verify-cert``, and none for ``corpus``.  ``main`` calls the reader inside
its ``try``, so a missing file or a parse error exits 2, and passes the
parsed input to the subcommand as ``cmd_*(input, args)``.  The readers are
module functions that name ``parse_presentation``, ``matrix_from_text`` or
``parse_certificate`` when called, not stored parser functions: the parser
is built once and cached, and a caller that replaces these parsers in this
module later (a timing wrapper, say) must still see every call.

Each ``cmd_*`` returns ``(verdict, lines, data)``; ``main`` prints it and
exits 0, or 1 for a verdict in ``NEGATIVE`` (a false predicate,
CAP-EXCEEDED, EXHAUSTED, NOT-FOUND, a failed check, a corpus
``regression``), or 2 on usage or parse errors and inputs or results past
a size cap (``MAX_LETTERS`` letters, ``MAX_ROW_ADDITIONS`` row additions,
``MAX_TABLE_SLOTS`` letters of relator conjugates in ``quotient``; in
``acsearch``, more than ``search.MAX_GENERATORS`` = 127 generators and
start-state rotations of ``search.ROTATION_BYTES`` bytes or more; an
integer past Python's int digit limit read or written by a line-file
reader or writer).
All outputs are deterministic byte-for-byte for identical inputs and
flags; timings appear in json output only with --timings.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .coset import DEFAULT_MAX_COSETS, CapExceeded, coset_table, enumerate_cosets
from .corpus import all_entries, check_entry, higman_presentation
from .dual import align, dualize, write_bundle
from .intmatrix import (
    exponent_matrix,
    ints_text,
    invariant_factors,
    matrix_from_text,
    matrix_to_text,
    smith_normal_form,
    trivial_abelianization,
)
from .lemma2 import presentation_from_matrix
from .moves import format_certificate, parse_certificate, replay_trace
from .presentation import (
    format_presentation,
    is_balanced,
    parse_presentation,
    total_letters,
    write_text,
)
from .quotient import DEFAULT_MAX_DEGREE, cycle_notation, find_nontrivial_quotient
from .search import SearchLimits, search_trivialization


# the verdicts that exit 1; every other verdict exits 0
NEGATIVE = {"unbalanced", "imperfect", "cap-exceeded", "exhausted", "not-found", "failed", "regression"}


# --- readers: a subcommand's input from its file; the docstring is the file's help


def read_presentation(path: str):
    """presentation file"""
    return parse_presentation(Path(path).read_text())


def read_matrix(path: str):
    """matrix file ('n m' header, then rows)"""
    return matrix_from_text(Path(path).read_text())


def read_certificate(path: str):
    """certificate file"""
    return parse_certificate(Path(path).read_text())


# --- subcommands --------------------------------------------------------------


def cmd_parse(p, args) -> tuple:
    text = format_presentation(p)
    return (
        "ok",
        [text],
        {"presentation": text, "generators": len(p.generators), "relators": len(p.relators)},
    )


def cmd_balanced(p, args) -> tuple:
    flag = is_balanced(p)
    return "balanced" if flag else "unbalanced", [f"BALANCED {str(flag).lower()}"], {"balanced": flag}


def cmd_matrix(p, args) -> tuple:
    a = exponent_matrix(p)
    return (
        "ok",
        [matrix_to_text(a).rstrip("\n")],
        {"rows": a.nrows, "cols": a.ncols, "entries": [list(r) for r in a.rows]},
    )


def cmd_snf(a, args) -> tuple:
    factors, u, v = smith_normal_form(a)
    # built in json mode too: json.dumps writes ints under the same digit
    # limit, and an entry past it is named here
    lines = [
        f"FACTORS {ints_text(factors, 'FACTORS')}".rstrip(),
        "U",
        matrix_to_text(u, "U").rstrip("\n"),
        "V",
        matrix_to_text(v, "V").rstrip("\n"),
    ]
    return (
        "ok",
        lines,
        {
            "factors": list(factors),
            "u": [list(r) for r in u.rows],
            "v": [list(r) for r in v.rows],
        },
    )


def cmd_perfect(p, args) -> tuple:
    facs = invariant_factors(exponent_matrix(p))
    flag = trivial_abelianization(facs, len(p.generators))
    return (
        "perfect" if flag else "imperfect",
        [f"PERFECT {str(flag).lower()}"],
        {"perfect": flag, "invariant_factors": list(facs)},
    )


def cmd_lemma2(a, args) -> tuple:
    p, cert = presentation_from_matrix(a)
    pres_text = format_presentation(p)
    letters = total_letters(p)
    lines = [pres_text, f"LETTERS {letters}"]
    if args.output:
        d = Path(args.output)
        d.mkdir(parents=True, exist_ok=True)
        write_text(d / "presentation.pres", pres_text + "\n")
        write_text(d / "build.cert", format_certificate(cert))
        lines += [f"WROTE {d / 'presentation.pres'}", f"WROTE {d / 'build.cert'}"]
    elif args.format == "text":  # json prints no certificate, so none is formatted
        lines.append(format_certificate(cert).rstrip("\n"))
    return (
        "ok",
        lines,
        {"presentation": pres_text, "letters": letters, "moves": cert.length},
    )


def cmd_dualize(p, args) -> tuple:
    d = dualize(p)
    text = format_presentation(d)
    return "ok", [text], {"dual": text}


def cmd_theorem3(p, args) -> tuple:
    kc = align(p)
    d = Path(args.output)
    write_bundle(kc, d)
    dual_text = format_presentation(kc.dual)
    lines = [
        f"WROTE {d}",
        f"DUAL {dual_text}",
        f"MOVES {kc.trivialization.length}",
    ]
    return (
        "ok",
        lines,
        {
            "bundle": str(d),
            "dual": dual_text,
            "moves": kc.trivialization.length,
            "insertions": sum(len(a) - len(s) for a, s in zip(kc.augmented.relators, kc.source.relators)) // 2,
        },
    )


def _table_lines(rows) -> list:
    """One text line per coset table row, cosets named 1, 2, ... (the names
    are freed before the lines are printed); a row of no columns is ``1:``."""
    names = [str(k + 1) for k in range(len(rows))]
    return [f"{i}: {' '.join(map(names.__getitem__, row))}".rstrip() for i, row in zip(names, rows)]


def cmd_order(p, args) -> tuple:
    result = (coset_table if args.table else enumerate_cosets)(p, args.max_cosets)
    if isinstance(result, CapExceeded):
        return "cap-exceeded", [f"CAP-EXCEEDED {result.cosets}"], {"cosets": result.cosets}
    lines, data = [f"ORDER {result.order}"], {"order": result.order}
    if args.table and args.format == "json":
        data["table"] = [[x + 1 for x in row] for row in result.rows]
    elif args.table:
        lines += _table_lines(result.rows)
    return "order", lines, data


def cmd_quotient(p, args) -> tuple:
    w = find_nontrivial_quotient(p, args.max_degree)
    if w is None:
        return "exhausted", [f"EXHAUSTED {args.max_degree}"], {"max_degree": args.max_degree}
    images = {name: cycle_notation(img) for name, img in zip(p.generators, w.images)}
    lines = [f"DEGREE {w.degree}", *(f"{name} -> {c}" for name, c in images.items())]
    lines.append(f"IMAGE-ORDER {w.image_order}")
    return "found", lines, {"degree": w.degree, "images": images, "image_order": w.image_order}


def cmd_acsearch(p, args) -> tuple:
    limits = SearchLimits(
        max_total_letters=args.max_total_letters,
        max_relator_letters=args.max_letters,
        max_depth=args.max_depth,
        max_states=args.max_states,
    )
    r = search_trivialization(p, limits)
    stats = {
        "states_seen": r.states_seen,
        "states_expanded": r.states_expanded,
        "limit_hit": r.limit_hit,
        "frontier": list(r.frontier),
    }
    if r.found:
        lines = [
            f"FOUND depth={r.found_depth} moves={r.certificate.length} "
            f"states-seen={r.states_seen} states-expanded={r.states_expanded}"
        ]
        if args.output:
            write_text(args.output, format_certificate(r.certificate))
            lines.append(f"WROTE {args.output}")
        elif args.format == "text":  # json prints no certificate, so none is formatted
            lines.append(format_certificate(r.certificate).rstrip("\n"))
        return (
            "found",
            lines,
            dict(stats, depth=r.found_depth, moves=r.certificate.length),
        )
    lines = [
        "NOT-FOUND",
        f"STATES-SEEN {r.states_seen}",
        f"STATES-EXPANDED {r.states_expanded}",
        f"LIMIT {r.limit_hit or 'space-exhausted'}",
    ]
    return "not-found", lines, stats


def cmd_verify_cert(cert, args) -> tuple:
    ok, step, final = replay_trace(cert)
    if ok:
        return "verified", ["OK"], {"moves": cert.length}
    return (
        "failed",
        [f"FAILED step {step}"],
        {"failed_step": step, "reached": format_presentation(final)},
    )


def cmd_corpus(_, args) -> tuple:
    if args.family:
        variant = (1, 2) if args.family == "higman" else (2, 3)
        text = format_presentation(higman_presentation(args.m, variant))
        return "ok", [text], {"presentation": text, "family": args.family, "m": args.m}
    entries = all_entries()
    lines = []
    failures = {}
    for entry in entries:
        problems = check_entry(entry)
        if problems:
            failures[entry.name] = problems
            lines.append(f"{entry.name}: FAIL ({'; '.join(problems)})")
        else:
            lines.append(f"{entry.name}: ok")
    lines.append(f"{'FAIL' if failures else 'OK'} {len(entries) - len(failures)}/{len(entries)}")
    return "ok" if not failures else "regression", lines, {"failures": failures}


# --- parser --------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="acforge",
        description="Andrews-Curtis move calculus on balanced group presentations: "
        "exact abelianization, trivial-group constructions from unimodular matrices, "
        "dual presentations with alignment certificates, coset enumeration, finite "
        "quotient search, and bounded trivialization search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, reader=read_presentation):
        s = sub.add_parser(name, help=help_text)
        s.set_defaults(func=func, reader=reader)
        if reader:
            s.add_argument("file", help=reader.__doc__)
        s.add_argument("--format", choices=("text", "json"), default="text")
        s.add_argument("--timings", action="store_true", help="include wall time in json output")
        return s

    add("parse", cmd_parse, "parse a presentation file and echo its canonical form")
    add("balanced", cmd_balanced, "check generator count == relator count")
    add("matrix", cmd_matrix, "print the exponent (abelianized presentation) matrix")
    add("snf", cmd_snf, "Smith normal form of a matrix file (factors, U, V)", read_matrix)
    add("perfect", cmd_perfect, "check that the abelianization is trivial")

    s = add("lemma2", cmd_lemma2, "trivial-group presentation realizing a unimodular matrix", read_matrix)
    s.add_argument("-o", "--output", help="directory for presentation.pres and build.cert")

    add("dualize", cmd_dualize, "dual presentation under the scan-order witness")

    s = add("theorem3", cmd_theorem3, "aligned dual + trivialization certificate bundle")
    s.add_argument("-o", "--output", required=True, help="bundle output directory")

    s = add("order", cmd_order, "group order by coset enumeration (HLT)")
    s.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    s.add_argument("--table", action="store_true", help="dump the closed coset table")

    s = add("quotient", cmd_quotient, "search for a quotient in a symmetric group")
    s.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)

    s = add("acsearch", cmd_acsearch, "bounded search for a trivializing move certificate")
    s.add_argument("--max-depth", type=int, default=SearchLimits().max_depth)
    s.add_argument("--max-letters", type=int, default=SearchLimits().max_relator_letters)
    s.add_argument("--max-total-letters", type=int, default=SearchLimits().max_total_letters)
    s.add_argument("--max-states", type=int, default=SearchLimits().max_states)
    s.add_argument("-o", "--output", help="write the certificate to this file")

    add("verify-cert", cmd_verify_cert, "replay a certificate file", read_certificate)

    s = add("corpus", cmd_corpus, "run the example corpus, or print a family presentation", None)
    s.add_argument("--family", choices=("higman", "higman23"))
    s.add_argument("--m", type=int, default=4, help="family size (with --family)")

    return parser


LINES_PER_WRITE = 4096


def write_lines(lines) -> None:
    """Write what ``print(*lines, sep="\\n")`` writes, a lone newline for no
    lines, joining blocks of ``LINES_PER_WRITE`` lines: print makes two
    writes a line, and one joined string of every line would double the
    memory of a long table.  With standard output closed (``sys.stdout`` is
    None) it writes nothing, as print does.  Text and json output both go
    through it."""
    if sys.stdout is None:
        return
    write = sys.stdout.write
    for k in range(0, len(lines) or 1, LINES_PER_WRITE):
        write("\n".join(lines[k : k + LINES_PER_WRITE]))
        write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        verdict, lines, data = args.func(args.reader(args.file) if args.reader else None, args)
        if args.format == "json":
            import json  # only here: a text run never loads it

            timings = {"seconds": round(time.monotonic() - t0, 3)} if args.timings else {}
            payload = {"verdict": verdict, "data": data, "timings": timings}
            write_lines([json.dumps(payload, sort_keys=True, indent=2)])
        else:
            write_lines(lines)
    except (ValueError, OSError) as e:  # ParseError and CertificateError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 1 if verdict in NEGATIVE else 0


if __name__ == "__main__":
    sys.exit(main())
