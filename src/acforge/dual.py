"""Dual presentations from occurrence orderings, and their alignment.

Given a balanced presentation P on generators a_1..a_n with relators
r_1..r_n, the dual presentation has one generator per relator of P and one
relator rho_i per generator of P: each occurrence a_i^e inside r_j
contributes a letter (dual generator j)^e to rho_i, taken in a chosen
per-generator order of all occurrences of a_i.  With the default
left-to-right scan order, the dual's exponent matrix is exactly the
transpose of P's.

Occurrence orders are free, and cancelling pairs a_i a_i^-1 may be spliced
into relators without changing the group or the matrix.  ``align`` uses
both freedoms.  Lemma 2 builds a trivial-group presentation Q realizing
the transposed matrix, with its trivializing certificate; its refusal is
the one test that P is perfect.  One pass over each q_i then orders the
occurrences of a_i so that the dual of the padded P is Q letter for
letter, appending a pad a_i a_i^-1 to r_j whenever r_j runs out of the
occurrence q_i needs next.  The result certifies that the chosen dual
presents the trivial group.  P-side pads are appended to the relators of
the augmented presentation; occurrences left over (Q-side surplus) are
recorded in the witness only, as cancelling dual-generator pairs that free
reduction removes from the dual, so the trivialization is Q's certificate
unchanged.

Augmented presentations keep relators as raw (unreduced) letter sequences:
inserted pairs must stay addressable as occurrences.  Their record,
``AugmentedPresentation``, lives in the ``presentation`` module beside
``Presentation``; that module also holds ``unchecked_presentation``, the
build that ``dualize`` uses.
"""

from __future__ import annotations

from collections import defaultdict, deque
from pathlib import Path
from typing import DefaultDict, Deque, List, NamedTuple, Tuple

from .intmatrix import exponent_matrix, invariant_factors
from .lemma2 import NotUnimodular, presentation_from_matrix
from .moves import AcCertificate, format_certificate, parse_certificate, replay
from .presentation import (
    AugmentedPresentation,
    Presentation,
    format_presentation,
    int_field,
    parse_presentation,
    parse_raw,
    require_balanced,
    unchecked_presentation,
    write_text,
)
from .words import check_letters, free_reduce


class Occurrence(NamedTuple):
    """One signed appearance of a generator: relator index (1-based),
    position in that relator's raw letter sequence (0-based), sign."""

    relator: int
    position: int
    sign: int


class OrderingWitness(NamedTuple):
    """Per generator, an ordering of all its occurrences across relators."""

    per_generator: Tuple[Tuple[Occurrence, ...], ...]


class KnotCertificate(NamedTuple):
    """The full output bundle pairing a perfect balanced presentation with
    an aligned, trivializable dual.

    source:         the input presentation P
    augmented:      P with cancelling pairs spliced in (raw sequences)
    witness:        occurrence ordering with dualize(augmented, witness) == dual
    dual:           presentation of the trivial group
    trivialization: certificate from the empty presentation to dual
    """

    source: Presentation
    augmented: AugmentedPresentation
    witness: OrderingWitness
    dual: Presentation
    trivialization: AcCertificate


def occurrence_lists(p) -> Tuple[Tuple[Occurrence, ...], ...]:
    """All occurrences of each generator, scanning r_1..r_n left to right."""
    out: List[List[Occurrence]] = [[] for _ in p.generators]
    for j, r in enumerate(p.relators, start=1):
        for pos, x in enumerate(r):
            out[abs(x) - 1].append(Occurrence(j, pos, 1 if x > 0 else -1))
    return tuple(tuple(lst) for lst in out)


def default_witness(p) -> OrderingWitness:
    """Occurrences in plain scan order; accepts reduced or augmented input."""
    require_balanced(p)
    return OrderingWitness(occurrence_lists(p))


def _check_witness(p, w: OrderingWitness):
    """Raise ValueError unless ``w`` orders the occurrences of the checked
    ``p``.  A caller's witness is one of the edges where a word enters and
    ``words.check_letters`` runs (the ``words`` module docstring lists
    them).  Each occurrence must be a tuple of three entries; then the word
    each line spells, letters ``sign * relator`` of the ``len(p.relators)``
    dual generators, is checked; then every entry must be an int, not a
    bool or a float, before the occurrences are sorted and matched with
    ``==``, under which ``Occurrence(1.0, 0, 1)`` or a sign ``True`` would
    pass."""
    actual = occurrence_lists(p)
    if len(w.per_generator) != len(actual):
        raise ValueError(
            f"witness covers {len(w.per_generator)} generator(s), "
            f"presentation has {len(actual)}"
        )
    for i, (claimed, truth) in enumerate(zip(w.per_generator, actual), start=1):
        odd = [o for o in claimed if not isinstance(o, tuple) or len(o) != 3]
        if not odd:
            check_letters([sign * j for j, _, sign in claimed], len(p.relators))
            odd = [o for o in claimed if not type(o[0]) is type(o[1]) is type(o[2]) is int]
        if odd:
            raise ValueError(f"witness for generator {i}: occurrence {odd[0]!r} is not three ints")
        if sorted(claimed) != sorted(truth):
            raise ValueError(
                f"witness for generator {i} is not a permutation of its occurrence set"
            )


def dualize(p, w: OrderingWitness | None = None) -> Presentation:
    """The dual presentation under the given (default: scan-order) witness.

    Dual relator i reads off (dual generator j)^sign per occurrence of
    generator i, in witness order; stored freely reduced.  The dual skips
    the validating constructor: its names are x1..xn, and its letters are
    relator indices of the checked p, read off by ``occurrence_lists``
    or matched to them by ``_check_witness``.
    """
    require_balanced(p)
    if w is None:
        w = default_witness(p)
    else:
        _check_witness(p, w)
    relators = tuple(free_reduce([occ.sign * occ.relator for occ in occs]) for occs in w.per_generator)
    return unchecked_presentation(tuple(f"x{k}" for k in range(1, len(p.generators) + 1)), relators)


def align(p: Presentation) -> KnotCertificate:
    """Choose pads and an occurrence order making the dual provably trivial.

    Requires a balanced presentation of a perfect group (unimodular
    exponent matrix).  Returns the full certificate bundle; every claimed
    identity (``dualize(augmented, witness) == dual`` among them) is
    checked once, by ``verify_knot_certificate``, before returning.
    """
    require_balanced(p)
    a = exponent_matrix(p)
    try:
        q, cert = presentation_from_matrix(a.transpose())
    except NotUnimodular as e:
        raise ValueError(
            f"presentation is not perfect: det {e.det}, "
            f"invariant factors {invariant_factors(a)}"
        ) from None

    # Witness for a_i: each letter x_j^e of q_i takes the next unused
    # occurrence of a_i^e in r_j, in scan order, after appending the pad
    # a_i a_i^-1 to r_j if it has none left; the occurrences left over
    # follow as cancelling x_j x_j^-1 pairs, j ascending.
    rels = [list(r) for r in p.relators]
    per_generator = []
    for i, (occs, target) in enumerate(zip(occurrence_lists(p), q.relators), start=1):
        unused: DefaultDict[Tuple[int, int], Deque[Occurrence]] = defaultdict(deque)
        for occ in occs:
            unused[occ.relator, occ.sign].append(occ)
        order = []
        for x in target:
            j, sign = abs(x), 1 if x > 0 else -1
            if not unused[j, sign]:
                r = rels[j - 1]
                unused[j, 1].append(Occurrence(j, len(r), 1))
                unused[j, -1].append(Occurrence(j, len(r) + 1, -1))
                r += (i, -i)
            order.append(unused[j, sign].popleft())
        for j in sorted({j for j, _ in unused}):
            for pair in zip(unused[j, 1], unused[j, -1]):
                order.extend(pair)
        per_generator.append(tuple(order))
    augmented = AugmentedPresentation(p.generators, tuple(tuple(r) for r in rels))
    witness = OrderingWitness(tuple(per_generator))

    kc = KnotCertificate(
        source=p,
        augmented=augmented,
        witness=witness,
        dual=q,
        trivialization=cert,
    )
    problems = verify_knot_certificate(kc)
    if problems:
        raise AssertionError(f"alignment produced an invalid bundle: {problems}")
    return kc


def verify_knot_certificate(kc: KnotCertificate) -> List[str]:
    """Re-check every claimed identity; returns a list of failures (empty = good)."""
    problems = []
    if kc.augmented.reduced() != kc.source:
        problems.append("augmented presentation does not reduce to the source")
    src_matrix = exponent_matrix(kc.source)
    if exponent_matrix(kc.augmented) != src_matrix:
        problems.append("pair insertion changed the exponent matrix")
    try:
        dual = dualize(kc.augmented, kc.witness)
    except ValueError as e:
        problems.append(f"witness invalid: {e}")
    else:
        if dual != kc.dual:
            problems.append("dual does not equal dualize(augmented, witness)")
    if exponent_matrix(kc.dual) != src_matrix.transpose():
        problems.append("dual's exponent matrix is not the transpose")
    if kc.trivialization.start.generators or kc.trivialization.start.relators:
        problems.append("trivialization does not start at the empty presentation")
    if kc.trivialization.end != kc.dual:
        problems.append("trivialization does not end at the dual")
    if not replay(kc.trivialization):
        problems.append("trivialization certificate does not replay")
    return problems


# --- bundle files ------------------------------------------------------------


def format_witness(w: OrderingWitness) -> str:
    """One line per generator: space-separated relator:position:sign triples."""
    lines = []
    for occs in w.per_generator:
        lines.append(
            " ".join(f"{o.relator}:{o.position}:{'+' if o.sign > 0 else '-'}" for o in occs)
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_witness(text: str) -> OrderingWitness:
    per_generator = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        occs = []
        try:
            for triple in line.split():
                fields = triple.split(":")
                if len(fields) != 3:
                    raise ValueError(f"witness triple {triple!r} has {len(fields)} fields, not 3")
                j, pos, sign = fields
                if sign not in ("+", "-"):
                    raise ValueError(f"bad sign {sign!r} in witness triple {triple!r}")
                occs.append(Occurrence(int_field(j), int_field(pos), 1 if sign == "+" else -1))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        per_generator.append(tuple(occs))
    return OrderingWitness(tuple(per_generator))


def write_bundle(kc: KnotCertificate, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_text(d / "source.pres", format_presentation(kc.source) + "\n")
    write_text(d / "augmented.pres", format_presentation(kc.augmented) + "\n")
    write_text(d / "witness.txt", format_witness(kc.witness))
    write_text(d / "dual.pres", format_presentation(kc.dual) + "\n")
    write_text(d / "trivialization.cert", format_certificate(kc.trivialization))


def read_bundle(directory) -> KnotCertificate:
    d = Path(directory)
    source = parse_presentation((d / "source.pres").read_text())
    names, raw = parse_raw((d / "augmented.pres").read_text())
    augmented = AugmentedPresentation(names, raw)
    witness = parse_witness((d / "witness.txt").read_text())
    dual = parse_presentation((d / "dual.pres").read_text())
    trivialization = parse_certificate((d / "trivialization.cert").read_text())
    return KnotCertificate(source, augmented, witness, dual, trivialization)
