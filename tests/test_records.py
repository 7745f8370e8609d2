"""The contract of the package's value classes: slot records (the moves,
presentations, certificates, search limits and integer matrices) and
NamedTuple records."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from acforge.coset import CosetTable
from acforge.dual import AugmentedPresentation, OrderingWitness
from acforge.intmatrix import IntMatrix
from acforge.moves import (
    AcCertificate,
    CyclicPermute,
    Destabilize,
    InvertRelator,
    MultiplyRight,
    Stabilize,
    _Replay,
)
from acforge.presentation import Presentation
from acforge.quotient import FiniteQuotientWitness
from acforge.search import SearchLimits

SRC = Path(__file__).resolve().parents[1] / "src"

P = Presentation(("a", "b"), ((1, 2, -2), (2,)))
SLOT_RECORDS = [
    CyclicPermute(1, 2),
    InvertRelator(1),
    MultiplyRight(1, 2, -3),
    Stabilize((1, -2)),
    Destabilize(1, 2),
    P,
    AugmentedPresentation(("a", "b"), ((1, 2, -2), (2,))),
    AcCertificate(P, (InvertRelator(2),), P),
    SearchLimits(max_states=7),
    IntMatrix([[1, -2], [0, 3]]),
]
IDS = [type(r).__name__ for r in SLOT_RECORDS]


def test_equality_is_by_type_and_fields():
    assert CyclicPermute(1, 2) == CyclicPermute(1, 2)
    assert CyclicPermute(1, 2) != CyclicPermute(2, 1)
    assert CyclicPermute(1, 2) != Destabilize(1, 2)
    assert P != (P.generators, P.relators)
    assert P != AugmentedPresentation(P.generators, P.relators)
    assert InvertRelator(1) != 1
    assert IntMatrix([], ncols=2) != IntMatrix([], ncols=3)
    assert IntMatrix([[1]]) != ((1,),)


@pytest.mark.parametrize("record", SLOT_RECORDS, ids=IDS)
def test_hash_agrees_with_equality(record):
    twin = copy.copy(record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_hash_of_a_reduced_and_an_unvalidated_presentation():
    unreduced = Presentation(("a", "b"), ((1, 2, -2, 1, -1), (-1, 1, 2)))
    assert unreduced == P and hash(unreduced) == hash(P)
    # a replay state's presentation skips the validating constructor
    built = _Replay(P).presentation()
    assert built == P and hash(built) == hash(P)
    assert {P: 1}[built] == 1


def test_defaults_and_keywords():
    assert MultiplyRight(1, 2).exponent == 1
    assert MultiplyRight(relator=1, other=2) == MultiplyRight(1, 2, 1)
    assert Stabilize().word == ()
    limits = SearchLimits()
    assert (limits.max_total_letters, limits.max_relator_letters, limits.max_depth, limits.max_states) == (
        40,
        16,
        12,
        5_000_000,
    )
    assert SearchLimits(max_depth=3) == SearchLimits(40, 16, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SearchLimits(max_depth=0),
        lambda: SearchLimits(max_states=-1),
        lambda: Presentation(("a",), ((2,),)),
        lambda: Presentation(("a", "a"), ()),
        lambda: Presentation(("1a",), ()),
        lambda: AugmentedPresentation(("a",), ((1, 0),)),
    ],
    ids=["depth", "states", "letter", "repeated-name", "bad-name", "augmented-letter"],
)
def test_constructors_that_check_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_presentation_stores_relators_reduced():
    assert Presentation(("a",), ((1, -1, 1),)).relators == ((1,),)
    # the augmented form keeps cancelling pairs
    assert AugmentedPresentation(("a",), ((1, -1, 1),)).relators == ((1, -1, 1),)


def test_certificate_merges_runs():
    moves = (
        MultiplyRight(1, 2),
        MultiplyRight(1, 2, 3),
        MultiplyRight(1, 2, -1),
        InvertRelator(1),
        MultiplyRight(2, 1),
        MultiplyRight(2, 1),
    )
    cert = AcCertificate(P, moves, P)
    assert cert.moves == (
        MultiplyRight(1, 2, 4),
        MultiplyRight(1, 2, -1),
        InvertRelator(1),
        MultiplyRight(2, 1, 2),
    )
    assert cert.length == 8
    assert AcCertificate(P, list(moves), P) == cert  # any iterable of moves
    assert AcCertificate(cert.start, cert.moves, cert.end) == cert


def test_repr_names_the_fields():
    assert repr(MultiplyRight(1, 2)) == "MultiplyRight(relator=1, other=2, exponent=1)"
    assert repr(Stabilize()) == "Stabilize(word=())"
    assert repr(P) == "Presentation(generators=('a', 'b'), relators=((1,), (2,)))"
    assert repr(SearchLimits()) == (
        "SearchLimits(max_total_letters=40, max_relator_letters=16, max_depth=12, max_states=5000000)"
    )
    assert repr(CosetTable(1, ((0, 0),))) == "CosetTable(n_generators=1, rows=((0, 0),))"
    assert repr(FiniteQuotientWitness(2, ((1, 0),), 2)) == (
        "FiniteQuotientWitness(degree=2, images=((1, 0),), image_order=2)"
    )
    assert repr(OrderingWitness(())) == "OrderingWitness(per_generator=())"
    assert repr(IntMatrix([[1, 2]])) == "IntMatrix(rows=((1, 2),), ncols=2)"


@pytest.mark.parametrize("record", SLOT_RECORDS, ids=IDS)
def test_slot_records_are_frozen_and_pickle(record):
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_matrix_counts_its_rows_and_keeps_its_width():
    a = IntMatrix([], ncols=3)
    assert (a.nrows, a.ncols) == (0, 3)
    with pytest.raises(AttributeError):
        a.nrows = 1
    assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import acforge.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("build", [Presentation, AugmentedPresentation], ids=["Presentation", "AugmentedPresentation"])
def test_presentation_records_from_lists_equal_and_hash_like_from_tuples(build):
    from_lists = build(["a", "b"], [[1, 2, -2], [2]])
    from_tuples = build(("a", "b"), ((1, 2, -2), (2,)))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert type(from_lists.generators) is tuple
    assert type(from_lists.relators) is tuple and all(type(r) is tuple for r in from_lists.relators)


def test_stabilize_from_a_list_equals_and_hashes_like_from_a_tuple():
    assert Stabilize([1, -2]) == Stabilize((1, -2)) and hash(Stabilize([1, -2])) == hash(Stabilize((1, -2)))
    assert Stabilize([]) == Stabilize()


def test_records_do_not_follow_the_callers_lists():
    names, word = ["a"], [1, 1]
    p, aug, stab = Presentation(names, [word]), AugmentedPresentation(names, [word]), Stabilize(word)
    names.append("b")
    word.append(-1)
    assert p == Presentation(("a",), ((1, 1),))
    assert aug == AugmentedPresentation(("a",), ((1, 1),))
    assert stab == Stabilize((1, 1))
