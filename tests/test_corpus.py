import pytest

from acforge import cli, corpus
from acforge.cli import main
from acforge.corpus import (
    DUAL_POINCARE_TEXT,
    NONTRIVIAL_OR_CAP,
    POINCARE_TEXT,
    TRIVIAL_OR_CAP,
    CorpusEntry,
    check_entry,
)

# cheap entries that pass; each case below breaks one expectation
POINCARE = CorpusEntry(name="poincare", text=POINCARE_TEXT, order=120)
DUAL_POINCARE = CorpusEntry(name="dual_poincare", text=DUAL_POINCARE_TEXT, order=1)


def test_corpus_command_passes(capsys):
    assert main(["corpus"]) == 0
    assert capsys.readouterr().out.endswith("OK 11/11\n")


def test_a_capped_enumeration_is_not_an_exact_order():
    # CapExceeded(120) == Finite(120) as tuples; the check must tell them apart
    entry = CorpusEntry(name="capped", text=POINCARE_TEXT, order=120, max_cosets=120)
    assert check_entry(entry) == ["order: expected 120, got CapExceeded(cosets=120)"]


@pytest.mark.parametrize(
    "entry, problems",
    [
        (POINCARE, []),
        (DUAL_POINCARE._replace(ac_trivializable=True, quotient_degree=None), []),
        (
            CorpusEntry(name="z", text="< a, b | a >", order_expectation=NONTRIVIAL_OR_CAP, max_cosets=10),
            ["not balanced", "not perfect"],
        ),
        (POINCARE._replace(text="< a | a^2 >", order=2), ["not perfect"]),
        (POINCARE._replace(order=60), ["order: expected 60, got Finite(order=120)"]),
        (
            POINCARE._replace(order_expectation=TRIVIAL_OR_CAP),
            ["order: nontriviality wrongly claimed: Finite(order=120)"],
        ),
        (DUAL_POINCARE._replace(order_expectation=NONTRIVIAL_OR_CAP), ["order: triviality wrongly claimed"]),
        (
            POINCARE._replace(ac_trivializable=True, search_depth=1),
            ["search: expected a trivialization certificate"],
        ),
        (DUAL_POINCARE._replace(ac_trivializable=False), ["search: unexpectedly found a certificate"]),
        (DUAL_POINCARE._replace(quotient_degree=3), ["quotient: expected a witness at degree 3"]),
        (
            POINCARE._replace(quotient_degree=5, quotient_order=120),
            ["quotient: expected image order 120, got 60"],
        ),
    ],
    ids=[
        "poincare",
        "dual-poincare",
        "not-balanced",
        "not-perfect",
        "wrong-order",
        "nontrivial-claimed",
        "trivial-claimed",
        "search-not-found",
        "search-found",
        "quotient-missing",
        "wrong-image-order",
    ],
)
def test_check_entry_names_each_regression(entry, problems):
    assert check_entry(entry) == problems


def test_check_entry_names_a_result_that_does_not_re_verify(monkeypatch):
    monkeypatch.setattr(corpus, "replay", lambda cert: False)
    monkeypatch.setattr(corpus, "verify_witness", lambda p, w: False)
    assert check_entry(POINCARE._replace(quotient_degree=5)) == ["quotient: witness does not re-verify"]
    assert check_entry(DUAL_POINCARE._replace(ac_trivializable=True)) == ["search: certificate does not replay"]


def test_corpus_command_reports_a_regression(monkeypatch, capsys):
    entries = corpus.all_entries()
    broken = tuple(e._replace(order=60) if e.name == "poincare" else e for e in entries)
    assert broken != entries
    monkeypatch.setattr(cli, "all_entries", lambda: broken)
    assert main(["corpus"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "poincare: FAIL (order: expected 60, got Finite(order=120))" in out
    assert out[-1] == "FAIL 10/11"
    assert sum(line.endswith(": ok") for line in out) == 10
