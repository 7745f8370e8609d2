from acforge.cli import main
from acforge.corpus import POINCARE_TEXT, CorpusEntry, check_entry


def test_corpus_command_passes(capsys):
    assert main(["corpus"]) == 0
    assert capsys.readouterr().out.endswith("OK 11/11\n")


def test_a_capped_enumeration_is_not_an_exact_order():
    # CapExceeded(120) == Finite(120) as tuples; the check must tell them apart
    entry = CorpusEntry(name="capped", text=POINCARE_TEXT, order=120, max_cosets=120)
    assert check_entry(entry) == ["order: expected 120, got CapExceeded(cosets=120)"]
