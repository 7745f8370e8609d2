from acforge.cli import main


def test_corpus_command_passes(capsys):
    assert main(["corpus"]) == 0
    assert capsys.readouterr().out.endswith("OK 11/11\n")
