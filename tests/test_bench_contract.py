"""What the traced benchmark run needs of ``acforge``.

``perfbench/layers.py`` wraps library functions by name and, for the hot
kernels, captures their arguments by replacing the function objects that
``acforge`` modules hold; ``perfbench/measure.py`` then times each kernel
listed in ``ISOLATED`` on those arguments.  A renamed function, or a kernel
that is no longer called through a module binding, leaves a per-layer
metric unmeasured and the traced run fails.  These tests read both files
as they are and run small CLI operations under the capture.
"""

import importlib
from pathlib import Path

import pytest

from acforge.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DUAL_POINCARE = "< alpha, beta | alpha^2 beta^3, alpha^-1 beta^-2 >"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``layers`` and ``measure`` modules, kernel timing cut short."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    measure = importlib.import_module("measure")
    monkeypatch.setattr(layers, "ISOLATED_SECONDS", 0.001)
    return layers, measure


def test_wrapped_and_hot_names_resolve(bench):
    layers, _ = bench
    names = [(mod, fname) for mod, fname, _ in layers.WRAPPED] + list(layers.HOT)
    for mod, fname in names:
        assert callable(getattr(importlib.import_module(f"acforge.{mod}"), fname, None)), (mod, fname)


def captured(layers, argvs, capsys):
    """Run CLI commands with the hot-kernel capture installed."""
    capture = layers.Capture()
    patches = layers.Patches()
    capture.install(patches)
    try:
        for argv in argvs:
            assert main([str(a) for a in argv]) == 0, argv
    finally:
        patches.undo()
    capsys.readouterr()
    return capture


def test_found_search_feeds_the_search_kernels(bench, tmp_path, capsys):
    layers, measure = bench
    pres = tmp_path / "dp.pres"
    pres.write_text(DUAL_POINCARE)
    capture = captured(layers, [("acsearch", pres, "-o", tmp_path / "dp.cert")], capsys)
    for key in ("search.canonical_relator", "words.concat"):
        assert capture.samples.get(key), key
    assert set(layers.isolated_kernels(capture, measure.ISOLATED["search"])) == set(
        measure.ISOLATED["search"]
    )


def test_lemma2_and_verify_cert_feed_the_move_kernels(bench, tmp_path, capsys):
    layers, measure = bench
    matrix = tmp_path / "m.mat"
    matrix.write_text("2 2\n2 3\n1 2\n")
    out = tmp_path / "out"
    capture = captured(
        layers, [("lemma2", matrix, "-o", out), ("verify-cert", out / "build.cert")], capsys
    )
    for key in ("moves.apply_move", "presentation.Presentation", "words.free_reduce"):
        assert capture.samples.get(key), key
    assert set(layers.isolated_kernels(capture, measure.ISOLATED["certify"])) == set(
        measure.ISOLATED["certify"]
    )
