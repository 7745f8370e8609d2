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
import math
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


def op(op_id, kind, argv=None, **extra):
    """One plan operation in the shape ``perfbench/inputs.py`` writes."""
    o = {"id": op_id, "kind": kind, "artefacts": [], **extra}
    if argv:
        o["argv"] = argv
    return o


S3 = "< a, b | a^2, b^2, a b a b a b >"
TRACED_ROUNDS = {
    "search": (
        {"dp.pres": DUAL_POINCARE},
        [
            op("acsearch/dp", "solve", ["acsearch", "dp.pres", "-o", "dp.cert"]),
            op("verify-cert/dp", "verify", ["verify-cert", "dp.cert"]),
        ],
    ),
    "certify": (
        {"m.mat": "2 2\n2 3\n1 2\n"},
        [
            op("lemma2/m", "solve", ["lemma2", "m.mat", "-o", "m"]),
            op("verify-cert/m", "verify", ["verify-cert", "m/build.cert"]),
            op("theorem3/m", "solve", ["theorem3", "m/presentation.pres", "-o", "m/bundle"]),
            op("bundle-check/m", "verify", lib="bundle-check", path="m/bundle"),
        ],
    ),
    "finite": (
        {"s3.pres": S3},
        [
            op("order/s3", "solve", ["order", "s3.pres"]),
            op("order-table/s3", "solve", ["order", "s3.pres", "--table"], stdout_file="s3.table"),
            op("validate-table/s3", "verify", lib="validate-table", pres="s3.pres", table="s3.table"),
            op("quotient/s3", "solve", ["quotient", "s3.pres", "--max-degree", "3"], stdout_file="s3.witness"),
            op("verify-witness/s3", "verify", lib="verify-witness", pres="s3.pres", witness="s3.witness"),
        ],
    ),
}


@pytest.mark.parametrize("workload", sorted(TRACED_ROUNDS))
def test_traced_round_measures_every_layer_metric(bench, tmp_path, monkeypatch, workload):
    # spans are recorded as in a traced run: each operation a root span
    # opened by ``Runner.run_op``; a wrapped function that is no longer
    # called leaves a rate's time at zero and ends that run in an error
    layers, measure = bench
    files, ops = TRACED_ROUNDS[workload]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    runner = measure.Runner({"ops": ops})
    patches = layers.Patches()
    runner.recorder = layers.Recorder()
    runner.recorder.install(patches)
    try:
        for o in ops:
            runner.run_op(o)
    finally:
        patches.undo()
    for o in ops:
        result = runner.results[o["id"]]
        assert (result["rc"], result["error"]) == ([0 if "argv" in o else None], [None]), o["id"]
        if "lib" in o:
            assert runner.last_stdout[o["id"]] == "[]", o["id"]  # no problems found
    metrics = layers.layer_metrics(workload, runner.recorder.spans)
    assert metrics and all(math.isfinite(v) for v in metrics.values()), metrics
