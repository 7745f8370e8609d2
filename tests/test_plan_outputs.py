"""Every CLI operation of the benchmark plans keeps its output.

The ``search``, ``certify`` and ``finite`` plans of ``perfbench/inputs.py``
(seeds 1, 2 and 101 in text mode, seed 101 again with ``--format json``)
run through ``cli.main`` in a temporary directory, in plan order.  For each
operation a sha256 of its exit code, stdout, stderr and the files it wrote
or changed is compared with ``tests/plan_outputs.json``.

The plans' library re-checks of what those operations wrote (the bundle
re-checks, ``validate_table`` and ``verify_witness``) run in the same
order, in text mode, through the benchmark's own ``Runner._lib``; each
must return no problems and raise nothing.  In JSON mode the table and the
witness are JSON text, which those re-checks do not read.

A change that alters output on purpose regenerates that file with

    PYTHONPATH=src python tests/test_plan_outputs.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from acforge import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("plan_outputs.json")
RUNS = [(w, s, "text") for w in ("search", "certify", "finite") for s in (1, 2, 101)]
RUNS += [(w, 101, "json") for w in ("search", "certify", "finite")]


def _perfbench(module: str):
    # a module of the benchmark, imported read-only
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.pop(0)


def _plan(workload: str, seed: int) -> dict:
    # the benchmark's plan builder shares no code with acforge
    return _perfbench("inputs").build_plan(workload, seed)


def _files(directory: Path) -> dict:
    return {str(f.relative_to(directory)): f.read_bytes() for f in sorted(directory.rglob("*")) if f.is_file()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_plan(workload: str, seed: int, mode: str, directory: Path) -> tuple:
    """Run the plan in ``directory``.  Returns {operation id: sha256 of (exit
    code, exception, stdout, stderr, written files)} for its CLI operations,
    and {operation id: (exception, problems as JSON)} for its library
    re-checks, which run in text mode only."""
    plan = _plan(workload, seed)
    runner = _perfbench("measure").Runner(plan)
    rechecks = {}
    for name, text in plan["files"].items():
        (directory / name).write_text(text)
    extra = ["--format", "json"] if mode == "json" else []
    digests = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        before = _files(directory)
        for op in plan["ops"]:
            if "argv" not in op:
                if mode == "text":
                    _, _, error, problems = runner._lib(op)
                    rechecks[op["id"]] = (error, problems)
                continue
            out, err = io.StringIO(), io.StringIO()
            rc = error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(op["argv"] + extra)
                except Exception as e:  # the command raised: record which exception
                    error = type(e).__name__
            if op.get("stdout_file"):
                Path(op["stdout_file"]).write_text(out.getvalue())
            after = _files(directory)
            written = {k: _sha(v) for k, v in after.items() if before.get(k) != v}
            before = after
            record = [rc, error, out.getvalue(), err.getvalue(), written]
            digests[op["id"]] = _sha(json.dumps(record, sort_keys=True).encode())
    finally:
        os.chdir(cwd)
    return digests, rechecks


def _key(workload: str, seed: int, mode: str) -> str:
    return f"{workload}/{seed}/{mode}"


@pytest.mark.parametrize("workload,seed,mode", RUNS, ids=[_key(*r) for r in RUNS])
def test_plan_outputs_are_unchanged(workload, seed, mode, tmp_path):
    expected = json.loads(DIGESTS.read_text())[_key(workload, seed, mode)]
    digests, rechecks = run_plan(workload, seed, mode, tmp_path)
    assert digests == expected
    lib_ops = [op["id"] for op in _plan(workload, seed)["ops"] if "argv" not in op and mode == "text"]
    assert rechecks == dict.fromkeys(lib_ops, (None, "[]"))


def main() -> None:
    """Rewrite ``plan_outputs.json`` from the current program's outputs."""
    import tempfile

    table = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as d:
            table[_key(*run)] = run_plan(*run, Path(d))[0]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
