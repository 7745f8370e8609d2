"""Every CLI operation of the benchmark plans keeps its output.

The ``search``, ``certify`` and ``finite`` plans of ``perfbench/inputs.py``
(seeds 1, 2 and 101 in text mode, seed 101 again with ``--format json``)
run through ``cli.main`` in a temporary directory, in plan order.  For each
operation a sha256 of its exit code, stdout, stderr and the files it wrote
or changed is compared with ``tests/plan_outputs.json``.

A change that alters output on purpose regenerates that file with

    PYTHONPATH=src python tests/test_plan_outputs.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
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


def _plan(workload: str, seed: int) -> dict:
    # the benchmark's plan builder, imported read-only; it shares no code with acforge
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs.build_plan(workload, seed)


def _files(directory: Path) -> dict:
    return {str(f.relative_to(directory)): f.read_bytes() for f in sorted(directory.rglob("*")) if f.is_file()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def plan_digests(workload: str, seed: int, mode: str, directory: Path) -> dict:
    """{operation id: sha256 of (exit code, exception, stdout, stderr, written
    files)} for the plan's CLI operations, run in ``directory``."""
    plan = _plan(workload, seed)
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
    return digests


def _key(workload: str, seed: int, mode: str) -> str:
    return f"{workload}/{seed}/{mode}"


@pytest.mark.parametrize("workload,seed,mode", RUNS, ids=[_key(*r) for r in RUNS])
def test_plan_outputs_are_unchanged(workload, seed, mode, tmp_path):
    expected = json.loads(DIGESTS.read_text())[_key(workload, seed, mode)]
    assert plan_digests(workload, seed, mode, tmp_path) == expected


def main() -> None:
    """Rewrite ``plan_outputs.json`` from the current program's outputs."""
    import tempfile

    table = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as d:
            table[_key(*run)] = plan_digests(*run, Path(d))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
