"""The measured process: runs one workload's operations through the CLI.

Run by ``run.py`` with the work directory as its current directory and the
repository's ``src`` on ``PYTHONPATH``.  Every operation calls
``acforge.cli.main(argv)`` in this process (or, for the re-checks the CLI
has no command for, the library function), with stdout captured.  A
reference-loop sample (see ``clock.py``) is taken after each operation, and
one more for every 0.1 s it took, outside its timing; each operation's
seconds are scaled by the samples around it.  Results go to a JSON file;
the output checks run later, in the parent.

    python3 measure.py PLAN.json OUT.json (--seconds S | --traced)
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import clock
import layers
from check import parse_cycles

# isolated kernels timed on arguments captured from each workload
ISOLATED = {
    "search": ("search.canonical_relator_ns", "words.concat_ns"),
    "certify": ("moves.apply_move_us", "presentation.construct_us", "words.free_reduce_ns_per_letter"),
    "finite": (),
}
REF_EVERY_S = 0.1  # one reference sample per this much measured time
REF_WINDOW = 3  # extra samples on each side used to scale an operation


def _rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    return 0


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(paths) -> str:
    """Hash of the files an operation wrote; a failed one may have written none."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes() if Path(p).is_file() else b"missing")
    return h.hexdigest()


class Runner:
    def __init__(self, plan: dict):
        from acforge import cli, coset, dual, presentation, quotient

        self.cli, self.coset, self.dual = cli, coset, dual
        self.presentation, self.quotient = presentation, quotient
        self.ops = plan["ops"]
        self.results = {op["id"]: {"rc": [], "error": [], "stdout_hashes": [], "artefact_hashes": []} for op in self.ops}
        self.last_stdout = {}
        self.last_stderr = {}
        self.ref = []
        self.recorder = None

    # -- one operation ------------------------------------------------------------

    def _cli(self, op):
        out, err = io.StringIO(), io.StringIO()
        rc = error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op["argv"])
            except Exception as e:  # the command raised: it gave no verdict
                error = type(e).__name__
            dt = time.perf_counter() - t0
        text = out.getvalue()
        if op.get("stdout_file"):
            Path(op["stdout_file"]).write_text(text)
        self.last_stderr[op["id"]] = err.getvalue()[-400:]
        return dt, rc, error, text

    def _lib(self, op):
        """Re-checks of written artefacts through the library; the text is
        read and parsed before the clock starts."""
        parse = self.presentation.parse_presentation
        kind = op["lib"]
        if kind == "bundle-check":
            def call():
                return self.dual.verify_knot_certificate(self.dual.read_bundle(op["path"]))
        elif kind == "validate-table":
            p = parse(Path(op["pres"]).read_text())
            lines = Path(op["table"]).read_text().splitlines()[1:]
            rows = tuple(tuple(int(x) - 1 for x in ln.partition(": ")[2].split()) for ln in lines)
            table = self.coset.CosetTable(len(p.generators), rows)

            def call():
                return self.coset.validate_table(p, table)
        else:  # verify-witness
            p = parse(Path(op["pres"]).read_text())
            lines = Path(op["witness"]).read_text().splitlines()
            degree = int(lines[0].split()[1])
            images = tuple(tuple(parse_cycles(ln.partition(" -> ")[2], degree)) for ln in lines[1:-1])
            w = self.quotient.FiniteQuotientWitness(degree, images, int(lines[-1].split()[1]))

            def call():
                return [] if self.quotient.verify_witness(p, w) else ["verify_witness returned False"]

        error, problems = None, None
        t0 = time.perf_counter()
        try:
            problems = call()
        except Exception as e:
            error = type(e).__name__
        dt = time.perf_counter() - t0
        return dt, None, error, json.dumps(problems)

    def run_op(self, op):
        """Run one operation and the reference samples after it: one per
        REF_EVERY_S it took, at least one.  Returns its raw seconds."""
        gc.collect()
        span = None
        if self.recorder is not None:
            span = self.recorder.open(("op:cli:" if "argv" in op else "op:lib:") + op["id"])
        try:
            dt, rc, error, text = self._cli(op) if "argv" in op else self._lib(op)
        finally:
            if span is not None:
                self.recorder.close(span)
        self.ref += [clock.ref_sample() for _ in range(max(1, int(dt / REF_EVERY_S)))]
        r = self.results[op["id"]]
        r["rc"].append(rc)
        r["error"].append(error)
        r["stdout_hashes"].append(hashlib.sha256(text.encode()).hexdigest())
        r["artefact_hashes"].append(_digest(op["artefacts"]))
        self.last_stdout[op["id"]] = text
        return dt

    def run_round(self, first_op_rss=None):
        """Raw seconds of each operation with the span of reference samples
        taken after it, and bytes written.

        With ``first_op_rss``, appends how far the first operation raised
        the peak resident memory above the resident memory before it."""
        timings = []
        for k, op in enumerate(self.ops):
            before = _rss_kb() if k == 0 and first_op_rss is not None else None
            first = len(self.ref)
            dt = self.run_op(op)
            if before is not None:
                first_op_rss.append(max(0, _peak_kb() - before) * 1024)
            timings.append((op["kind"], dt, first, len(self.ref)))
        written = sum(Path(a).stat().st_size for op in self.ops for a in op["artefacts"] if Path(a).is_file())
        return {"timings": timings, "artefact_bytes": written}

    def scaled(self, round_):
        """Raw and reference-speed seconds of a round's solve and verify
        operations.  An operation is scaled by the mean of the samples taken
        after it and the REF_WINDOW samples on either side of those."""
        t = {"solve": 0.0, "verify": 0.0, "solve_scaled": 0.0, "verify_scaled": 0.0}
        for kind, dt, first, end in round_["timings"]:
            near = self.ref[max(0, first - REF_WINDOW) : end + REF_WINDOW]
            t[kind] += dt
            t[kind + "_scaled"] += dt * clock.REF_NOMINAL_S * len(near) / sum(near)
        t["artefact_bytes"] = round_["artefact_bytes"]
        return t

    def report(self, rounds, extra):
        ops = {}
        for op in self.ops:
            r = dict(self.results[op["id"]])
            r["stdout"] = self.last_stdout[op["id"]]
            r["stderr"] = self.last_stderr.get(op["id"], "")
            ops[op["id"]] = r
        return dict(extra, rounds=rounds, ref=self.ref, peak_rss_kb=_peak_kb(), ops=ops)


def timed(runner: Runner, seconds: float) -> dict:
    rounds = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(runner.run_round())
        last = time.perf_counter() - r0
        if time.perf_counter() - t0 + 0.5 * last >= seconds:
            break
    return runner.report([runner.scaled(r) for r in rounds], {})


def traced(runner: Runner, workload: str, spans_file: str) -> dict:
    """An untraced round (which also warms up and, being first in a fresh
    process, gives the memory growth of its first operation), a traced
    round, then a round that only captures hot-kernel arguments."""
    growth = []
    runner.run_round(first_op_rss=growth)

    patches = layers.Patches()
    runner.recorder = layers.Recorder()
    runner.recorder.install(patches)
    try:
        runner.run_round()
    finally:
        patches.undo()
    spans = runner.recorder.spans
    runner.recorder = None

    capture = layers.Capture()
    capture.install(patches)
    try:
        runner.run_round()
    finally:
        patches.undo()

    metrics = layers.layer_metrics(workload, spans)
    metrics.update(layers.isolated_kernels(capture, ISOLATED[workload]))
    metrics["trace.overhead_s"] = len(spans) * layers.wrapper_cost()
    first = runner.ops[0]
    if workload == "search":
        metrics["search.bytes_per_state"] = growth[0] / first["check"]["cap"]
    elif workload == "finite":
        metrics["coset.bytes_per_coset"] = growth[0] / first["check"]["cap"]
    with open(spans_file, "w") as f:
        for s in spans:
            f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "info": s[4]}) + "\n")
    return runner.report([], {"layers": metrics})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    runner = Runner(plan)
    if args.traced:
        result = traced(runner, plan["workload"], "spans.jsonl")
    else:
        result = timed(runner, args.seconds)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
