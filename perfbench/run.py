"""Benchmark of the acforge CLI: search, certify and finite workloads.

    python3 perfbench/run.py --workload search|certify|finite --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed under
``.perfbench/<workload>/``; measuring processes (``measure.py``), run one
after another, repeat the workload's operations in whole rounds for about
S seconds in all; afterwards this process checks every output with its own
code (``check.py``).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
from check import check_op, is_failed
from inputs import WORKLOADS, build_plan

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_SPAWNS = 15
PROCESSES = 5
CHILD_TIMEOUT_S = 55

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "artefact_kb": "kB",
}

PER_LAYER = {
    "search.states_per_s": "states/s",
    "search.expanded_per_s": "states/s",
    "search.states_seen": "count",
    "search.states_expanded": "count",
    "search.bytes_per_state": "B",
    "search.canonical_relator_ns": "ns/call",
    "words.concat_ns": "ns/call",
    "lemma2.build_s": "s",
    "moves.format_s": "s",
    "dual.align_s": "s",
    "lemma2.moves": "count",
    "moves.cert_kb": "kB",
    "dual.bundle_kb": "kB",
    "moves.parse_s": "s",
    "moves.replay_s": "s",
    "dual.verify_s": "s",
    "moves.replay_moves_per_s": "moves/s",
    "moves.apply_move_us": "us/call",
    "presentation.construct_us": "us/call",
    "words.free_reduce_ns_per_letter": "ns/letter",
    "coset.enumerate_s": "s",
    "coset.table_s": "s",
    "quotient.search_s": "s",
    "coset.cosets_per_s": "cosets/s",
    "coset.bytes_per_coset": "B",
    "coset.validate_s": "s",
    "quotient.verify_s": "s",
    "presentation.parse_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
SUMMED = ("presentation.parse_s", "cli.overhead_s", "trace.overhead_s")



class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # set-up is timed with compiled bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(argv, cwd: Path, timeout: float) -> str:
    proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def measure_setup() -> dict:
    """Import time of acforge.cli in fresh interpreters, after one warm-up
    import that leaves compiled bytecode behind; each import is scaled by
    the compile reference timed just before it in the same interpreter."""
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import clock; clock.setup_probe()"
    imports, scaled = [], []
    for k in range(SETUP_SPAWNS + 1):
        ref, t = (float(x) for x in _run([sys.executable, "-c", code], ROOT, 60).split())
        if k:
            imports.append(t)
            scaled.append(t * clock.COMPILE_NOMINAL_S / ref)
    return {"value": statistics.median(scaled), "raw": statistics.median(imports)}


def _merge(into, result: dict) -> dict:
    """Pool the rounds and per-operation records of several processes."""
    if into is None:
        return result
    into["rounds"] += result["rounds"]
    into["ref"] += result["ref"]
    into["peak_rss_kb"] = max(into["peak_rss_kb"], result["peak_rss_kb"])
    for op_id, r in result["ops"].items():
        mine = into["ops"][op_id]
        for key in ("rc", "error", "stdout_hashes", "artefact_hashes"):
            mine[key] += r[key]
        mine["stdout"], mine["stderr"] = r["stdout"], r["stderr"]
    return into


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = build_plan(workload, seed)
    for name, text in plan["files"].items():
        (work / name).write_text(text + "\n")
    (work / "plan.json").write_text(json.dumps(plan))
    # timed runs are split over a few processes, because a process has its
    # own small speed offset (memory layout) that rounds cannot average out
    result = None
    for k in range(1 if traced else PROCESSES):
        argv = [sys.executable, str(BENCH / "measure.py"), "plan.json", f"result{k}.json"]
        argv += ["--traced"] if traced else ["--seconds", str(seconds / PROCESSES)]
        _run(argv, work, CHILD_TIMEOUT_S)
        result = _merge(result, json.loads((work / f"result{k}.json").read_text()))

    attempted = failed = 0
    problems = {}
    for op in plan["ops"]:
        r = result["ops"][op["id"]]
        runs = len(r["rc"])
        attempted += runs
        fails = sum(map(is_failed, r["error"], r["rc"]))
        failed += fails
        if fails == runs:
            continue
        if fails:
            problems[op["id"]] = ["failed in some repetitions only"]
            continue
        found = check_op(op, r, work)
        if found:
            problems[op["id"]] = found
    return plan, result, attempted, failed, problems


def end_to_end(result: dict, setup: dict) -> tuple:
    """Each operation's seconds are scaled by the reference samples taken
    next to it (the machine's speed changes within seconds too); a timed
    metric is the median over rounds of the scaled sums."""
    rounds = result["rounds"]
    metrics, raw = {}, {}
    for name, key in (("solve_s", "solve"), ("verify_s", "verify")):
        raw[name] = statistics.median(r[key] for r in rounds)
        metrics[name] = statistics.median(r[key + "_scaled"] for r in rounds)
    metrics["setup_s"] = setup["value"]
    raw["setup_s"] = setup["raw"]
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    metrics["artefact_kb"] = statistics.median(r["artefact_bytes"] for r in rounds) / 1000
    notes = [f"rounds {len(rounds)}, reference loop mean {statistics.mean(result['ref']) * 1e3:.3f} ms"]
    return metrics, raw, notes


def per_layer(done: dict) -> dict:
    metrics = {}
    for workload, (plan, result) in done.items():
        for name, value in result["layers"].items():
            if name in SUMMED:
                metrics[name] = metrics.get(name, 0.0) + value
            else:
                metrics[name] = value
        if workload == "certify":
            work = WORK / workload
            arts = [a for op in plan["ops"] for a in op["artefacts"] if (work / a).is_file()]
            metrics["moves.cert_kb"] = sum((work / a).stat().st_size for a in arts if a.endswith(".cert")) / 1000
            metrics["dual.bundle_kb"] = sum((work / a).stat().st_size for a in arts if "bundle/" in a) / 1000
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "acforge" / "cli.py").is_file():
        print("error: run from the repository root; src/acforge is missing", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        if args.trace:
            # every per-layer metric is taken on the workload that exercises
            # its layer, so a traced run covers all three workloads
            workloads, setup = WORKLOADS, None
        else:
            workloads, setup = (args.workload,), measure_setup()
        done, attempted, failed, problems = {}, 0, 0, {}
        for w in workloads:
            plan, result, a, f, p = run_workload(w, args.seed, args.seconds, bool(args.trace))
            done[w] = (plan, result)
            attempted, failed = attempted + a, failed + f
            problems.update({f"{w}:{k}": v for k, v in p.items()})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for op_id, found in problems.items():
        print(f"CHECK FAILED {op_id}: {'; '.join(found)}", file=sys.stderr)
    if args.trace:
        values = per_layer(done)
        units = PER_LAYER
        raw, notes = {}, []
    else:
        values, raw, notes = end_to_end(done[args.workload][1], setup)
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {' '.join(notes)}")
    print(f"operations attempted {attempted}, failed {failed}, checks failed {len(problems)}")
    for name, unit in units.items():
        extra = f"  (raw {raw[name]:.6g} s)" if name in raw else ""
        print(f"  {name:34s} {values[name]:.6g} {unit}{extra}")
    print(f"elapsed {time.perf_counter() - t0:.1f} s")
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
