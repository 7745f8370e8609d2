"""Per-layer measurement for the traced run.

Spans are recorded from this file by wrapping the public functions of each
``acforge`` module in place; the program's source is not changed.  A span
is (name, start, end, parent, info); they are kept in memory and written
out when the run ends.  The hottest kernels (``concat``,
``canonical_relator``, ``free_reduce``, ``apply_move`` and the
``Presentation`` constructor) are too cheap to wrap per call, so a separate
pass only captures a sample of their arguments and they are timed in
isolation afterwards.
"""

from __future__ import annotations

import functools
import random
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, function, what to record from (args, result))
WRAPPED = (
    ("presentation", "parse_presentation", None),
    ("presentation", "parse_raw", None),
    ("presentation", "format_presentation", None),
    ("moves", "format_certificate", None),
    ("moves", "parse_certificate", None),
    ("moves", "replay_trace", lambda a, r: {"moves": len(a[0].moves)}),
    ("moves", "invert_certificate", None),
    ("lemma2", "presentation_from_matrix", lambda a, r: {"moves": len(r[1].moves)}),
    ("lemma2", "decompose_unimodular", None),
    ("dual", "align", None),
    ("dual", "dualize", None),
    ("dual", "verify_knot_certificate", None),
    ("dual", "write_bundle", None),
    ("dual", "read_bundle", None),
    ("intmatrix", "matrix_from_text", None),
    ("intmatrix", "exponent_matrix", None),
    ("intmatrix", "determinant", None),
    ("coset", "enumerate_cosets", lambda a, r: {"reached": r[0]}),
    ("coset", "coset_table", None),
    ("coset", "validate_table", None),
    ("quotient", "find_nontrivial_quotient", None),
    ("quotient", "verify_witness", None),
    ("quotient", "cycle_notation", None),
    ("search", "search_trivialization", lambda a, r: {"seen": r.states_seen, "expanded": r.states_expanded}),
)

HOT = (("search", "canonical_relator"), ("words", "concat"), ("words", "free_reduce"), ("moves", "apply_move"))
SAMPLES = 2000
ISOLATED_SECONDS = 0.2


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("acforge") and m is not None]


def _module(name: str):
    return sys.modules[f"acforge.{name}"]


class Patches:
    """Replace a function object everywhere ``acforge`` refers to it, so
    ``from .x import f`` bindings see the wrapper too; ``undo`` restores."""

    def __init__(self):
        self.saved = []

    def replace(self, original, replacement) -> None:
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def replace_attr(self, owner, attr, replacement) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


class Recorder:
    """Spans in memory: [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if info is not None:
                self.spans[idx][4] = info(args, result)
            return result

        return wrapper

    def install(self, patches: Patches) -> None:
        for mod, fname, info in WRAPPED:
            fn = getattr(_module(mod), fname)
            patches.replace(fn, self.wrap(f"{mod}.{fname}", fn, info))


class Capture:
    """A uniform sample of the arguments of each hot kernel over one round."""

    def __init__(self):
        self.rng = random.Random(0)
        self.samples: Dict[str, list] = {}
        self.calls: Dict[str, int] = {}

    def _keep(self, key: str, args) -> None:
        n = self.calls[key] = self.calls.get(key, 0) + 1
        bucket = self.samples.setdefault(key, [])
        if len(bucket) < SAMPLES:
            bucket.append(args)
        else:
            k = self.rng.randrange(n)
            if k < SAMPLES:
                bucket[k] = args

    def install(self, patches: Patches) -> None:
        for mod, fname in HOT:
            fn = getattr(_module(mod), fname)
            key = f"{mod}.{fname}"

            def wrapper(*args, _fn=fn, _key=key):
                if _key == "words.free_reduce":
                    args = (tuple(args[0]),)  # callers may pass one-shot iterables
                self._keep(_key, args)
                return _fn(*args)

            patches.replace(fn, wrapper)
        cls = _module("presentation").Presentation
        post_init = cls.__post_init__

        def capture_init(obj):
            self._keep("presentation.Presentation", (obj.generators, obj.relators))
            post_init(obj)

        patches.replace_attr(cls, "__post_init__", capture_init)


def time_isolated(fn: Callable, samples: list, weight=None) -> Optional[float]:
    """Seconds per call (or per unit of ``weight``) over repeated passes."""
    if not samples:
        return None
    calls = 0
    t0 = time.perf_counter()
    while True:
        for args in samples:
            try:
                fn(*args)
            except ValueError:
                pass
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= ISOLATED_SECONDS:
            break
    units = sum(weight(a) for a in samples) if weight else len(samples)
    return elapsed / (calls * units)


def isolated_kernels(capture: Capture, wanted) -> Dict[str, float]:
    """ns or us per call of each ``wanted`` kernel, timed with no wrapper."""
    s = capture.samples
    out = {}
    timed = {
        "search.canonical_relator_ns": (_module("search").canonical_relator, "search.canonical_relator", None, 1e9),
        "words.concat_ns": (_module("words").concat, "words.concat", None, 1e9),
        "moves.apply_move_us": (_module("moves").apply_move, "moves.apply_move", None, 1e6),
        "presentation.construct_us": (_module("presentation").Presentation, "presentation.Presentation", None, 1e6),
        "words.free_reduce_ns_per_letter": (
            _module("words").free_reduce,
            "words.free_reduce",
            lambda a: max(1, len(a[0])),
            1e9,
        ),
    }
    for metric in wanted:
        fn, key, weight, scale = timed[metric]
        per = time_isolated(fn, s.get(key, []), weight)
        if per is not None:
            out[metric] = per * scale
    return out


def wrapper_cost(calls: int = 200_000) -> float:
    """Seconds a span wrapper adds to one call, from a wrapped and a bare
    no-op function timed in the same way."""

    def noop(*args):
        return None

    wrapped = Recorder().wrap("noop", noop, None)
    timings = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(1)
        timings.append(time.perf_counter() - t0)
    return max(0.0, timings[1] - timings[0]) / calls


# --- derived metrics ---------------------------------------------------------------


def _totals(spans: List[list], name: str, under: Optional[Callable[[str], bool]] = None):
    """Duration and info of spans called ``name``, outermost only, optionally
    restricted to those whose root operation satisfies ``under``."""
    total, infos = 0.0, []
    for s in spans:
        if s[0] != name:
            continue
        parent, root, nested = s[3], None, False
        while parent != -1:
            if spans[parent][0] == name:
                nested = True
            root = spans[parent][0]
            parent = spans[parent][3]
        if nested or (under is not None and not (root and under(root))):
            continue
        total += s[2] - s[1]
        infos.append(s[4] or {})
    return total, infos


def cli_overhead(spans: List[list]) -> float:
    """Time in CLI operations not covered by a wrapped library call."""
    children: Dict[int, float] = {}
    for s in spans:
        if s[3] != -1:
            children[s[3]] = children.get(s[3], 0.0) + (s[2] - s[1])
    total = 0.0
    for idx, s in enumerate(spans):
        if s[3] == -1 and s[0].startswith("op:cli:"):
            total += (s[2] - s[1]) - children.get(idx, 0.0)
    return total


def layer_metrics(workload: str, spans: List[list]) -> Dict[str, float]:
    """Per-layer figures of one traced round of ``workload``."""
    m: Dict[str, float] = {}
    m["presentation.parse_s"] = _totals(spans, "presentation.parse_presentation")[0] + _totals(spans, "presentation.parse_raw")[0]
    m["cli.overhead_s"] = cli_overhead(spans)
    if workload == "search":
        t, infos = _totals(spans, "search.search_trivialization")
        seen = sum(i["seen"] for i in infos)
        expanded = sum(i["expanded"] for i in infos)
        m.update(
            {
                "search.states_seen": seen,
                "search.states_expanded": expanded,
                "search.states_per_s": seen / t,
                "search.expanded_per_s": expanded / t,
            }
        )
    elif workload == "certify":
        verify_ops = lambda root: root.startswith(("op:cli:verify-cert/", "op:lib:bundle-check/"))
        build, infos = _totals(spans, "lemma2.presentation_from_matrix")
        replay, rinfos = _totals(spans, "moves.replay_trace", verify_ops)
        m.update(
            {
                "lemma2.build_s": build,
                "lemma2.moves": sum(i["moves"] for i in infos),
                "moves.format_s": _totals(spans, "moves.format_certificate")[0],
                "dual.align_s": _totals(spans, "dual.align")[0],
                "moves.parse_s": _totals(spans, "moves.parse_certificate")[0],
                "moves.replay_s": replay,
                "moves.replay_moves_per_s": sum(i["moves"] for i in rinfos) / replay,
                "dual.verify_s": _totals(spans, "dual.verify_knot_certificate", lambda root: root.startswith("op:lib:bundle-check/"))[0],
            }
        )
    else:
        t, infos = _totals(spans, "coset.enumerate_cosets")
        m.update(
            {
                "coset.enumerate_s": t,
                "coset.cosets_per_s": sum(i["reached"] for i in infos) / t,
                "coset.table_s": _totals(spans, "coset.coset_table")[0],
                "coset.validate_s": _totals(spans, "coset.validate_table")[0],
                "quotient.search_s": _totals(spans, "quotient.find_nontrivial_quotient")[0],
                "quotient.verify_s": _totals(spans, "quotient.verify_witness")[0],
            }
        )
    return m
