"""Reference loop used to express timings at a fixed machine speed.

The speed of a shared machine drifts by a third over minutes, so raw
seconds from two sets of runs are not comparable.  The benchmark times this
fixed pure-Python loop (nothing from ``acforge``) many times in the same
process as the work it measures, spread over that work, and reports

    normalised seconds = raw seconds * REF_NOMINAL_S / mean(loop time)

i.e. seconds on a machine where the loop takes ``REF_NOMINAL_S``.  The loop
mixes what the measured code does most: free reduction of a word, tuple
slicing and comparison, a dict keyed by tuples, small objects and a
generator expression.  A loop of small-tuple and dict operations alone
followed the speed of the workloads less closely.
"""

from __future__ import annotations

import time

REF_ITERATIONS = 240
# mean loop time on the machine the README's reference figures come from
REF_NOMINAL_S = 0.0075

_WORD = tuple((i % 5) - 2 or 3 for i in range(200))


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _reduce(letters):
    out = []
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise ValueError(x)
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def ref_loop(n: int = REF_ITERATIONS) -> int:
    seen = {}
    head = None
    acc = 0
    for k in range(n):
        w = _reduce(_WORD[k % 7 :] + _WORD[: k % 7])
        key = w[:12]
        seen[key] = seen.get(key, 0) + 1
        head = _Node(key, len(w), head if k % 16 else None)
        acc += sum(1 for x in w if x > 0) + head.value
        acc += min(w[i:] + w[:i] for i in range(0, len(w), 25))[0]
    return acc + len(seen)


def ref_sample() -> float:
    """Seconds one reference loop takes now."""
    t = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t


# Importing a module is mostly compiling and running class bodies, which
# the loop above follows poorly; set-up time is scaled by compiling and
# running this fixed source instead, in the same fresh interpreter.
COMPILE_NOMINAL_S = 0.017
_SOURCE = "".join(
    f"class C{i}:\n"
    f"    def __init__(self, a, b={i}):\n"
    f"        self.a = a\n"
    f"        self.b = [x * b for x in range(a)]\n"
    f"    def f(self, x):\n"
    f"        return (self.a, x, {{'k': x}})\n"
    for i in range(40)
)


def setup_probe() -> None:
    """Print the seconds to compile the reference source three times, then
    the seconds to import acforge.cli; run in a fresh interpreter."""
    t = time.perf_counter()
    for _ in range(3):
        exec(compile(_SOURCE, "<reference>", "exec"), {})
    ref = time.perf_counter() - t
    t = time.perf_counter()
    import acforge.cli  # noqa: F401

    print(ref, time.perf_counter() - t)
