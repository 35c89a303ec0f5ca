"""The machine's speed while an op runs, from a fixed pure-Python kernel.

The shared VM this benchmark was tuned on changes speed by up to 2x in
phases of a second to a minute (a fixed loop timed in 2 s windows ran at
1.1x-2.3x its best time within 150 s), longer than a run.  No choice of
run length or of statistic over raw wall times stays within the bounds
from one set of runs to the next.  So a Sampler runs a small reference
kernel every SAMPLE_EVERY_S of CPU time while the ops run, from a
SIGPROF handler, and each op's wall time, less the kernel's own time
inside it, is scaled by REFERENCE_S over the kernel's mean time during
the op: the op's time at the reference speed.  An op too short to hold
MIN_SAMPLES samples takes those within WINDOW_S of it instead, since the
speed of one short kernel run varies too much to judge it by a few.

The kernel shares no code with the package, so a change to the package
can move it only through the CPU caches.  It mixes the two kinds of work the package does: a
recursive search over tuples, like the counting scan, and building and
sorting a dict of tuples, like the Groebner and memo code.  The garbage
collector is off while it runs, so the size of the package's heap does
not change its time.
"""
from __future__ import annotations

import bisect
import gc
import random
import signal
import time

# Mean kernel time in a fast phase of a 2-core Intel Xeon x86-64 VM
# at 2.1 GHz, Python 3.11: a reference second is a second on that
# machine at that speed.
REFERENCE_S = 0.00090
SAMPLE_EVERY_S = 0.02
MIN_SAMPLES = 4
WINDOW_S = 0.1

_GENS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1))
_rng = random.Random(5)
_PAIRS = [(_rng.randrange(10**6), _rng.randrange(10**6)) for _ in range(800)]


def _search(gens, i: int, rest: tuple[int, ...]) -> int:
    if not any(rest):
        return 1
    total = 0
    for j in range(i, len(gens)):
        nxt = tuple(a - b for a, b in zip(rest, gens[j]))
        if all(c >= 0 for c in nxt):
            total += _search(gens, j, nxt)
    return total


def _kernel() -> int:
    counts: dict[tuple[int, int], int] = {}
    for t in _PAIRS:
        counts[t] = counts.get(t, 0) + 1
    return _search(_GENS, 0, (5, 4)) + len(sorted(counts))


def kernel_s() -> float:
    """Wall time of one kernel run, with the GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


for _ in range(20):  # past the interpreter's warm-up of the kernel's code
    kernel_s()


class Sampler:
    """Kernel samples (start, seconds), taken on SIGPROF while running."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        start, seconds = time.perf_counter(), kernel_s()
        self.starts.append(start)
        self.times.append(seconds)

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The wall time from t0 to t1 at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.times[lo:hi]
        speed = inside
        if len(inside) < MIN_SAMPLES:
            speed = self.times[bisect.bisect_left(self.starts, t0 - WINDOW_S):
                               bisect.bisect_left(self.starts, t1 + WINDOW_S)]
        return (t1 - t0 - sum(inside)) * REFERENCE_S * len(speed) / sum(speed)


if __name__ == "__main__":
    print(" ".join(f"{kernel_s() * 1000:.3f}" for _ in range(30)), "ms")
