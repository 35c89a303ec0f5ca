"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload toric-2d --seed 1 --seconds 36 --trace 0

The workloads are generated from the seed (see workloads.py).  The op list
runs in PASSES timed passes, each in a fresh interpreter (worker.py), one
op after another on one thread, each op under the same wall-clock
deadline.  The first pass stops starting ops when its share of the seconds
is used up; the others run the same ops.  Each op's wall time is scaled to
the reference speed by the kernel times sampled while it runs
(calibrate.py), and its time is the best of these over the passes, since
the machine's speed moves by up to 2x over seconds to minutes.  Every
answer of every pass is then checked against an independent reference
(check.py).

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead: half the seconds go to an untraced pass, and a
second fresh interpreter repeats exactly those ops with every layer
wrapped (tracing.py), so the two wall times give the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, kernel_s
from check import Checker, f0_certified
from workloads import F0_GCD_CASE, NAMED_WALL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 10.0
PASSES = 3
SETUP_REPEATS = 15
# Stand-in for the infinite latency of a failed op, so the output stays JSON.
FAILED_LATENCY_S = 1e9


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def speed_s() -> float:
    """Mean kernel time over a few runs: the machine's speed just now."""
    return statistics.mean(kernel_s() for _ in range(5))


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the package and
    CLI, as measured and scaled to the reference speed by the kernel times
    just before and after each import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, scaled_times = [], []
    before = speed_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import pfrobenius, pfrobenius.cli"],
            cwd=ROOT, env=env, capture_output=True, timeout=60,
        )
        t = time.perf_counter() - t0
        after = speed_s()
        times.append(t)
        scaled_times.append(t * REFERENCE_S / ((before + after) / 2))
        before = after
        if proc.returncode != 0:
            fail(f"importing the package failed: {proc.stderr.decode().strip()}")
    return statistics.median(times), statistics.median(scaled_times)


def run_pass(workdir: Path, ops, seconds, max_ops, trace: bool) -> dict:
    """One timed pass in a fresh interpreter."""
    job, out = workdir / "job.json", workdir / "out.json"
    job.write_text(json.dumps({
        "src": str(SRC), "ops": ops, "seconds": seconds, "max_ops": max_ops,
        "deadline_s": DEADLINE_S, "trace": trace,
    }))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job), str(out)],
        cwd=ROOT, capture_output=True, timeout=seconds + DEADLINE_S + 120,
    )
    if proc.returncode != 0:
        fail(f"worker failed: {proc.stderr.decode().strip()}")
    return json.loads(out.read_text())


def timed_passes(workdir: Path, ops, seconds) -> list[dict]:
    """PASSES untraced passes over the same ops, the count set by the first."""
    first = run_pass(workdir, ops, seconds / PASSES, None, trace=False)
    count = len(first["results"])
    return [first] + [run_pass(workdir, ops, 2 * seconds / PASSES, count, trace=False)
                      for _ in range(PASSES - 1)]


def scaled(passed: dict) -> list[float]:
    """Each op's wall time at the reference speed (see calibrate.py)."""
    return [r["scaled_t"] for r in passed["results"]]


def grade(checker: Checker, ops, passes: list[dict]):
    """For the ops every pass ran: the latency of each (its best scaled time
    over the passes, or FAILED_LATENCY_S if any pass failed it), the scaled
    seconds each took (its best, or its longest if it failed), and the
    count of ops answered wrongly in some pass."""
    latencies, spent, wrong = [], [], 0
    results = zip(*(p["results"] for p in passes))
    for op, rs, *times in zip(ops, results, *(scaled(p) for p in passes)):
        oks = [r["status"] == "ok" and checker.check(op, r["value"]) for r in rs]
        wrong += any(r["status"] == "ok" and not ok for r, ok in zip(rs, oks))
        latencies.append(min(times) if all(oks) else FAILED_LATENCY_S)
        spent.append(min(times) if all(oks) else max(times))
    return latencies, spent, wrong


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it,
    and that percentile; the maximum if there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def probe_f0(pf) -> int:
    """1 if the program's F_0 of the known gcd-sharing case fails the
    certificate (or the call raises), else 0."""
    try:
        f = pf.fp_general(pf.Semigroup(1, F0_GCD_CASE), 0).point[0]
    except Exception as exc:  # a probe reports a failure, it does not end the run
        print(f"probe: F_0<4,6,101> raised {type(exc).__name__}: {exc}")
        return 1
    ok = f0_certified(tuple(g[0] for g in F0_GCD_CASE), f)
    print(f"probe: F_0<4,6,101> = {f}, certificate {'holds' if ok else 'fails'}")
    return int(not ok)


class _Overrun(BaseException):
    pass


def probe_wall(pf) -> int | None:
    """1 if the toric ideal of the named q = 2, h = 6 semigroup does not
    finish within the deadline, 0 if it does, None if the function is gone."""
    toric = getattr(pf.groebner, "toric_ideal_generators", None)
    if toric is None:
        return None

    def alarm(signum, frame):
        raise _Overrun()

    previous = signal.signal(signal.SIGALRM, alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            toric(pf.Semigroup(2, NAMED_WALL))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        overran = 0
    except _Overrun:
        overran = 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    print(f"probe: toric ideal of the named h = 6 semigroup "
          f"{'overran' if overran else 'finished'} in {time.perf_counter() - t0:.2f} s")
    return overran


def metric_block(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "pfrobenius" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'pfrobenius'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import pfrobenius as pf

    if Path(pf.__file__).resolve().parent != SRC / "pfrobenius":
        fail(f"imported pfrobenius from {pf.__file__}, not from {SRC}")

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(pf)
        if args.trace:
            plain = run_pass(workdir, ops, args.seconds / 2, None, trace=False)
            traced = run_pass(workdir, ops, args.seconds, len(plain["results"]), trace=True)
            plain_wrong = grade(checker, ops, [plain])[2]
            latencies, _, wrong = grade(checker, ops, [traced])
            wrong += plain_wrong
            failed = sum(t == FAILED_LATENCY_S for t in latencies)
            values = dict(traced["layers"])
            # over the ops both passes ran; the traced pass may stop earlier
            both = len(traced["results"])
            values["trace.overhead_frac"] = (
                sum(scaled(traced)) / sum(scaled(plain)[:both]) - 1)
            print(f"{args.workload}: {both} ops traced in {traced['wall_s']:.2f} s "
                  f"({len(plain['results'])} untraced in {plain['wall_s']:.2f} s), "
                  f"{failed} failed, {wrong} wrong")
            values["probe.f0_gcd_wrong"] = probe_f0(pf)
            overran = probe_wall(pf)
            if overran is not None:
                values["probe.toric_wall_overrun"] = overran
            metrics = metric_block(spec["per_layer"], values)
        else:
            passes = timed_passes(workdir, ops, args.seconds)
            setup = measure_setup()
            latencies, spent, wrong = grade(checker, ops, passes)
            failed = sum(t == FAILED_LATENCY_S for t in latencies)
            tail_s, tail_pct = tail(latencies)
            n = len(latencies)
            # the list's scaled wall time with each op at its best pass
            best_s = sum(spent)
            values = {
                "ops_per_s": (n - failed) / best_s,
                "op_p50_s": statistics.median(latencies),
                "op_tail_s": tail_s,
                "setup_s": setup[1],
                "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            }
            walls = ", ".join(f"{p['wall_s']:.2f}" for p in passes)
            print(f"{args.workload}: {n} ops, passes of {walls} s wall, "
                  f"best-of sum {best_s:.2f} reference s, "
                  f"op_tail_s at p{tail_pct:.1f} ({10 if n > 10 else 0} ops beyond), "
                  f"failed_frac = {failed / n:.4f} ({failed}/{n}, {wrong} wrong), "
                  f"setup {setup[0]:.4f} s wall, {setup[1]:.4f} reference s")
            probe_f0(pf)
            metrics = metric_block(spec["end_to_end"], values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": len(latencies),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
