"""One timed pass over benchmark ops, in a fresh interpreter.

Usage: python3 worker.py JOB.json OUT.json

JOB holds the package source directory, the ops, the pass length in
seconds, an optional cap on the op count, the per-op deadline and whether
to trace.  The worker starts ops in order until the pass length or the
cap is used up, runs each under the deadline, and writes every op's
outcome, the pass wall time, its own peak RSS and, when traced, the
per-layer metrics to OUT.  Each op's time is given both as measured and
at the reference speed, from the kernel samples taken while the pass runs
(calibrate.py).  Answers are checked by the parent process, outside the
timed pass.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from calibrate import Sampler


class Deadline(BaseException):
    """The per-op wall-clock deadline passed.  A BaseException, so that no
    ``except Exception`` inside the package can swallow it."""


def _alarm(signum, frame):
    raise Deadline()


def _run_fp(pf, op):
    S = pf.Semigroup(op["q"], tuple(tuple(g) for g in op["gens"]))
    order = pf.OrderSpec(op["order"])

    def call():
        return pf.fp_general(S, op["p"], order).to_json()

    return call


def _run_cli(pf, op):
    argv = list(op["argv"])

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = pf.cli.parse_and_dispatch(argv)
        return {"status": status, "output": out.getvalue()}

    return call


def main(job_path: str, out_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import pfrobenius as pf
    import pfrobenius.cli  # noqa: F401  (the glue-verify ops call it)

    recorder = None
    if job["trace"]:
        from tracing import Recorder

        recorder = Recorder(pf)
        recorder.install()

    builders = {"fp": _run_fp, "cli": _run_cli}
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    seconds, max_ops, deadline = job["seconds"], job["max_ops"], job["deadline_s"]
    sampler = Sampler()
    sampler.start()
    start = time.perf_counter()
    spans = []
    for op in job["ops"]:
        if len(results) == max_ops or time.perf_counter() - start >= seconds:
            break
        call = builders[op["kind"]](pf, op)
        status, value = "ok", None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                value = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            status = "deadline"
        except Exception as exc:  # an op that raises is a failed op; the pass goes on
            status, value = "error", f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        results.append({"status": status, "value": value, "t": t1 - t0})
        spans.append((t0, t1))
    wall = time.perf_counter() - start
    sampler.stop()
    for r, (t0, t1) in zip(results, spans):
        r["scaled_t"] = sampler.scaled(t0, t1)
    out = {
        "results": results,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": recorder.metrics() if recorder else None,
    }
    Path(out_path).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
