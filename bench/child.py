"""One command of a workload, in a fresh interpreter.

Usage: python3 bench/child.py COMMAND SEED [SPANS_PATH]
       python3 bench/child.py setup

The package is imported first, so that `READY` marks the end of set-up:
the parent subtracts its spawn time from it.  With `setup` the child
stops there.  Otherwise the command's steps are timed as one job, traced
when SPANS_PATH is given.  The last line of stdout is a JSON object with
the set-up end, the job time, the calibration time, the peak resident
set and the operation outputs (plus layer metrics when traced).

The calibration is a fixed pure-Python loop that shares no code with the
package, timed just before and just after the job; the mean of the two
tells how fast the machine ran while the job did.
"""

import time

import looptorsion.cli  # noqa: F401  (this import is the set-up being timed)

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

CAL_LOOPS = 40_000
CAL_ROUNDS, CAL_STEPS = 30, 4_000


def calibrate() -> float:
    """Seconds taken by a fixed small-integer loop and a fixed big-integer loop.

    The halves mirror the workloads' arithmetic: modular powers and
    small-dict stores (the power walk, SNF pivots), and a linear recurrence
    whose terms grow to thousands of bits (the exact witness re-check).
    Timed around the four workloads, the sum followed the machine's drift
    better overall than either half alone.
    """
    start = time.perf_counter()
    x, table = 1, {}
    for _ in range(CAL_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 0xFFF] = pow(3, x, 1000003)
    for _ in range(CAL_ROUNDS):
        a, b = 11, 5
        for _ in range(CAL_STEPS):
            a, b = 4 * a - 3 * b + 7, a
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["setup"]:
        print(json.dumps({"ready": READY}))
        return 0
    command, seed = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    plan = workloads.steps(command, seed)
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer(f"{command}:{seed}")
        tracer.install()
    raws, errors = [], {}
    cal_before = calibrate()
    start = time.perf_counter()
    for label, call in plan:
        try:
            raws.append((label, call()))
        except Exception as exc:  # a failed step fails its operations; the others still run
            errors[label] = f"{type(exc).__name__}: {exc}"
    job_s = time.perf_counter() - start
    cal_s = (cal_before + calibrate()) / 2
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ready": READY, "job_s": job_s, "cal_s": cal_s, "peak_rss_kb": peak_rss_kb, "errors": errors}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
        out["layers"] = tracer.layer_metrics()
    ops = {}
    for label, raw in raws:
        ops.update(workloads.to_ops(label, raw))
    out["ops"] = ops
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
