"""Benchmark for looptorsion: fresh-process workloads checked against references.

Usage, from the root of the repository:

    python3 bench/run.py --workload census|recurrence|reach|fields --seed N --seconds S --trace 0|1

A sample runs each command of the workload in a fresh interpreter
(`child.py`) and checks every operation against `refs/<workload>.json`;
the check is not timed.  After five set-up-only interpreters, samples
repeat while the next one is expected to end within S seconds of the
start (at least one sample, and with --trace 1 at least one of each kind).  The last line
of stdout is one JSON object: `correct`, `attempted` and `failed` count
operations over every sample, and `metrics` holds

* with --trace 0, the end-to-end medians: `setup_s` (interpreter start
  plus `import looptorsion.cli`, at the reference machine speed, see
  below), `job_ref_s` (the workload's computation
  after import, summed over its commands, at the reference machine
  speed, see below) and `peak_rss_mb` (the largest peak resident set
  among its commands, as the child reports it);
* with --trace 1, per-layer self times and counts from traced samples
  (`tracing.py`), alternated with untraced ones so that `trace.overhead_s`
  is traced minus untraced raw `job_s` (unscaled wall time).

The benchmark was made on a few cores of a shared host whose speed
drifts by 20-30% over tens of seconds, so raw wall times of the same
code spread between runs by about as much, even as medians of a whole
run.  Most of that drift slows any Python loop alike.  Each child
therefore also times a fixed calibration loop just before and after its
job (`child.calibrate`), and a command's `job_ref_s` is its wall time
scaled by CAL_REF_S / (the mean of the two calibration times): the
seconds the job would take on a machine where the loop takes CAL_REF_S.
`setup_s` is the median set-up time scaled the same way, by CAL_REF_S /
(the median calibration time of the run).  The loop shares no code with
the package, so a change to the package moves both metrics by the same
share as it moves the raw times.

The line before it is a JSON object with the sample counts, the raw job
and set-up times, the calibration times, the failed operation share, the failed
operation names and the machine.  Spans of
the last traced sample go to `.bench_build/spans/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SPANS = ROOT / ".bench_build" / "spans"
SETUP_SAMPLES = 5
CAL_REF_S = 0.2  # calibration loop time at the reference speed (about a 2-core Xeon's, Python 3.11)
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "job_ref_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "numtheory.power_witness_s": "s",
    "numtheory.power_witness_calls": "count",
    "numtheory.primes": "count",
    "numtheory.sieve_s": "s",
    "numtheory.divides_some_am_s": "s",
    "numtheory.divides_some_am_calls": "count",
    "numtheory.classify_s": "s",
    "numtheory.factorize_s": "s",
    "numtheory.factorize_calls": "count",
    "snf.smith_s": "s",
    "snf.smith_calls": "count",
    "snf.max_divisor_bits": "bits",
    "snf.rank_mod_p_s": "s",
    "snf.rank_mod_p_calls": "count",
    "quotient.build_s": "s",
    "quotient.build_calls": "count",
    "quotient.cache_hit_ratio": "ratio",
    "quotient.rows": "count",
    "quotient.cols": "count",
    "quotient.nnz": "count",
    "presentation.relations_s": "s",
    "presentation.relations": "count",
    "presentation.terms": "count",
    "series.self_s": "s",
    "action.semi_tensor_self_s": "s",
    "cli.render_s": "s",
    "import.looptorsion_s": "s",
    "import.numpy_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(Exception):
    pass


def spawn(args: list[str], timeout: float, importtime: bool = False) -> tuple[float, dict, str]:
    """Run child.py; return its spawn time, its result object and its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(BENCH / "child.py")] + args
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{' '.join(args)}: timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}: {tail[0]}")
    return t_spawn, json.loads(lines[-1]), proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import times (s) from `-X importtime` output, by top package."""
    out = {"import.looptorsion_s": 0.0, "import.numpy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        seconds = int(cumulative) / 1e6
        if name.startswith(" looptorsion"):  # top level: one space after the bar
            out["import.looptorsion_s"] += seconds
        elif name.strip() == "numpy":
            out["import.numpy_s"] += seconds
    return out


def check(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """Names of the operations whose output is missing, extra or different."""
    return sorted(name for name in set(expected) | set(got) if expected.get(name) != got.get(name))


def run_sample(workload: str, seed: int, expected: dict, deadline: float, traced: bool) -> dict:
    """All commands of the workload once, each in a fresh interpreter."""
    sample = {
        "setups": [], "job_s": 0.0, "job_ref_s": 0.0, "cal_s": [], "rss_kb": 0, "ops": {}, "layers": {}, "errors": []
    }
    for command in WORKLOADS[workload].commands:
        args = [command, str(seed)]
        if traced:
            SPANS.mkdir(parents=True, exist_ok=True)
            args.append(str(SPANS / f"{workload}-{command}-seed{seed}.json"))
        try:
            t_spawn, result, stderr = spawn(args, deadline - time.monotonic(), importtime=traced)
        except ChildFailed as exc:
            sample["errors"].append(str(exc))
            continue
        sample["setups"].append(result["ready"] - t_spawn)
        sample["job_s"] += result["job_s"]
        sample["job_ref_s"] += result["job_s"] * CAL_REF_S / result["cal_s"]
        sample["cal_s"].append(result["cal_s"])
        sample["rss_kb"] = max(sample["rss_kb"], result["peak_rss_kb"])
        sample["ops"].update(result["ops"])
        sample["errors"].extend(f"{command} {label}: {err}" for label, err in result["errors"].items())
        if traced:
            for name, value in {**result["layers"], **import_times(stderr)}.items():
                sample["layers"][name] = sample["layers"].get(name, 0) + value
    sample["failed"] = check(expected, sample["ops"])
    sample["attempted"] = len(set(expected) | set(sample["ops"]))
    return sample


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    # median_low picks a measured value, so counts stay whole numbers
    med = {name: statistics.median_low(s["layers"].get(name, 0) for s in traced) for name in names}
    calls, misses = med["quotient.build_calls"], med["quotient.build_misses"]
    med["quotient.cache_hit_ratio"] = (calls - misses) / calls if calls else 0.0
    med["trace.overhead_s"] = statistics.median(s["job_s"] for s in traced) - statistics.median(
        s["job_s"] for s in untraced
    )
    return {name: med[name] for name in LAYER_UNITS}


def machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "looptorsion" / "__init__.py").is_file():
        print(f"error: no looptorsion sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "refs" / f"{args.workload}.json").read_text(encoding="utf-8"))["ops"]

    start = time.monotonic()
    hard_stop = start + RUN_LIMIT_S
    try:
        spawn(["setup"], hard_stop - time.monotonic())  # untimed: compiles bytecode, warms the file cache
        setups = []
        for _ in range(SETUP_SAMPLES):
            t_spawn, result, _ = spawn(["setup"], hard_stop - time.monotonic())
            setups.append(result["ready"] - t_spawn)
    except ChildFailed as exc:
        print(f"error: the package does not import: {exc}", file=sys.stderr)
        return 1

    deadline = start + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.monotonic()
        sample = run_sample(args.workload, args.seed, expected, hard_stop, want_traced)
        durations.append(time.monotonic() - t0)
        (traced if want_traced else untraced).append(sample)
        if sample["errors"] and not sample["ops"]:
            break  # nothing ran; repeating would only fail again
        if time.monotonic() + max(durations) >= hard_stop:
            break
        if (traced or not args.trace) and time.monotonic() + statistics.median(durations) > deadline:
            break

    samples = untraced + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(len(s["failed"]) for s in samples)
    setups += [t for s in untraced for t in s["setups"]]
    cals = [c for s in untraced for c in s["cal_s"]]
    # with no child finished the run has failed already; set-up is then left unscaled
    speed = CAL_REF_S / statistics.median(cals) if cals else 1.0
    if args.trace:
        metrics = {} if not traced or not traced[0]["layers"] else layer_metrics(traced, untraced)
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups) * speed,
            "job_ref_s": statistics.median(s["job_ref_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["rss_kb"] for s in untraced) / 1024,
        }
        units = END_TO_END_UNITS
    info = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seed_changes_inputs": WORKLOADS[args.workload].seeded,
        "samples": {"untraced": len(untraced), "traced": len(traced), "setup": len(setups)},
        "job_s": {"untraced": [s["job_s"] for s in untraced], "traced": [s["job_s"] for s in traced]},
        "job_ref_s": [s["job_ref_s"] for s in untraced],
        "setup_raw_s": statistics.median(setups),
        "cal_s": [s["cal_s"] for s in untraced],
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "failed_ops": sorted({name for s in samples for name in s["failed"]}),
        "errors": sorted({err for s in samples for err in s["errors"]}),
        "machine": machine(),
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
