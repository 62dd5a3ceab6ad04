"""Tests of the benchmark itself: run with `python3 -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from looptorsion import cli  # noqa: E402
from looptorsion.quotient import torsion_primes_up_to  # noqa: E402


def refs(name: str) -> dict[str, str]:
    return json.loads((BENCH / "refs" / f"{name}.json").read_text(encoding="utf-8"))["ops"]


def test_a_flipped_divisor_is_one_failed_operation():
    expected = refs("reach")
    got = dict(expected)
    got["E degree 6"] = got["E degree 6"].replace("6486865", "6486866")
    assert got != expected
    assert run.check(expected, got) == ["E degree 6"]


def test_missing_and_extra_operations_fail():
    expected = refs("census")
    got = dict(expected)
    del got["class 05"]
    got["class 99"] = "unexpected"
    assert run.check(expected, got) == ["class 05", "class 99"]
    assert run.check(expected, dict(expected)) == []


def test_a_step_that_raises_fails_its_operations(monkeypatch, capsys):
    def boom():
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "steps", lambda command, seed: [("E", boom)])
    assert child.main(["reach-E6", "0"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["errors"] == {"E": "RuntimeError: injected"}
    expected = {name: text for name, text in refs("reach").items() if name.startswith("E ")}
    assert len(expected) == 10
    assert run.check(expected, out["ops"]) == sorted(expected)


def test_times_are_scaled_by_the_calibration(monkeypatch, capsys):
    expected = refs("reach")
    halves = {
        "reach-E6": {k: v for k, v in expected.items() if k.startswith("E ")},
        "reach-AX4": {k: v for k, v in expected.items() if k.startswith("AX ")},
    }
    timing = {"reach-E6": (2.0, 0.4), "reach-AX4": (0.5, 0.1)}  # (job_s, cal_s)

    def fake_spawn(args, timeout, importtime=False):
        if args == ["setup"]:
            return 0.0, {"ready": 0.2}, ""
        job_s, cal_s = timing[args[0]]
        result = {"ready": 0.2, "job_s": job_s, "cal_s": cal_s, "peak_rss_kb": 1024, "ops": halves[args[0]]}
        return 0.0, {**result, "errors": {}}, ""

    monkeypatch.setattr(run, "spawn", fake_spawn)
    assert run.main(["--workload", "reach", "--seed", "0", "--seconds", "0.01", "--trace", "0"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    ref = run.CAL_REF_S
    assert metrics["job_ref_s"] == pytest.approx(2.0 * ref / 0.4 + 0.5 * ref / 0.1)
    assert metrics["setup_s"] == pytest.approx(0.2 * ref / 0.25)  # 0.25: median of the calibrations 0.4 and 0.1


def test_census_table_lines_are_checked():
    expected = refs("census")
    got = dict(expected)
    head, line = got["class 07"].split("\n", 1)
    count = json.loads(head)["count"]
    got["class 07"] = head + "\n" + line.replace(f" {count} ", f" {count + 1} ", 1)
    assert got["class 07"] != expected["class 07"]
    assert run.check(expected, got) == ["class 07"]


def test_fields_seed_permutes_fields_only():
    orders = {tuple(workloads.field_order(seed)) for seed in range(20)}
    assert len(orders) > 1
    assert all(sorted(order) == sorted(workloads.FIELD_PRIMES) for order in orders)
    assert workloads.field_order(7) == workloads.field_order(7)
    labels = {label for label, _ in workloads.steps("fields", 3)}
    assert labels == {label for label, _ in workloads.steps("fields", 4)}


def test_tracer_wraps_from_imports_and_self_times_nest():
    original = cli.torsion_primes_up_to
    assert original is torsion_primes_up_to
    tracer = Tracer("test")
    tracer.install()
    try:
        assert cli.torsion_primes_up_to is not original
        start = time.perf_counter()
        workloads.run_cli(["torsion-primes", "--max-degree", "4"])
        job_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert cli.torsion_primes_up_to is original
    names = {name for name, *_ in tracer.spans}
    assert {"cli.main", "quotient.torsion_primes_up_to", "numtheory.factorize"} <= names
    for name, parent, begin, end in tracer.spans:
        assert begin <= end
        if parent >= 0:
            _, _, p_begin, p_end = tracer.spans[parent]
            assert p_begin <= begin and end <= p_end
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= job_s


def test_kept_and_rendering_functions_exist():
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in tracing.package_modules()}
    for name in tracing.KEEP_RESULTS | tracing.RENDERERS:
        module, function = name.split(".")
        assert callable(getattr(modules[module], function, None)), name


def test_traced_child_self_times_fit_in_its_job(tmp_path):
    spans = tmp_path / "spans.json"
    t_spawn, result, stderr = run.spawn(["reach-E6", "0", str(spans)], timeout=170, importtime=True)
    layers = result["layers"]
    assert layers["trace.self_sum_s"] <= result["job_s"]
    assert layers["snf.smith_calls"] == 7 and layers["quotient.build_calls"] == 7
    assert run.check({k: v for k, v in refs("reach").items() if k.startswith("E ")}, result["ops"]) == []
    dumped = json.loads(spans.read_text(encoding="utf-8"))
    assert dumped["trace"] == "reach-E6:0" and len(dumped["spans"]) == layers["trace.spans"]
    traced = {"layers": {**layers, **run.import_times(stderr)}, "job_s": result["job_s"]}
    metrics = run.layer_metrics([traced], [{"job_s": result["job_s"]}])
    assert list(metrics) == list(run.LAYER_UNITS)
    assert metrics["import.looptorsion_s"] > 0 and metrics["quotient.cache_hit_ratio"] == 0.0


def test_import_times_parser():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       200 |        300 |   numpy",
            "import time:       100 |       1000 | looptorsion",
            "import time:        50 |         60 | looptorsion.cli",
            "import time:         5 |          5 |   looptorsion.snf",
        ]
    )
    assert run.import_times(text) == {"import.looptorsion_s": 1060e-6, "import.numpy_s": 300e-6}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_json_matches_the_workloads(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]}[name] == workloads.WORKLOADS[name].why
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_UNITS)
