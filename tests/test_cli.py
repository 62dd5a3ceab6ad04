from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from looptorsion.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def validate(payload, schema_name):
    import jsonschema
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        resource = Resource.from_contents(json.loads(path.read_text()))
        resources.append((path.name, resource))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema, registry=registry)


def test_recurrence_text_and_json(capsys):
    code, out = run_cli(capsys, "recurrence", "4")
    assert code == 0
    assert "m" in out and " 29 " in out.replace("\n", " ")
    code, out = run_cli(capsys, "recurrence", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "recurrence.schema.json")
    assert payload["rows"] == [
        {"m": 2, "a_m": 11, "b_m": 5},
        {"m": 3, "a_m": 29, "b_m": 11},
        {"m": 4, "a_m": 83, "b_m": 29},
    ]


def test_recurrence_with_theorem2_flag(capsys):
    code, out = run_cli(capsys, "recurrence", "5", "--theorem2", "2,3,5", "--json")
    assert code == 0
    assert json.loads(out)["rows"][-1] == {"m": 5, "a_m": 91, "b_m": 0}


def test_outputs_are_deterministic(capsys):
    _, first = run_cli(capsys, "torsion-primes", "--max-degree", "3", "--json")
    _, second = run_cli(capsys, "torsion-primes", "--max-degree", "3", "--json")
    assert first == second


def test_torsion_primes_json_schema(capsys):
    code, out = run_cli(capsys, "torsion-primes", "--max-degree", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "torsion_report.schema.json")
    assert payload["computed_primes"] == [11]


def test_torsion_primes_ax(capsys):
    code, out = run_cli(capsys, "torsion-primes", "--algebra", "AX", "--max-degree", "3", "--json")
    assert code == 0
    assert json.loads(out)["computed_primes"] == [11]


def test_classify_json_schema(capsys):
    code, out = run_cli(capsys, "classify", "41", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "classification.schema.json")
    assert payload["verdict"] == "non-torsion"
    assert payload["mechanism"] == "exhausted-cycle"
    assert payload["expectation_discrepancy"] is True


def test_classify_text_mentions_witness(capsys):
    code, out = run_cli(capsys, "classify", "17")
    assert code == 0 and "witness m = 6" in out


def test_classify_general_params(capsys):
    code, out = run_cli(capsys, "classify", "11", "--theorem2", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mechanism"] == "divisor-witness" and payload["witness"] == 5


def test_classify_two_and_three_by_the_recurrence_walk(capsys):
    for p in (2, 3):
        code, out = run_cli(capsys, "classify", str(p), "--json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "classification.schema.json")
        assert payload["verdict"] == "non-torsion" and payload["mechanism"] == "exhausted-cycle"
        assert payload["paper_expectation"] is None


def test_classify_rejects_composite(capsys):
    assert main(["classify", "15"]) == 2


def test_hilbert_json_schema(capsys):
    code, out = run_cli(capsys, "hilbert", "--algebra", "AX", "--field", "13", "--max-degree", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "hilbert.schema.json")
    assert payload["A"]["coefficients"] == [1, 8, 51, 304]
    assert payload["P"]["coefficients"] == [1, 8, 51, 304]


def test_hilbert_inner_algebra_no_poincare(capsys):
    code, out = run_cli(capsys, "hilbert", "--algebra", "E", "--max-degree", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["A"]["coefficients"] == [1, 6, 35] and "P" not in payload


def test_hilbert_accepts_fields_of_any_prime_size(capsys):
    big = "618970019642690137449562111"  # 2^89 - 1, a Mersenne prime
    for algebra in ("E", "AX"):
        code, rational = run_cli(capsys, "hilbert", "--algebra", algebra, "--field", "Q")
        assert code == 0
        code, out = run_cli(capsys, "hilbert", "--algebra", algebra, "--field", big)
        assert code == 0
        assert out == rational.replace("field Q]", f"field {big}]")
    # 2^61 + 9 = 11 * 33811 * 6199819341241 is still refused, for not being prime
    assert main(["hilbert", "--field", "2305843009213693961"]) == 2
    assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["Q", "7"])
@pytest.mark.parametrize("algebra, degree", [("E", "-1"), ("AX", "-3")])
def test_hilbert_negative_truncation_is_a_usage_error(capsys, algebra, degree, field):
    assert main(["hilbert", "--algebra", algebra, "--max-degree", degree, "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncation must be nonnegative\n"


def test_hilbert_field_that_is_not_a_number_is_a_usage_error(capsys):
    assert main(["hilbert", "--field", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --field must be Q or a prime\n"


def test_order_rho(capsys):
    code, out = run_cli(capsys, "order", "--rho", "4,3", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "order.schema.json")
    assert payload["order"] == "11"


def test_order_element_text_infinite(capsys):
    code, out = run_cli(capsys, "order", "--element", "1*u4.w + -1*w.u4", "--convention", "ungraded", "--json")
    assert code == 0
    assert json.loads(out)["order"] == "infinite"


def test_order_needs_exactly_one_selector(capsys):
    assert main(["order"]) == 2
    assert main(["order", "--rho", "4,3", "--element", "1*u1"]) == 2


def test_census_json_schema(capsys):
    code, out = run_cli(capsys, "census", "200", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "census.schema.json")
    assert sum(row["count"] for row in payload) == 44  # primes below 200 minus {2, 3}


def test_census_text_table(capsys):
    code, out = run_cli(capsys, "census", "100")
    assert code == 0
    assert out.splitlines()[0].startswith("class")


def test_theorem2_json_schema(capsys):
    code, out = run_cli(capsys, "theorem2", "7", "--bound", "60", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "theorem2.schema.json")
    assert payload["torsion_iff_not_excluded"] is True


def test_export_relations_and_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "relations.txt"
    code, _ = run_cli(capsys, "export-relations", "--max-degree", "3", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("# generators:") and len(text.splitlines()) == 4

    code = main(["verify", "--relations", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS relations-file" in out
    assert "verification PASSED" in out


def test_verify_detects_corrupted_relations(capsys, tmp_path):
    path = tmp_path / "relations.txt"
    run_cli(capsys, "export-relations", "--max-degree", "3", "--out", str(path))
    good = path.read_text()
    # flip one coefficient: 11*... -> 12*...
    corrupted = good.replace("11*", "12*", 1)
    assert corrupted != good
    path.write_text(corrupted)
    code = main(["verify", "--relations", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL relations-file" in out
    assert "verification FAILED" in out


def test_verify_json_schema(capsys):
    code, out = run_cli(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify_report.schema.json")
    assert payload["convention_selection"]["selected_default"] == "graded"


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["torsion-primes", "--algebra", "Z"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
    # one flag per subcommand that it does not read: rejected, not ignored
    dropped = [
        ["recurrence", "5", "--algebra", "AX"],
        ["torsion-primes", "--field", "7"],
        ["classify", "41", "--max-degree", "3"],
        ["hilbert", "--g2", "5"],
        ["hilbert", "--algebra", "AX", "--r4", "12"],
        ["order", "--rho", "4,3", "--field", "7"],
        ["order", "--rho", "4,3", "--max-degree", "3"],
        ["census", "100", "--convention", "ungraded"],
        ["theorem2", "7", "--params", "1,2,3,4,5,6"],
        ["export-relations", "--json"],
        ["verify", "--params", "1,2,3,4,5,6"],
    ]
    for argv in dropped:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    # AX has only quadratic relations, so a truncation degree is refused, not ignored
    assert main(["export-relations", "--algebra", "AX", "--max-degree", "2"]) == 2
    assert "--max-degree does not apply to --algebra AX" in capsys.readouterr().err
    # E's relations start in degree 2, so a lower truncation is refused, not clamped
    for degree in ("1", "0", "-3"):
        assert main(["export-relations", "--max-degree", degree]) == 2
        assert "max_degree must be at least 2" in capsys.readouterr().err


PARAMS_FLAGS = {"--params", "--theorem2"}
DEGREE_FLAGS = {"--max-degree"}
ALGEBRA_FLAGS = {"--algebra", "--convention"}
REPORT_FLAGS = {"--json", "--out"}
CLI_SURFACE = {
    "recurrence": PARAMS_FLAGS | REPORT_FLAGS,
    "torsion-primes": PARAMS_FLAGS | DEGREE_FLAGS | ALGEBRA_FLAGS | REPORT_FLAGS,
    "classify": PARAMS_FLAGS | REPORT_FLAGS,
    "hilbert": PARAMS_FLAGS | DEGREE_FLAGS | ALGEBRA_FLAGS | REPORT_FLAGS | {"--field"},
    "order": PARAMS_FLAGS | ALGEBRA_FLAGS | REPORT_FLAGS | {"--rho", "--element"},
    "census": PARAMS_FLAGS | REPORT_FLAGS,
    "theorem2": REPORT_FLAGS | {"--bound"},
    "export-relations": PARAMS_FLAGS | DEGREE_FLAGS | ALGEBRA_FLAGS | {"--out"},
    "verify": REPORT_FLAGS | {"--relations"},
}
JSON_SCHEMAS = {
    "recurrence": "recurrence.schema.json",
    "torsion-primes": "torsion_report.schema.json",
    "classify": "classification.schema.json",
    "hilbert": "hilbert.schema.json",
    "order": "order.schema.json",
    "census": "census.schema.json",
    "theorem2": "theorem2.schema.json",
    "verify": "verify_report.schema.json",
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert surface == CLI_SURFACE
    shared = PARAMS_FLAGS | DEGREE_FLAGS | ALGEBRA_FLAGS | REPORT_FLAGS | {"--field"}
    assert sum(len(flags & shared) for flags in surface.values()) == 43
    # every --json payload has exactly one schema, and every schema has a payload
    assert set(JSON_SCHEMAS) == {name for name, flags in surface.items() if "--json" in flags}
    assert sorted(JSON_SCHEMAS.values()) == sorted(path.name for path in SCHEMA_DIR.glob("*.schema.json"))


def test_export_relations_ax(capsys):
    code, out = run_cli(capsys, "export-relations", "--algebra", "AX")
    assert code == 0
    assert len(out.splitlines()) == 14  # header + 13 relations


def test_cli_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    subprocess.run(
        [sys.executable, "-c", "import sys, looptorsion.cli; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
    )


def test_torsion_primes_with_divisor_beyond_seven_bases(capsys):
    code, out = run_cli(capsys, "torsion-primes", "--params", "0,4,-3,1,1000000000000037,5", "--max-degree", "3")
    assert code == 0
    assert "computed torsion primes: [1000000000000037]" in out


def test_torsion_primes_with_divisor_beyond_deterministic_primality(capsys):
    # 10^25 + 13 is prime (sympy agrees) and above 3.3e24, so Baillie-PSW decides it
    code, out = run_cli(capsys, "torsion-primes", "--params", "0,4,-3,1,10000000000000000000000013,5", "--max-degree", "3")
    assert code == 0
    assert "computed torsion primes: [10000000000000000000000013]" in out
    assert "agree: True" in out


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "looptorsion", "order", "--rho", "4,4"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert run_cli(capsys, "order", "--rho", "4,4") == (0, proc.stdout)
