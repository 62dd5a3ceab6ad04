from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptorsion import cli, quotient
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


def test_classify_names_a_refused_prime_p_in_both_modes(capsys):
    for argv in (["classify", "4"], ["classify", "4", "--params", "1,2,3,4,5,6"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: p = 4 is not prime\n", argv


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


def test_order_element_with_a_malformed_term_is_a_usage_error(capsys):
    assert main(["order", "--element", "u1*u2 + u2*u1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed term 'u1*u2': terms are COEFF*g1.g2 joined by ' + '")


def test_order_element_with_a_trailing_plus_is_a_malformed_term(capsys):
    assert main(["order", "--element=1*u1 + "]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed term '1*u1 +': terms are COEFF*g1.g2 joined by ' + '")


def test_order_needs_exactly_one_selector(capsys):
    assert main(["order"]) == 2
    assert main(["order", "--rho", "4,3", "--element", "1*u1"]) == 2


@pytest.mark.parametrize("value", ["4", "4,3,2", "", "4,", "4,3,", "4,x"])
def test_order_rho_needs_two_integers(capsys, value):
    assert main(["order", "--rho", value]) == 2
    assert capsys.readouterr() == ("", "error: --rho needs I,M\n")


def test_recursion_limit_is_a_refusal_not_a_traceback(capsys):
    # the recursive sigma of rho(1, m) passes the interpreter's recursion limit from m near 500
    assert main(["order", "--rho", "1,1100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: the computation exceeded an internal limit (RecursionError: maximum recursion")
    assert captured.err.count("\n") == 1


def test_out_of_memory_is_a_refusal_not_a_traceback(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(quotient, "torsion_primes_up_to", exhausted)
    assert main(["torsion-primes", "--max-degree", "12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the computation exceeded an internal limit (MemoryError)\n"


def every_digit(n: int) -> str:
    """str(n) with no limit on the number of digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_recurrence_prints_every_digit_of_an_a_m_past_the_interpreter_limit(capsys):
    # a_9100 = 2 + 3^9100 has 4342 digits, more than the 4300 Python converts by default
    limit = sys.get_int_max_str_digits()
    expected = every_digit(2 + 3**9100)
    code, out = run_cli(capsys, "recurrence", "9100")
    assert code == 0
    assert out.splitlines()[-1].split()[:2] == ["9100", expected]
    code, out = run_cli(capsys, "recurrence", "9100", "--json")
    assert code == 0
    assert re.search(r'"m": 9100,\s*"a_m": (\d+),', out).group(1) == expected
    assert sys.get_int_max_str_digits() == limit


def test_a_bound_of_4400_digits_is_read_and_refused_as_an_internal_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["census", "1" + "0" * 4399]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the computation exceeded an internal limit (OverflowError: ")
    assert captured.err.count("\n") == 1
    assert sys.get_int_max_str_digits() == limit


def run_limited(argv, address_space=2**30, timeout=20):
    """`main(argv)` in a child whose address space is capped at `address_space` bytes."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
        "from looptorsion.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize(
    "argv, reason",
    [
        # a safe prime: ord_p(3) is the prime (p - 1) / 2, about 10^20, so the discrete log needs 10^10 baby steps
        (["classify", "200000000000000021579"], "subgroup of prime order 100000000000000010789, above 1099511627776"),
        # the counts give 1.32e22 invariant factors in milliseconds, before any is listed
        (["torsion-primes", "--max-degree", "30"], "degrees 0..30 hold 13221592880837349212942 invariant factors"),
    ],
    ids=["classify", "torsion-primes"],
)
def test_a_computation_past_a_stated_limit_is_refused_before_it_allocates(argv, reason):
    proc = run_limited(argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the computation exceeded an internal limit (MemoryError: ")
    assert reason in proc.stderr and proc.stderr.count("\n") == 1


def test_hilbert_at_degree_500_is_the_rational_series_within_a_gigabyte():
    # over Q the dimensions of E are (1 - t) / (1 - 7t + 7t^2 + t^3), read off the relation degrees alone
    proc = run_limited(["hilbert", "--max-degree", "500", "--json"])
    assert proc.returncode == 0 and proc.stderr == ""
    expected = [1, 6, 35]
    while len(expected) < 501:
        expected.append(7 * expected[-1] - 7 * expected[-2] - expected[-3])
    assert json.loads(proc.stdout)["A"] == {"truncation": 500, "coefficients": expected}


@pytest.mark.xfail(
    raises=subprocess.TimeoutExpired,
    reason="ROADMAP item 6: a three-term walk has no stated limit, so classify walks for about 10^26 steps",
)
def test_classify_of_a_27_digit_prime_in_a_three_term_family_ends():
    proc = run_limited(["classify", "100000000000000000000000067", "--params", "1,2,3,4,5,6"], timeout=2)
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr


@pytest.mark.xfail(
    raises=subprocess.TimeoutExpired,
    reason="ROADMAP item 6: torsion-primes factors a 67-digit a_5 of the 2^64 family with no budget",
)
def test_torsion_primes_of_the_2_to_the_64_family_ends():
    argv = ["torsion-primes", "--params", "12,18446744073709551616,0,13,-1000000000,1", "--max-degree", "6"]
    proc = run_limited(argv, timeout=2)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("# algebra E, a=12 b=18446744073709551616 ")


@pytest.mark.parametrize(
    "argv", [["census", "99999999999999999999"], ["theorem2", "7", "--bound", "99999999999999999999"]]
)
def test_a_bound_past_the_index_range_is_a_refusal_not_a_traceback(argv, capsys):
    # the sieve's bytearray multiplication fails before it allocates anything
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the computation exceeded an internal limit (OverflowError: ")
    assert captured.err.count("\n") == 1


def test_negative_first_parameter_is_written_with_an_equals_sign(capsys):
    # "--params -1,..." reads as a flag and is a usage error; "--params=-1,..." is the spelling
    code, out = run_cli(capsys, "recurrence", "--params=-1,2,3,4,5,6", "3")
    assert code == 0
    assert out.startswith("# a=-1 b=2 c=3 d=4 a2=5 b2=6\n")


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["recurrence", "3", "--params", "1,2,,4,5,6"], "--params needs exactly six integers"),
        (["census", "100", "--params=1,2,3,4,5,x"], "--params needs exactly six integers"),
        (["recurrence", "3", "--theorem2", "2,x"], "--theorem2 needs p1,p2,..."),
        (["classify", "41", "--theorem2=2,3.5"], "--theorem2 needs p1,p2,..."),
        (["theorem2", "2,x"], "primes needs p1,p2,..."),
    ],
)
def test_a_list_item_that_is_not_an_integer_names_its_flag(capsys, argv, usage):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {usage}\n")


def test_empty_params_flags_are_given_not_absent(capsys):
    assert main(["recurrence", "3", "--params="]) == 2
    assert capsys.readouterr().err == "error: --params needs exactly six integers\n"
    assert main(["recurrence", "3", "--params=", "--theorem2=7"]) == 2
    assert capsys.readouterr().err == "error: --params and --theorem2 are mutually exclusive\n"
    # an empty --theorem2 excludes no prime, as the theorem2 subcommand reads an empty list
    _, out = run_cli(capsys, "theorem2", "", "--bound", "3", "--json")
    excluded_none = json.loads(out)["params"]
    code, out = run_cli(capsys, "recurrence", "3", "--theorem2=", "--json")
    assert code == 0
    assert json.loads(out)["params"] == excluded_none


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


@pytest.mark.parametrize("argv", [["7", "--bound", "-5"], ["2,3", "--bound", "2"]])
def test_theorem2_refuses_a_bound_that_leaves_no_prime_to_classify(capsys, argv):
    assert main(["theorem2", *argv]) == 2
    assert capsys.readouterr() == ("", "error: bound must be at least 3\n")


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


def test_verify_json_schema():
    # the verify_json golden case runs `verify --json` and compares its bytes with this file
    payload = json.loads((REPO_ROOT / "tests" / "golden" / "verify_json.txt").read_text(encoding="utf-8"))
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


def test_an_unknown_flag_is_reported_as_the_full_parser_reports_it(capsys):
    full = build_parser()
    subparsers = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    usage = full.format_usage()
    assert "{" + ",".join(subparsers.choices) + "}" in usage
    top_level_errors = set()
    for name in subparsers.choices:
        with pytest.raises(SystemExit) as err:
            full.parse_args([name, "--bogus"])
        assert err.value.code == 2
        expected = capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main([name, "--bogus"])
        assert err.value.code == 2
        assert capsys.readouterr().err == expected
        if expected.startswith(usage):
            top_level_errors.add(name)
    # without a required positional, the unknown flag is reported by the top-level parser and its usage line
    assert top_level_errors == {"torsion-primes", "hilbert", "order", "export-relations", "verify"}


#: Per command: its required positionals, a valid rest of the line with a `--flag=value` and an
#: abbreviated flag, a line whose integer argument is not an integer, and a valid rest of the
#: line with exact flags only.
PARSE_TABLE = {
    "recurrence": (["5"], ["--params=1,2,3,4,5,6", "--js"], ["x"], ["--theorem2", "7", "--json", "--out=r.txt"]),
    "torsion-primes": (
        [],
        ["--max-deg", "6", "--algebra=AX", "--conv", "ungraded"],
        ["--max-degree", "x"],
        ["--max-degree", "6", "--algebra=AX", "--convention", "ungraded", "--json"],
    ),
    "classify": (["41"], ["--theorem2=7", "--o", "out.txt"], ["4.5"], ["--params", "1,2,3,4,5,6", "--out", "c.txt"]),
    "hilbert": (
        [],
        ["--field=13", "--max-deg", "3", "--alg", "AX", "--json"],
        ["--max-degree=x"],
        ["--field", "13", "--max-degree=3", "--algebra", "AX", "--json"],
    ),
    "order": (
        [],
        ["--rho=4,3", "--conv", "ungraded", "--elem", "1*u1"],
        ["--max-degree", "x"],
        ["--element", "1*u1", "--algebra", "AX", "--convention=graded"],
    ),
    "census": (["100"], ["--par", "1,2,3,4,5,6", "--json", "--out=c.txt"], ["1e3"], ["--theorem2=", "--json"]),
    "theorem2": (["2,3"], ["--bou", "50", "--out=t.txt"], ["2,3", "--bound", "x"], ["--bound=-5", "--json"]),
    "export-relations": (
        [],
        ["--max-deg", "4", "--theorem2=5", "--algebra=E"],
        ["--max-degree", "x"],
        ["--max-degree", "4", "--params=-1,2,3,4,5,6", "--convention", "ungraded"],
    ),
    "verify": ([], ["--rel", "r.txt", "--json"], ["--max-degree", "x"], ["--relations", "r.txt", "--json"]),
}


def parse_cases():
    """Each distinct command line once."""
    cases = [[], ["-h"], ["--help"], ["nonsense"], ["cens", "100"], ["--bogus"], ["--help", "census"]]
    for name, (positionals, flags, non_integer, exact) in PARSE_TABLE.items():
        line = [name, *positionals]
        cases += (
            [*line, *flags],  # valid
            [name, *flags, *positionals],  # valid, positionals last
            [*line, *exact],  # valid, exact flags only
            [name, *exact, *positionals],  # valid, exact flags, positionals last
            [*line, *exact, *exact],  # valid, every flag repeated
            [*line, "--params=-1,2,3,4,5,6"],  # valid where --params is read
            [name, "-h"],
            [*line, *flags, "--help"],
            [name, "--bogus"],
            [*line, "--bogus"],
            [*line, "--bogus=1", *flags],
            [*line, "--json=1", *exact],
            [name, *non_integer],
            [*line, "--algebra", "Z"],
            [name],  # a missing positional where the command takes one
            [*line, "extra"],
            [*line, *flags, "extra", "--bogus"],
            [*line, "--params", "-1,2,3,4,5,6"],
            [*line, *exact, "--params"],
            [*line, *exact, "--out=--"],  # argparse drops the "--"
            [*line, "--", "extra"],
        )
    return [list(argv) for argv in dict.fromkeys(map(tuple, cases))]


def record(args):
    return args


@contextlib.contextmanager
def commands_recorded():
    """Every `cmd_*` returns the namespace it is given instead of running."""
    with contextlib.ExitStack() as stack:
        for name in cli.COMMANDS:
            stack.enter_context(mock.patch.object(cli, "cmd_" + name.replace("-", "_"), record))
        yield


def outcome(parse, argv):
    """What `parse(argv)` returns, or ("exit", code) if it exits, with what it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def assert_main_parses_as_the_full_parser(argv):
    """Same exit code, stdout and stderr as the full parser, and the namespace it gives for a valid line."""
    with commands_recorded():
        expected = outcome(build_parser().parse_args, argv)
        assert outcome(main, argv) == expected
    return expected[0]


@pytest.mark.parametrize("argv", parse_cases(), ids=lambda argv: " ".join(argv) or "(empty)")
def test_main_parses_a_line_as_the_full_parser_does(argv):
    assert_main_parses_as_the_full_parser(argv)


#: Values each flag accepts as a separate token; each of `BAD_VALUES` is refused by some flag or starts with "-".
FLAG_VALUES = {
    "--params": ["1,2,3,4,5,6", "1,2", ""],
    "--theorem2": ["7", "2,3", ""],
    "--max-degree": ["4", "0", " 5", "1_0"],
    "--algebra": ["E", "AX"],
    "--convention": ["graded", "ungraded"],
    "--out": ["o.txt"],
    "--json": [],
    "--field": ["Q", "7", "x"],
    "--rho": ["4,3", "4,"],
    "--element": ["1*u1", "1*u1 + -1*u2"],
    "--bound": ["50", "+5"],
    "--relations": ["r.txt"],
}
BAD_VALUES = ["-1,2,3,4,5,6", "-3", "-1*u1", "-", "--", "=", "x", "Z", "4.5", "-h"]
POSITIONALS = {"recurrence": "5", "classify": "41", "census": "100", "theorem2": "2,3"}
TRICKY_TOKENS = ["-", "--", "=", "", "-h", "--help", "--bogus", "--bogus=1", "-x", "--json=x", "-7", "extra"]


def flag_pieces(flags, values):
    """`--flag value` and `--flag=value` for a flag drawn from `flags`, its value from `values(flag)`."""
    def pieces(flag):
        if flag == "--json":
            return st.just([flag])
        value = st.sampled_from(values(flag))
        return st.one_of(value.map(lambda v: [flag, v]), value.map(lambda v: [f"{flag}={v}"]))

    return st.sampled_from(sorted(flags)).flatmap(pieces)


@st.composite
def command_lines(draw):
    """A command's valid flags and positional in any order, with up to two tricky pieces put in."""
    command = draw(st.sampled_from(sorted(CLI_SURFACE)))
    pieces = draw(st.lists(flag_pieces(CLI_SURFACE[command], FLAG_VALUES.get), max_size=4))
    pieces = draw(st.permutations(pieces + ([[POSITIONALS[command]]] if command in POSITIONALS else [])))
    tricky = st.one_of(
        flag_pieces(FLAG_VALUES, lambda flag: FLAG_VALUES[flag] + BAD_VALUES),  # any flag, any value
        st.sampled_from(sorted(FLAG_VALUES)).flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda k: [f[:k]])),
        st.sampled_from([*TRICKY_TOKENS, *POSITIONALS.values()]).map(lambda token: [token]),
    )
    for _ in range(draw(st.integers(0, 2))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(tricky))
    head = draw(st.sampled_from([command] * 4 + ["cens", ""]))
    return [head, *(token for piece in pieces for token in piece)]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_main_parses_any_drawn_line_as_the_full_parser_does(argv):
    assert_main_parses_as_the_full_parser(argv)


def not_built(*args, **kwargs):
    raise AssertionError("an argparse parser was built")


def test_a_valid_command_line_builds_no_parser(capsys):
    with mock.patch.object(argparse, "ArgumentParser", not_built):
        assert main(["census", "100"]) == 0
    assert capsys.readouterr().out.startswith("class   count  torsion")


#: The command lines of the benchmark's `reach` and `fields` workloads, copied.
BENCHMARK_LINES = [
    ["torsion-primes", "--max-degree", "6"],
    ["torsion-primes", "--algebra", "AX", "--max-degree", "4"],
    *(["hilbert", "--algebra", algebra, "--field", p] for p in ("7", "11", "83") for algebra in ("E", "AX")),
]


@pytest.mark.parametrize("argv", BENCHMARK_LINES, ids=" ".join)
def test_a_benchmark_line_is_read_without_a_parser(argv):
    expected = assert_main_parses_as_the_full_parser(argv)
    assert isinstance(expected, argparse.Namespace)
    with commands_recorded(), mock.patch.object(argparse, "ArgumentParser", not_built):
        assert main(argv) == expected


def test_a_plain_command_line_loads_no_locale():
    # the first ArgumentParser of a process imports `locale` through gettext
    loaded = loaded_modules("import os; from looptorsion.cli import main; main(['census', '100', '--out', os.devnull])")
    assert "looptorsion.numtheory" in loaded
    assert "locale" not in loaded - loaded_modules("pass")


def test_top_level_help_describes_the_tool_and_names_no_module(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    help_text = capsys.readouterr().out
    # the description is the paragraph after the usage lines, before the command list
    description = help_text.split("\n\n")[1]
    assert "Exit codes: 0 on success" in description and "stderr" in description
    modules = {path.stem for path in Path(cli.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    assert modules >= {"numtheory", "presentation", "quotient", "snf"}
    assert not modules & set(re.findall(r"\w+", description)) and "`" not in description


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


def loaded_modules(statement):
    """The modules a fresh interpreter holds after running `statement`."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    script = f"import sys; {statement}; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_package_import_loads_no_submodule():
    assert not {m for m in loaded_modules("import looptorsion") if m.startswith("looptorsion.")}


def test_cli_import_loads_neither_verify_nor_action():
    loaded = loaded_modules("import looptorsion.cli")
    assert "looptorsion.cli" in loaded
    assert not loaded & {"looptorsion.verify", "looptorsion.action", "fractions", "decimal"}


ALGEBRA_MODULES = {"looptorsion.quotient", "looptorsion.snf", "looptorsion.count"}


def test_cli_import_loads_no_algebra_module_nor_json():
    loaded = loaded_modules("import looptorsion.cli")
    assert "looptorsion.cli" in loaded
    assert not loaded & {*ALGEBRA_MODULES, "looptorsion.series", "looptorsion.presentation", "looptorsion.freealg", "json"}


def run_module(*argv):
    """`python -X importtime -m looptorsion *argv`: the finished process and the modules it imported."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    command = [sys.executable, "-X", "importtime", "-m", "looptorsion", *argv]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc, imported


@pytest.mark.parametrize(
    "argv, runs_algebra",
    [
        (["census", "1000"], False),
        (["census", "1000", "--params", "1,2,3,4,5,6"], False),
        (["classify", "41"], False),
        (["classify", "1009", "--params", "1,2,3,4,5,6"], False),
        (["theorem2", "2,3", "--bound", "50"], False),
        (["recurrence", "6"], False),
        (["export-relations"], False),
        (["torsion-primes", "--max-degree", "4", "--json"], True),
        (["hilbert", "--algebra", "AX", "--field", "13"], True),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_a_command_loads_the_algebra_modules_only_if_it_runs_them(argv, runs_algebra):
    proc, imported = run_module(*argv)
    assert proc.returncode == 0 and proc.stdout
    assert "looptorsion.numtheory" in imported
    if argv[0] == "hilbert":
        # the closed-form count, without the matrix oracle it is checked against
        assert imported & {*ALGEBRA_MODULES, "looptorsion.series"} == {"looptorsion.count", "looptorsion.series"}
    else:
        assert imported & ALGEBRA_MODULES == (ALGEBRA_MODULES if runs_algebra else set())
    if argv[0] in ("census", "classify", "theorem2", "recurrence"):
        # the arithmetic commands need neither the relation families nor the free algebra
        assert {m for m in imported if m.startswith("looptorsion")} == {"looptorsion", "looptorsion.cli", "looptorsion.numtheory"}


def test_a_deferred_name_loads_its_module_on_first_access():
    loaded = loaded_modules("import looptorsion.cli as cli; cli.torsion_primes_up_to")
    assert "looptorsion.quotient" in loaded and "looptorsion.series" in loaded
    assert cli.torsion_primes_up_to is quotient.torsion_primes_up_to
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # compared with a bare interpreter, so that what `site` loads on a machine does not count
    added = loaded_modules("import looptorsion.cli") - loaded_modules("pass")
    assert "looptorsion.cli" in added
    assert not added & {"dataclasses", "inspect"}


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
