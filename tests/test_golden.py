"""Byte-for-byte golden outputs of the CLI.

Each case runs the CLI in process and compares its stdout with the file
of the same name under tests/golden/; for a refused command, the file
holds its stderr and the case also pins the exit code.  After an
intended change of a report, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from looptorsion.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES = {
    "recurrence_6": ["recurrence", "6"],
    "torsion_primes_E5": ["torsion-primes"],
    "torsion_primes_AX4_json": ["torsion-primes", "--algebra", "AX", "--json"],
    "torsion_primes_E7": ["torsion-primes", "--max-degree", "7"],
    "torsion_primes_AX5": ["torsion-primes", "--algebra", "AX", "--max-degree", "5"],
    "torsion_primes_AX6": ["torsion-primes", "--algebra", "AX", "--max-degree", "6"],
    "torsion_primes_E6_a2_zero": ["torsion-primes", "--params", "0,1,1,1,0,3", "--max-degree", "6"],
    "torsion_primes_E6_big_prime": ["torsion-primes", "--params", "0,1000000007,0,0,1,0", "--max-degree", "6"],
    "torsion_primes_E6_mixed_ungraded_json": [
        "torsion-primes", "--params", "1,-2,3,-4,5,-6", "--convention", "ungraded", "--max-degree", "6", "--json"
    ],
    "hilbert_E_field7_json": ["hilbert", "--field", "7", "--json"],
    "hilbert_AX_field13": ["hilbert", "--algebra", "AX", "--field", "13"],
    "hilbert_E6_field11": ["hilbert", "--field", "11", "--max-degree", "6"],
    "hilbert_E60_field7": ["hilbert", "--field", "7", "--max-degree", "60"],
    "hilbert_E100_field7": ["hilbert", "--field", "7", "--max-degree", "100"],
    "hilbert_AX40_field5": ["hilbert", "--algebra", "AX", "--field", "5", "--max-degree", "40"],
    "hilbert_AX5_field29_ungraded_json": [
        "hilbert", "--algebra", "AX", "--field", "29", "--max-degree", "5", "--convention", "ungraded", "--json"
    ],
    "hilbert_E6_mixed_field3": ["hilbert", "--params", "1,-2,3,-4,5,-6", "--field", "3", "--max-degree", "6"],
    "hilbert_E_a2_zero_field2": ["hilbert", "--params", "0,1,1,1,0,3", "--field", "2"],
    "hilbert_E0": ["hilbert", "--max-degree", "0"],
    "hilbert_E1": ["hilbert", "--max-degree", "1"],
    "hilbert_E0_field5": ["hilbert", "--max-degree", "0", "--field", "5"],
    "hilbert_E1_field5": ["hilbert", "--max-degree", "1", "--field", "5"],
    "hilbert_AX0": ["hilbert", "--algebra", "AX", "--max-degree", "0"],
    "hilbert_AX1": ["hilbert", "--algebra", "AX", "--max-degree", "1"],
    "hilbert_AX0_field5": ["hilbert", "--algebra", "AX", "--max-degree", "0", "--field", "5"],
    "hilbert_AX1_field5": ["hilbert", "--algebra", "AX", "--max-degree", "1", "--field", "5"],
    "order_rho_4_5": ["order", "--rho", "4,5"],
    "order_element_u1": ["order", "--element", "1*u1"],
    "order_AX_element_u1": ["order", "--algebra", "AX", "--element", "1*u1"],
    "order_AX_rho_4_4_json": ["order", "--algebra", "AX", "--rho", "4,4", "--json"],
    "classify_41_json": ["classify", "41", "--json"],
    "classify_103": ["classify", "103"],
    "classify_2": ["classify", "2"],
    "classify_3_json": ["classify", "3", "--json"],
    "classify_1009_params_json": ["classify", "1009", "--params", "1,2,3,4,5,6", "--json"],
    "census_1000": ["census", "1000"],
    "census_20000_json": ["census", "20000", "--json"],
    "census_4000_params_json": ["census", "4000", "--params", "1,2,3,4,5,6", "--json"],
    "census_2000_theorem2_7": ["census", "2000", "--theorem2", "7"],
    "theorem2_7_bound60_json": ["theorem2", "7", "--bound", "60", "--json"],
    "theorem2_7_bound60": ["theorem2", "7", "--bound", "60"],
    "theorem2_7_bound2000": ["theorem2", "7", "--bound", "2000"],
    "export_relations_E": ["export-relations"],
    "export_relations_AX_ungraded": ["export-relations", "--algebra", "AX", "--convention", "ungraded"],
    "export_relations_AX_mixed": ["export-relations", "--algebra", "AX", "--params", "1,-2,3,-4,5,-6"],
    "export_relations_AX_mixed_ungraded": [
        "export-relations", "--algebra", "AX", "--params", "1,-2,3,-4,5,-6", "--convention", "ungraded"
    ],
    "verify": ["verify"],
    "verify_json": ["verify", "--json"],
}

#: Refused commands: the golden file holds stderr, and stdout must stay empty.
REFUSALS = {
    "recurrence_1_refused": (["recurrence", "1"], 2),
}


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def run_refused(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert out.getvalue() == ""
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert run(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_cli_refusal_matches_golden(name):
    argv, code = REFUSALS[name]
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert run_refused(argv) == (code, expected)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(run(argv), encoding="utf-8")
    for name, (argv, _) in REFUSALS.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(run_refused(argv)[1], encoding="utf-8")
