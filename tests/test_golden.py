"""Byte-for-byte golden outputs of the CLI.

Each case runs the CLI in process and compares its stdout with the file
of the same name under tests/golden/.  After an intended change of a
report, rewrite the files with `PYTHONPATH=src python tests/test_golden.py`
and review the diff.
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
    "torsion_primes_E6_a2_zero": ["torsion-primes", "--params", "0,1,1,1,0,3", "--max-degree", "6"],
    "torsion_primes_E6_mixed_ungraded_json": [
        "torsion-primes", "--params", "1,-2,3,-4,5,-6", "--convention", "ungraded", "--max-degree", "6", "--json"
    ],
    "hilbert_E_field7_json": ["hilbert", "--field", "7", "--json"],
    "hilbert_AX_field13": ["hilbert", "--algebra", "AX", "--field", "13"],
    "hilbert_E6_field11": ["hilbert", "--field", "11", "--max-degree", "6"],
    "hilbert_AX5_field29_ungraded_json": [
        "hilbert", "--algebra", "AX", "--field", "29", "--max-degree", "5", "--convention", "ungraded", "--json"
    ],
    "hilbert_E6_mixed_field3": ["hilbert", "--params", "1,-2,3,-4,5,-6", "--field", "3", "--max-degree", "6"],
    "hilbert_E_a2_zero_field2": ["hilbert", "--params", "0,1,1,1,0,3", "--field", "2"],
    "order_rho_4_5": ["order", "--rho", "4,5"],
    "order_AX_rho_4_4_json": ["order", "--algebra", "AX", "--rho", "4,4", "--json"],
    "classify_41_json": ["classify", "41", "--json"],
    "classify_103": ["classify", "103"],
    "classify_2": ["classify", "2"],
    "census_1000": ["census", "1000"],
    "census_20000_json": ["census", "20000", "--json"],
    "theorem2_7_bound60_json": ["theorem2", "7", "--bound", "60", "--json"],
    "theorem2_7_bound60": ["theorem2", "7", "--bound", "60"],
    "export_relations_E": ["export-relations"],
    "export_relations_AX_ungraded": ["export-relations", "--algebra", "AX", "--convention", "ungraded"],
    "export_relations_AX_mixed": ["export-relations", "--algebra", "AX", "--params", "1,-2,3,-4,5,-6"],
    "export_relations_AX_mixed_ungraded": [
        "export-relations", "--algebra", "AX", "--params", "1,-2,3,-4,5,-6", "--convention", "ungraded"
    ],
}


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(run(argv), encoding="utf-8")
