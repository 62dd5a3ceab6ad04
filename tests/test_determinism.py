"""Two runs of a command print the same bytes, whatever the string hash seed.

A fixed sample of the golden commands (`test_golden.CASES` and
`REFUSALS`) runs in two fresh interpreters, one with `PYTHONHASHSEED` 0
and one with 12345, and the two must agree in stdout, stderr and exit
code.  The in-process golden tests run under whatever seed pytest has,
so they cannot see a report that depends on set or dict order of
strings.  The sample always holds `torsion-primes` on E and on AX and a
`hilbert --json`; the rest is drawn by `SAMPLE_SEED`, never by time, so
every run checks the same commands.  `verify` is left out of the draw:
one child takes about 4 s.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN_DIR, REFUSALS

REPO_ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "12345")
SAMPLE_SEED = 16
SAMPLE_SIZE = 8
ALWAYS = ("torsion_primes_E5", "torsion_primes_AX4_json", "hilbert_E_field7_json")


def sample() -> list[str]:
    golden = {**CASES, **{name: argv for name, (argv, _) in REFUSALS.items()}}
    pool = sorted(name for name in golden if name not in ALWAYS and golden[name][0] != "verify")
    return [*ALWAYS, *random.Random(SAMPLE_SEED).sample(pool, SAMPLE_SIZE - len(ALWAYS))]


def run_child(argv, hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED=hash_seed)
    command = [sys.executable, "-m", "looptorsion", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)


def test_the_sample_is_fixed_and_holds_the_required_commands():
    names = sample()
    assert names == sample() and len(set(names)) == len(names) == SAMPLE_SIZE
    assert {"torsion-primes", "hilbert"} <= {CASES[name][0] for name in names if name in CASES}


@pytest.mark.parametrize("name", sample())
def test_a_golden_command_prints_the_same_bytes_under_two_hash_seeds(name):
    argv, code = (CASES[name], 0) if name in CASES else REFUSALS[name]
    first, second = (run_child(argv, seed) for seed in HASH_SEEDS)
    assert (first.stdout, first.stderr, first.returncode) == (second.stdout, second.stderr, second.returncode)
    assert first.returncode == code
    golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert (first.stdout if code == 0 else first.stderr) == golden
