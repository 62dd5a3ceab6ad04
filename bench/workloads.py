"""The benchmark's workloads: what each one runs, why, and its operations.

A workload is a list of commands.  Each command runs in a fresh
interpreter (see `child.py`), because the package memoizes: `quotient`
keeps three module-level dict caches keyed by the value-hashed
`RelationSet`, and `numtheory.power_witness` / `divides_some_am` are
`lru_cache(maxsize=None)`.  Any repeat inside one process would turn into
cache hits, while a CLI user pays the cold cost on every call.

A command is a list of steps.  A step is one call into the package; its
raw result is turned into named operations only after the timed region
ends, and each operation is compared with the reference outputs in
`refs/`.  An operation fails if its step raised or its output differs.

Sizes: a sample takes 1-3.5 s, so that one run holds about ten or more
samples and its median rides out the machine's short slowdowns.  AX
degree 5 (about 12-15 s of SNF alone) is therefore not part of `reach`;
E degree 6 keeps the large SNF.  `fields` uses three primes (a sample
over 5, 7, 11, 13, 29 and 83 takes 5.5 s): one where the dimensions never
jump, one where they jump from degree 3 on, one where they jump only in
E degree 5.

Not workloads, and why:

* Tier-1 wall time: 52% of it is the `census_100k` fixture, the same
  power walk that `census` times, and the rest is many small calls whose
  cost is mostly pytest itself.
* `looptorsion verify`: about 70% of it is the 1e5 census and the
  residue-rule walks, which `census` already covers; the remainder is the
  default-truncation algebra, which `fields` and `reach` cover at larger
  sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

CENSUS_BOUND = 20_000
RECURRENCE_BOUND = 4_000
RECURRENCE_PARAMS = (1, 2, 3, 4, 5, 6)
FIELD_PRIMES = (7, 11, 83)


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[str, ...]
    seeded: bool  # whether --seed changes the inputs


WORKLOADS = {
    "census": Workload(
        why=(
            "theorem-1 census below 20000 plus its table: the power walk in numtheory does almost "
            "all the work and the algebra layers are idle"
        ),
        commands=("census",),
        seeded=False,
    ),
    "recurrence": Workload(
        why=(
            "general-mode census for params 1,2,3,4,5,6 below 4000: the divides_some_am recurrence "
            "walk, the same numtheory layer used differently from census"
        ),
        commands=("recurrence",),
        seeded=False,
    ),
    "reach": Workload(
        why=(
            "torsion-primes for E degree 6 and AX degree 4, one process each: integer SNF on "
            "matrices built once, so every cache access is a miss"
        ),
        commands=("reach-E6", "reach-AX4"),
        seeded=False,
    ),
    "fields": Workload(
        why=(
            "hilbert E and AX plus the twisted-tensor check over the fields F_7, F_11, F_83 in one process: "
            "mod-p rank on matrices read back from the caches the first field filled"
        ),
        commands=("fields",),
        seeded=True,
    ),
}


def field_order(seed: int) -> list[int]:
    """The seed permutes the order of the fields, so a different field pays the cold build."""
    order = list(FIELD_PRIMES)
    random.Random(seed).shuffle(order)
    return order


def run_cli(argv: list[str]) -> str:
    """Run one CLI command in-process and return what it printed."""
    from looptorsion import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"looptorsion {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _census(bound: int, mode: str, params):
    from looptorsion import numtheory

    rows = numtheory.census(bound, mode=mode, params=params)
    return rows, numtheory.census_table(rows)


def steps(command: str, seed: int) -> list[tuple[str, object]]:
    """The labelled calls a command makes, in order.

    Imports the package lazily, so the parent process never loads it.
    Calls go through module attributes, so that a tracer installed after
    this returns still sees them.
    """
    from looptorsion import action
    from looptorsion.presentation import THEOREM1_PARAMS, Params

    if command == "census":
        return [("census", lambda: _census(CENSUS_BOUND, "theorem1", None))]
    if command == "recurrence":
        return [("census", lambda: _census(RECURRENCE_BOUND, "general", Params(*RECURRENCE_PARAMS)))]
    if command == "reach-E6":
        return [("E", lambda: run_cli(["torsion-primes", "--max-degree", "6"]))]
    if command == "reach-AX4":
        return [("AX", lambda: run_cli(["torsion-primes", "--algebra", "AX", "--max-degree", "4"]))]
    if command == "fields":
        out = []
        for p in field_order(seed):
            out.append((f"E F_{p}", lambda p=p: run_cli(["hilbert", "--algebra", "E", "--field", str(p)])))
            out.append((f"AX F_{p}", lambda p=p: run_cli(["hilbert", "--algebra", "AX", "--field", str(p)])))
            twisted = lambda p=p: action.semi_tensor_dimension_check(THEOREM1_PARAMS, p, 4, "graded")  # noqa: E731
            out.append((f"twisted F_{p}", twisted))
        return out
    raise ValueError(f"unknown command {command!r}")


def census_ops(rows, table: str) -> dict[str, str]:
    """One operation per residue-class row (its JSON and its table line), plus the table header."""
    lines = table.splitlines()
    ops = {"report": lines[0] if lines else ""}
    for i, row in enumerate(rows):
        line = lines[i + 1] if i + 1 < len(lines) else ""
        ops[f"class {row.residue:02d}"] = json.dumps(row.to_json(), sort_keys=True) + "\n" + line
    for extra in lines[len(rows) + 1 :]:
        ops["report"] += "\n" + extra
    return ops


def torsion_report_ops(algebra: str, text: str) -> dict[str, str]:
    """One operation per degree piece and per prime list; other lines form the report operation."""
    ops: dict[str, str] = {}
    report = []
    for line in text.splitlines():
        if line.startswith("degree "):
            ops[f"{algebra} {line.split(':', 1)[0]}"] = line
        elif line.startswith(("computed torsion primes", "predicted torsion primes")):
            ops[f"{algebra} {line.split(':', 1)[0]}"] = line
        else:
            report.append(line)
    ops[f"{algebra} report"] = "\n".join(report)
    return ops


def to_ops(label: str, raw) -> dict[str, str]:
    """Named operation outputs of one step's raw result."""
    if label == "census":
        return census_ops(*raw)
    if label in ("E", "AX"):
        return torsion_report_ops(label, raw)
    if label.startswith("twisted"):
        return {label: json.dumps(raw, sort_keys=True)}
    return {label: raw}
