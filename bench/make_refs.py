"""Write the reference outputs in refs/, each cross-checked against an independent oracle.

Usage, from the root of the repository (needs sympy, as a test oracle only):

    PYTHONPATH=src python3 bench/make_refs.py [census recurrence reach fields]

The references are the package's own outputs, accepted only after an
oracle that shares no code with the path being timed agrees with them:

* census: p is a torsion prime iff (-2)^ord_p(3) = 1 mod p, with the
  order from `sympy.n_order`;
* recurrence: each witness m satisfies a_m = 0 mod q, with a_m evaluated
  exactly over the integers (`coeff_sequence`), and no smaller m >= 2 does; a
  prime without a witness has no zero in the whole cycle of the
  recurrence mod q (found by Brent's cycle detection);
* reach: the E6 divisors measured when the project roadmap was written,
  and AX_n = E_n + 2 E_(n-1) + 4 E_(n-2) + ... for divisors and free
  ranks in every degree n <= 4;
* fields: dim over F_p = free rank + #{divisors d with p | d}, from the
  integer Smith normal form.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

import sympy

import workloads
from looptorsion import numtheory
from looptorsion.presentation import THEOREM1_PARAMS, Params, coeff_sequence, relation_set_AX, relation_set_E
from looptorsion.quotient import graded_piece

REFS = Path(__file__).resolve().parent / "refs"

E6_DIVISORS = {11: 719, 319: 94, 26477: 11, 6486865: 1}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"reference rejected: {message}")


def run(command: str, seed: int = 0) -> dict[str, str]:
    ops: dict[str, str] = {}
    for label, call in workloads.steps(command, seed):
        ops.update(workloads.to_ops(label, call()))
    return ops


def census_rows(verdicts: dict[int, bool], expectation) -> list[dict]:
    rows: dict[int, dict] = {}
    for p in sorted(verdicts):
        exp = expectation.get(p % 24)
        row = rows.setdefault(
            p % 24,
            {"class": p % 24, "count": 0, "torsion": 0, "non_torsion": 0, "paper_expectation": exp,
             "discrepancies": []},
        )
        row["count"] += 1
        row["torsion" if verdicts[p] else "non_torsion"] += 1
        if exp is not None and (exp == "torsion") != verdicts[p]:
            row["discrepancies"].append(p)
    return [rows[r] for r in sorted(rows)]


def row_jsons(ops: dict[str, str]) -> list[dict]:
    return [json.loads(v.split("\n", 1)[0]) for k, v in sorted(ops.items()) if k.startswith("class ")]


def refs_census() -> dict[str, str]:
    ops = run("census")
    verdicts = {
        p: pow(-2, int(sympy.n_order(3, p)), p) == 1 for p in numtheory.sieve_primes(workloads.CENSUS_BOUND) if p > 3
    }
    require(row_jsons(ops) == census_rows(verdicts, numtheory.RULE_EXPECTATION), "census disagrees with n_order")
    return ops


def _zero_in_cycle(params: Params, q: int) -> bool:
    """Whether a_m = 0 mod q for some m >= 2: Brent's cycle detection on the state (a_m, b_m) mod q."""

    def step(s):
        return ((params.a + params.b * s[0] + params.c * s[1]) % q, params.d * s[0] % q)

    start = (params.a2 % q, params.b2 % q)
    power = lam = 1
    tortoise, hare = start, step(start)
    while tortoise != hare:
        if power == lam:
            tortoise, power, lam = hare, power * 2, 0
        hare = step(hare)
        lam += 1
    mu = 0  # length of the tail before the cycle
    tortoise = hare = start
    for _ in range(lam):
        hare = step(hare)
    while tortoise != hare:
        tortoise, hare, mu = step(tortoise), step(hare), mu + 1
    state = start
    for _ in range(mu + lam):
        if state[0] == 0:
            return True
        state = step(state)
    return False


def refs_recurrence() -> dict[str, str]:
    ops = run("recurrence")
    params = Params(*workloads.RECURRENCE_PARAMS)
    primes = numtheory.sieve_primes(workloads.RECURRENCE_BOUND)
    witnesses = {q: numtheory.classify_prime_general(params, q).witness for q in primes}
    by_m: dict[int, list[int]] = {}
    for q, m in witnesses.items():
        if m is not None:
            by_m.setdefault(m, []).append(q)
    for m, am, _ in coeff_sequence(params, max(by_m)):
        for q in by_m.get(m, ()):
            require(am % q == 0, f"a_{m} is not divisible by {q}")
    for q, m in witnesses.items():
        if m is None:
            require(not _zero_in_cycle(params, q), f"{q} divides some a_m but was classified non-torsion")
            continue
        s = (params.a2 % q, params.b2 % q)
        for _ in range(m - 2):  # minimality of the witness
            require(s[0] != 0, f"{q} has a witness below {m}")
            s = ((params.a + params.b * s[0] + params.c * s[1]) % q, params.d * s[0] % q)
    verdicts = {q: witnesses[q] is not None for q in primes}
    require(row_jsons(ops) == census_rows(verdicts, {}), "recurrence census disagrees with the witnesses")
    return ops


def _pieces(ops: dict[str, str], algebra: str) -> dict[int, tuple[int, Counter]]:
    out = {}
    for key, line in ops.items():
        match = re.fullmatch(rf"{algebra} degree (\d+)", key)
        if match:
            rank, divs = re.search(r"free rank (\d+), divisors (.*)$", line).groups()
            counts = Counter() if divs == "-" else Counter(int(d) for d in divs.split(","))
            out[int(match.group(1))] = (int(rank), counts)
    return out


def refs_reach() -> dict[str, str]:
    ops = {**run("reach-E6"), **run("reach-AX4")}
    e, ax = _pieces(ops, "E"), _pieces(ops, "AX")
    require(e[6][1] == Counter(E6_DIVISORS), "E6 divisors differ from the baseline")
    for n in range(5):  # AX_n = sum over i of 2^i copies of E_(n-i)
        rank = sum((1 << i) * e[n - i][0] for i in range(n + 1))
        divs = Counter()
        for i in range(n + 1):
            for d, k in e[n - i][1].items():
                divs[d] += (1 << i) * k
        require(ax[n] == (rank, divs), f"twisted-tensor identity fails in degree {n}")
    return ops


def refs_fields() -> dict[str, str]:
    ops = run("fields")
    for algebra, rels, top in (
        ("E", relation_set_E(THEOREM1_PARAMS, 5), 5),
        ("AX", relation_set_AX(THEOREM1_PARAMS), 4),
    ):
        pieces = [graded_piece(rels, n) for n in range(top + 1)]
        for p in workloads.FIELD_PRIMES:
            dims = [pc.free_rank + sum(1 for d in pc.divisors if d % p == 0) for pc in pieces]
            first = ops[f"{algebra} F_{p}"].splitlines()[0]
            coeffs = [int(c) for c in re.findall(r"(?:^|\+ )(\d+)", first.split(" = ", 1)[1])]
            require(coeffs == dims, f"{algebra} over F_{p}: {coeffs} != {dims}")
    for p in workloads.FIELD_PRIMES:
        require(json.loads(ops[f"twisted F_{p}"])["ok"], f"twisted-tensor check fails over F_{p}")
    return ops


MAKERS = {"census": refs_census, "recurrence": refs_recurrence, "reach": refs_reach, "fields": refs_fields}


def main(names: list[str]) -> int:
    REFS.mkdir(exist_ok=True)
    for name in names or sorted(MAKERS):
        ops = MAKERS[name]()
        path = REFS / f"{name}.json"
        path.write_text(json.dumps({"ops": ops}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.name}: {len(ops)} operations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
