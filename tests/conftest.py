from __future__ import annotations

import functools

import pytest

from looptorsion import numtheory, snf

#: Filled by tests/test_acceptance.py; printed after the run so the
#: acceptance suite always shows one line per criterion.
ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, detail in ACCEPTANCE_RESULTS:
        line = f"{status:4} {name}"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)


def _memoized_dense_smith_form(dense):
    """`dense` memoized on the full matrix content, returning a fresh list each call."""
    answers = {}

    def invariant_factors_dense(mat):
        key = tuple(map(tuple, mat))
        if key not in answers:
            answers[key] = dense(mat)
        return list(answers[key])

    return invariant_factors_dense


@pytest.fixture(scope="session", autouse=True)
def memoized_oracles():
    """Memoize the two exhaustive walks and the dense Smith form for the whole session.

    The suite runs `verify` in process several times, and criteria 7i and
    7ii walk the same primes again; `verify`'s Smith-form check spends
    nearly all its time in the dense oracle on the same matrices each run.
    Each is a pure function, so one answer per key serves every caller.
    Every caller reaches them as attributes of `numtheory` and `snf`, so
    patching them there covers each one.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name in ("power_witness", "divides_some_am"):
            patch.setattr(numtheory, name, functools.cache(getattr(numtheory, name)))
        patch.setattr(snf, "invariant_factors_dense", _memoized_dense_smith_form(snf.invariant_factors_dense))
        yield


@pytest.fixture(scope="session")
def census_100k():
    return numtheory.census(100_000, mode="theorem1")
