from __future__ import annotations

import functools

import pytest

from looptorsion import numtheory

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


@pytest.fixture(scope="session", autouse=True)
def memoized_walks():
    """Memoize the two exhaustive walks for the whole session.

    The suite runs `verify` in process several times, and criteria 7i and
    7ii walk the same primes again; each walk is a pure function, so one
    answer per key serves them all.  Every caller reaches the walks as
    attributes of `numtheory`, so patching them there covers each one.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name in ("power_witness", "divides_some_am"):
            patch.setattr(numtheory, name, functools.cache(getattr(numtheory, name)))
        yield


@pytest.fixture(scope="session")
def census_100k():
    return numtheory.census(100_000, mode="theorem1")
