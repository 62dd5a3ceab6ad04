from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from looptorsion import numtheory as nt
from looptorsion.presentation import Params, THEOREM1_PARAMS, coeff_sequence


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 25, 1000, 10**5])
def test_sieve_primes_matches_sympy(bound):
    assert nt.sieve_primes(bound) == list(sympy.primerange(bound))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert nt.is_prime(n) == (n in primes)
    assert not nt.is_prime(1) and not nt.is_prime(0) and not nt.is_prime(-7)


def test_is_prime_beyond_deterministic_range_matches_sympy():
    # the bound itself is a strong pseudoprime to all 13 bases, base 2
    # included, so the Lucas half of Baillie-PSW must reject it
    assert nt.DETERMINISTIC_PRIMALITY_BOUND == 3317044064679887385961981
    assert not nt.is_prime(nt.DETERMINISTIC_PRIMALITY_BOUND)
    assert not nt.is_prime(nt.DETERMINISTIC_PRIMALITY_BOUND**2)
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randrange(nt.DETERMINISTIC_PRIMALITY_BOUND, 10**40)
        assert nt.is_prime(n) == sympy.isprime(n)
        assert nt.is_prime(sympy.nextprime(n))


def test_is_prime_beyond_seven_bases():
    # strong pseudoprimes to the bases 2..17, 2..23 and 2..37
    for n in (341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not nt.is_prime(n)
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randrange(330_000_000_000_000, 3_300_000_000_000_000_000_000_000)
        assert nt.is_prime(n) == sympy.isprime(n)
        p = sympy.nextprime(n)
        if p < nt.DETERMINISTIC_PRIMALITY_BOUND:
            assert nt.is_prime(p)


def test_factorize_beyond_seven_bases():
    n = 2 + 3**35
    assert nt.factorize(n) == sympy.factorint(n)


def test_factorize_survives_failed_rho_attempts(monkeypatch):
    # both factors lie above the trial-division primes, so Pollard rho runs;
    # the first 150 attempts are forced to end with gcd = n, which is more
    # than the 99 constants an earlier version tried before giving up
    n = 10007 * 10009
    forced = iter(range(150))
    real_gcd = nt.gcd

    def failing_gcd(a, b):
        if b == n and next(forced, None) is not None:
            return n
        return real_gcd(a, b)

    monkeypatch.setattr(nt, "gcd", failing_gcd)
    assert nt.factorize(n) == {10007: 1, 10009: 1}
    assert next(forced, None) is None


def test_factorize():
    assert nt.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert nt.factorize(-26477) == {11: 1, 29: 1, 83: 1}
    assert nt.factorize(1) == {}
    with pytest.raises(ValueError):
        nt.factorize(0)


def test_legendre_examples():
    assert nt.legendre(3, 13) == 1
    assert nt.legendre(-2, 13) == -1
    assert nt.legendre(3, 7) == -1
    assert nt.legendre(26, 13) == 0


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        nt.legendre(3, 2)
    with pytest.raises(ValueError):
        nt.legendre(3, 15)


def test_legendre_tables_for_3_and_minus_2():
    for p in nt.sieve_primes(1000):
        if p in (2, 3):
            continue
        expected3 = 1 if p % 12 in (1, 11) else -1
        assert nt.legendre(3, p) == expected3
        expected_m2 = 1 if p % 8 in (1, 3) else -1
        assert nt.legendre(-2, p) == expected_m2


def test_power_witness_small_cases():
    assert nt.power_witness(11) == 2  # 2 + 9
    assert nt.power_witness(29) == 3  # 2 + 27
    assert nt.power_witness(83) == 4  # 2 + 81
    assert nt.power_witness(5) == 5  # 2 + 243 = 5 * 49
    assert nt.power_witness(17) == 6  # 2 + 729 = 17 * 43
    assert nt.power_witness(13) is None
    assert nt.power_witness(23) is None


def test_power_witness_documented_counterexamples():
    # the claimed always-torsion classes fail at these primes
    assert nt.power_witness(41) is None  # class 17 mod 24
    assert nt.power_witness(103) is None  # class 7 mod 24
    assert nt.power_witness(1181) is None  # class 5 mod 24


def test_power_witness_values_verify_exactly():
    for p in nt.sieve_primes(2000):
        if p in (2, 3):
            continue
        m = nt.power_witness(p)
        if m is not None:
            assert m >= 2
            assert (2 + 3**m) % p == 0


def test_classify_theorem1_examples():
    c13 = nt.classify_prime_theorem1(13)
    assert c13.verdict == "non-torsion" and c13.mechanism == "residue-rule"
    c11 = nt.classify_prime_theorem1(11)
    assert c11.verdict == "torsion" and c11.mechanism == "power-witness" and c11.witness == 2
    c5 = nt.classify_prime_theorem1(5)
    assert c5.verdict == "torsion" and c5.witness == 5
    c41 = nt.classify_prime_theorem1(41)
    assert c41.verdict == "non-torsion" and c41.mechanism == "exhausted-cycle"
    payload = c41.to_json()
    assert payload["legendre3"] == -1 and payload["legendre_minus2"] == 1


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        nt.classify_prime_theorem1(2)
    with pytest.raises(ValueError):
        nt.classify_prime_theorem1(3)
    with pytest.raises(ValueError):
        nt.classify_prime_theorem1(15)


def test_divides_some_am_examples():
    a30 = Params(30, 1, 0, 0, 1, 0)
    assert nt.divides_some_am(a30, 7) == 5  # a_5 = 91
    assert nt.divides_some_am(a30, 5) is None
    assert nt.divides_some_am(THEOREM1_PARAMS, 29) == 3
    assert nt.divides_some_am(THEOREM1_PARAMS, 11) == 2
    assert nt.divides_some_am(THEOREM1_PARAMS, 13) is None


def test_divides_some_am_witness_verifies_exactly():
    for q in nt.sieve_primes(500):
        m = nt.divides_some_am(THEOREM1_PARAMS, q)
        if m is not None:
            _, am, _ = coeff_sequence(THEOREM1_PARAMS, m)[-1]
            assert am % q == 0


def test_divides_some_am_matches_exhaustive_iteration():
    # independent oracle: iterate the recurrence for the full q^2 + 1
    # pigeonhole bound and take the first zero
    params = Params(1, 3, 5, 7, 0, 1)
    for q in (5, 7, 11, 13):
        expected = None
        a, b = params.a2 % q, params.b2 % q
        for m in range(2, q * q + 3):
            if a == 0:
                expected = m
                break
            a, b = (params.a + params.b * a + params.c * b) % q, params.d * a % q
        assert nt.divides_some_am(params, q) == expected


@pytest.mark.parametrize(
    "params",
    [
        Params(2, 3, 0, 5, 1, 1),
        Params(1, 4, 7, 0, 2, 3),
        Params(5, 2, 3, 4, 0, 1),
        Params(1, 1, 30, 42, 1, 1),
        Params(1, 2, 3, 4, 5, 6),
    ],
    ids=["c=0", "d=0", "a2=0", "c,d=0 mod 2,3,5,7", "generic"],
)
def test_divides_some_am_matches_exact_sequence(params):
    # oracle: the first m <= q^2 + 2 whose exact a_m is divisible by q;
    # with c or d = 0 mod q the state map is not injective, so the walk
    # can enter its cycle after a tail
    bound = 60
    rows = coeff_sequence(params, (bound - 1) ** 2 + 2)
    for q in nt.sieve_primes(bound):
        expected = next((m for m, am, _ in rows if m <= q * q + 2 and am % q == 0), None)
        assert nt.divides_some_am(params, q) == expected, q


def test_divides_some_am_agrees_with_power_walk():
    for q in nt.sieve_primes(2000):
        if q in (2, 3):
            assert nt.divides_some_am(THEOREM1_PARAMS, q) is None
            continue
        assert nt.divides_some_am(THEOREM1_PARAMS, q) == nt.power_witness(q)


@settings(max_examples=200, deadline=None, database=None)
@given(st.builds(Params, *[st.integers(-12, 12)] * 6), st.sampled_from(list(sympy.primerange(2, 200))))
def test_divides_some_am_matches_brute_force_walk(params, q):
    # the state (a_m, b_m) mod q takes at most q^2 values, so every value
    # a_m takes, it takes for some m <= q^2 + 1
    expected = None
    a, b = params.a2 % q, params.b2 % q
    for m in range(2, q * q + 3):
        if a == 0:
            expected = m
            break
        a, b = (params.a + params.b * a + params.c * b) % q, params.d * a % q
    assert nt.divides_some_am(params, q) == expected


def test_divides_some_am_after_a_tail_of_two_steps():
    # a_m = 1, 2, 1, 1, ...: the states at m = 3 and 4 never come back,
    # so a walk that saved either of them would not stop
    params = Params(1, 0, 1, 0, 1, 1)
    assert [am for _, am, _ in coeff_sequence(params, 6)] == [1, 2, 1, 1, 1]
    assert nt.divides_some_am(params, 2) == 3
    for q in (3, 5, 101):
        assert nt.divides_some_am(params, q) is None


def test_theorem2_params():
    assert nt.theorem2_params([2, 3, 5]) == Params(30, 1, 0, 0, 1, 0)
    assert nt.theorem2_params([7]).a == 7
    assert nt.theorem2_params([]).a == 1
    with pytest.raises(ValueError):
        nt.theorem2_params([4])
    with pytest.raises(ValueError):
        nt.theorem2_params([3, 3])


def test_theorem2_empty_set_makes_every_prime_torsion():
    params = nt.theorem2_params([])
    for q in (2, 3, 5, 7, 11, 97):
        assert nt.divides_some_am(params, q) == q + 1  # a_m = m - 1


def test_theorem2_excluded_prime_has_no_witness():
    params7 = nt.theorem2_params([7])
    assert nt.divides_some_am(params7, 7) is None
    assert nt.divides_some_am(params7, 11) == 5


def test_census_small_bound():
    rows = nt.census(100, mode="theorem1")
    by_class = {r.residue: r for r in rows}
    assert by_class[13].count == 3 and by_class[13].non_torsion == 3  # 13, 37, 61
    assert by_class[5].count == 3 and by_class[5].torsion == 3  # 5, 29, 53
    assert sum(r.count for r in rows) == 23  # 25 primes below 100, minus 2 and 3
    for r in rows:
        assert r.torsion + r.non_torsion == r.count


def test_census_verdicts_match_power_walk_prime_by_prime():
    bound = 20_000
    walked = {p: nt.power_witness(p) is not None for p in nt.sieve_primes(bound) if p > 3}
    assert dict(nt.theorem1_verdicts(bound)) == walked
    for row in nt.census(bound, mode="theorem1"):
        members = [p for p in walked if p % 24 == row.residue]
        assert (row.count, row.torsion) == (len(members), sum(walked[p] for p in members))
        if row.expectation is not None:
            assert row.discrepancies == [p for p in members if walked[p] != (row.expectation == "torsion")]


def test_census_verdicts_at_every_small_bound():
    # the factor table stops near bound/2, so the last primes below each bound probe its edge
    walked = {p: nt.power_witness(p) is not None for p in nt.sieve_primes(300) if p > 3}
    for bound in range(300):
        assert dict(nt.theorem1_verdicts(bound)) == {p: t for p, t in walked.items() if p < bound}


@pytest.fixture(scope="module")
def verdicts_below_1e6():
    return dict(nt.theorem1_verdicts(10**6))


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(6, 10**6 - 1).map(sympy.prevprime))
def test_census_verdicts_match_sympy_order_above_the_walked_range(verdicts_below_1e6, p):
    assert verdicts_below_1e6[p] == (pow(p - 2, int(sympy.n_order(3, p)), p) == 1)


def test_three_is_a_square_exactly_when_p_is_1_or_11_mod_12():
    # the reciprocity step of the order test, against Euler's criterion
    for p in nt.sieve_primes(10**5)[2:]:
        assert (pow(3, (p - 1) // 2, p) == 1) == (p % 12 in (1, 11)), p


def test_order_test_finds_the_order_of_3():
    for p in nt.sieve_primes(20_000)[2:]:
        odd_primes = [q for q in sympy.primefactors(p - 1) if q != 2]
        torsion, order = nt._minus2_in_powers_of_3(p, odd_primes)
        assert order == sympy.n_order(3, p), p
        assert torsion == (pow(p - 2, order, p) == 1), p


def test_census_100k_matches_readme_table(census_100k):
    # README's caveat table, column "torsion below 10^5": class -> (torsion, count)
    table = {5: (1107, 1206), 7: (855, 1205), 17: (1102, 1203), 19: (833, 1205), 13: (0, 1193), 23: (0, 1194)}
    by_class = {row.residue: (row.torsion, row.count) for row in census_100k}
    assert {r: by_class[r] for r in table} == table


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(6, 10**7).map(sympy.prevprime))
def test_classify_theorem1_witness_is_the_least_discrete_log(p):
    cls = nt.classify_prime_theorem1(p)
    order = int(sympy.n_order(3, p))
    assert (cls.verdict == "torsion") == (pow(p - 2, order, p) == 1)
    if cls.verdict == "torsion":
        m = cls.witness
        assert pow(3, m, p) == p - 2
        least = int(sympy.discrete_log(p, p - 2, 3)) % order
        assert m == (least if least >= 2 else least + order)
    else:
        assert cls.witness is None


def test_census_rejects_tiny_bound():
    with pytest.raises(ValueError):
        nt.census(10)


def test_census_general_mode_includes_2_and_3():
    rows = nt.census(30, mode="general", params=nt.theorem2_params([]))
    assert sum(r.count for r in rows) == 10  # all primes below 30
    assert all(r.non_torsion == 0 for r in rows)
    assert all(r.expectation is None for r in rows)


@pytest.mark.parametrize("params", [Params(1, 2, 3, 4, 5, 6), nt.theorem2_params([2, 3, 5])])
def test_census_general_matches_classify_prime_by_prime(params):
    bound = 4000
    rebuilt: dict[int, dict] = {}
    for p in nt.sieve_primes(bound):
        torsion = nt.classify_prime_general(params, p).verdict == "torsion"
        row = rebuilt.setdefault(
            p % 24,
            {"class": p % 24, "count": 0, "torsion": 0, "non_torsion": 0, "paper_expectation": None, "discrepancies": []},
        )
        row["count"] += 1
        row["torsion" if torsion else "non_torsion"] += 1
    rows = nt.census(bound, mode="general", params=params)
    assert [r.to_json() for r in rows] == [rebuilt[c] for c in sorted(rebuilt)]


def test_census_json_and_table():
    rows = nt.census(100, mode="theorem1")
    payload = [r.to_json() for r in rows]
    assert all(
        set(entry) == {"class", "count", "torsion", "non_torsion", "paper_expectation", "discrepancies"}
        for entry in payload
    )
    table = nt.census_table(rows)
    assert table.splitlines()[0].split()[:4] == ["class", "count", "torsion", "non-torsion"]


def test_census_needs_params_in_general_mode():
    with pytest.raises(ValueError):
        nt.census(100, mode="general")
