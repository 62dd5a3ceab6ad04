"""Primality, quadratic residues, and the torsion-prime arithmetic.

For the reference parameter family a prime p is a torsion prime iff
2 + 3^m = 0 mod p for some m >= 2, that is iff -2 lies in the subgroup
<3> of F_p*.  Three routes decide it, and they are kept strictly apart:

* the residue rule (decides): p = 13 or 23 mod 24 is provably
  non-torsion, because 3 is then a quadratic residue while -2 is not,
  so -2 cannot be a power of 3;
* the order test plus discrete log (decides, and finds the witness):
  -2 lies in <3> iff (-2)^ord_p(3) = 1 mod p.  ord_p(3) is p - 1 with
  each prime factor removed while 3 to the reduced exponent stays 1;
  the first halving is decided by (3/p), which quadratic reciprocity
  reads from p mod 12, and when ord_p(3) = p - 1 Fermat answers yes
  with no further power (`_minus2_in_powers_of_3`).  When -2 is in
  <3>, the least witness is the discrete log of -2 to base 3, found by
  Pohlig-Hellman over the factored ord_p(3) with baby-step giant-step
  in each prime-order step.  `census` and `classify_prime_theorem1`
  share this one test; they differ only in how p - 1 is factored;
* the power walk and the recurrence walks (the oracle): walk the powers
  of 3 mod p until the cycle closes (`power_witness`), or the
  coefficient recurrence mod p for arbitrary parameters until its state
  repeats.  The recurrence is affine, and an affine map of F_p^2 is
  purely periodic after two steps (the lemma proved in
  `divides_some_am`), so a walk saves the state after them and stops
  when that state comes back.  `census` picks its route from the
  parameters alone: the order test for the reference family, and for
  any other its own counter-free walk (`_orbit_meets_zero`), whose
  oracle is the counted walk of `divides_some_am`, which finds the
  least witness; the two share no code.  `classify_prime_theorem1`
  walks p = 2 and 3, and `classify_prime_general` checks its witness m
  by computing a_m mod p in O(log m) steps, a matrix power (`_am_mod`).
  The verification sweeps compare the other routes against these walks.

The classical heuristic "3 a non-residue implies 3 is a primitive root",
which would make the classes 5, 7, 17, 19 mod 24 always solvable, is
*not* sound and is never used as a decision rule here; the census
records it as an expectation and reports every prime that contradicts
it (the smallest offenders are p = 103 in class 7 and p = 41 in
class 17).  The order test's use of (3/p) is not that heuristic: a
non-residue fixes only the 2-part of ord_p(3), and every odd prime
factor of p - 1 is still tested by a power.

The module also owns the six-parameter record `Params`, the reference
instance `THEOREM1_PARAMS` and `coeff_sequence`, the exact form of the
recurrence the walks follow mod p.  It imports nothing from the
package, so the arithmetic commands load it without the algebra;
`presentation` re-exports the three names as the same objects.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator
from math import gcd, isqrt, prod


class Params(namedtuple("Params", "a b c d a2 b2")):
    """The six integers parameterizing the construction."""

    __slots__ = ()

    def __str__(self):
        return "a={} b={} c={} d={} a2={} b2={}".format(*self)


#: The instance whose torsion primes are governed by 2 + 3^m: with these
#: values the recurrence below has the closed form a_m = 2 + 3^m,
#: b_m = 2 + 3^(m-1).
THEOREM1_PARAMS = Params(a=0, b=4, c=-3, d=1, a2=11, b2=5)


def coeff_sequence(params: Params, max_m: int) -> list[tuple[int, int, int]]:
    """Rows (m, a_m, b_m) for 2 <= m <= max_m, evaluated exactly; none when max_m < 2.

    The sequence starts at m = 2, seeded by (a2, b2); for m >= 3,
    a_m = a + b*a_{m-1} + c*b_{m-1} and b_m = d*a_{m-1}.
    """
    if max_m < 2:
        return []
    am, bm = params.a2, params.b2
    rows = [(2, am, bm)]
    for m in range(3, max_m + 1):
        am, bm = params.a + params.b * am + params.c * bm, params.d * am
        rows.append((m, am, bm))
    return rows


#: The first 13 prime bases decide primality below this bound (the least
#: strong pseudoprime to all of them, about 3.3e24).
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The largest prime order of a subgroup in which `classify_prime_theorem1`
#: takes a discrete log: baby-step giant-step keeps at most 2^20 baby steps.
MAX_DISCRETE_LOG_PRIME = 2**40

#: The residue-rule expectations claimed for the reference family,
#: keyed by p mod 24.  Only the "non-torsion" half is a sound decision
#: rule; the "torsion" half is an expectation under empirical test.
RULE_EXPECTATION = {
    5: "torsion",
    7: "torsion",
    17: "torsion",
    19: "torsion",
    13: "non-torsion",
    23: "non-torsion",
}
#: The classes the sound half of the rule decides, read once from RULE_EXPECTATION.
SOUND_RULE_CLASSES = frozenset(r for r, e in RULE_EXPECTATION.items() if e == "non-torsion")


def is_prime(n: int) -> bool:
    """Primality: proven below 3.3e24, Baillie-PSW at and above it.

    Below `DETERMINISTIC_PRIMALITY_BOUND` this is strong Miller-Rabin to
    the first 13 prime bases, which is a proof.  At and above it the
    verdict is Baillie-PSW (Baillie & Wagstaff, Math. Comp. 35, 1980): not
    a perfect square, a strong probable prime to base 2, and a strong
    Lucas probable prime with Selfridge's parameters.  No composite is
    known to pass it, but none is proven impossible.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n >= DETERMINISTIC_PRIMALITY_BOUND:
        return isqrt(n) ** 2 != n and _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)
    return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Strong Fermat test of odd n to base a, where n - 1 = d * 2^s with d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd non-square n with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D) / 4.  With n + 1 = d * 2^s, d odd, n passes when
    U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s.
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n by binary doubling (P = 1) from k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            # n is odd, so adding it makes an odd numerator even
            U = ((U + n if U & 1 else U) >> 1) % n
            V = ((V + n if V & 1 else V) >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def sieve_primes(bound: int) -> list[int]:
    """All primes strictly below bound."""
    if bound <= 2:
        return []
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return list(itertools.compress(range(bound), flags))


def _smallest_prime_factors(bound: int, primes: list[int]) -> array:
    """spf[n] = the least prime dividing n, for 2 <= n < bound, given the primes up to sqrt(bound) in order."""
    spf = array("I", range(bound))
    # descending, so that each smaller prime overwrites the larger ones
    for p in reversed(primes[: bisect_right(primes, isqrt(bound - 1))]):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, bound, p))
    return spf


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division by 2 and the odd d below 10^4 with d*d <= n, then
    Pollard rho on what is left.  A composite d never divides: its prime
    factors are smaller and were removed before it is reached.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in itertools.chain((2,), range(3, 10_000, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        for p in _split(n):
            out[p] = out.get(p, 0) + 1
    return out


def _split(n: int) -> list[int]:
    if is_prime(n):
        return [n]
    d = _pollard_rho(n)
    return _split(d) + _split(n // d)


def _pollard_rho(n: int) -> int:
    """A proper divisor of the composite n.

    An attempt that closes its cycle modulo every prime factor at once
    (d == n) is retried from the fresh start c + 1 with constant c + 1,
    so the search has no give-up path.
    """
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        x = y = c + 1
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def _baby_step_giant_step(g: int, h: int, n: int, p: int) -> int:
    """The x in [0, n) with g^x = h mod p, where g has order n."""
    step = isqrt(n - 1) + 1
    baby = {}
    x = 1
    for j in range(step):
        baby.setdefault(x, j)
        x = x * g % p
    giant = pow(g, -step, p)
    for i in range(step):
        j = baby.get(h)
        if j is not None:
            return i * step + j
        h = h * giant % p
    raise ValueError("h is not a power of g")


def _discrete_log(g: int, h: int, p: int, n: int, primes: Iterable[int]) -> int:
    """The x in [0, n) with g^x = h mod p, for h in <g>, where n = ord_p(g).

    primes must hold every prime dividing n.  Pohlig-Hellman over the
    factored order: x is found digit by digit in base q modulo each q^k
    exactly dividing n, each digit by baby-step giant-step in the
    subgroup of order q, and the residues are joined by the CRT.
    """
    x, modulus = 0, 1
    for q in primes:
        k, qk = 0, 1
        while n % (qk * q) == 0:
            k += 1
            qk *= q
        if not k:
            continue
        g_q = pow(g, n // qk, p)
        h_q = pow(h, n // qk, p)
        gamma = pow(g_q, qk // q, p)
        x_q = 0
        for i in range(k):
            h_i = pow(pow(g_q, -x_q, p) * h_q % p, q ** (k - 1 - i), p)
            x_q += _baby_step_giant_step(gamma, h_i, q, p) * q**i
        x += modulus * ((x_q - x) * pow(modulus, -1, qk) % qk)
        modulus *= qk
    return x


def power_witness(p: int) -> int | None:
    """Least m >= 2 with 2 + 3^m = 0 mod p, or None if no power works.

    This is the brute-force oracle: it walks the powers 3^m mod p from
    m = 2 and stops at the first that equals -2, so a None answer is an
    exhaustive check of the whole cycle.  The target is tested before
    the cycle closes at 3^m = 3: only p = 5 has -2 = 3, and there the
    answer is m = 1 + ord_5(3) = 5.
    """
    _require_prime(p)
    if p in (2, 3):
        raise ValueError("p must be a prime other than 2 and 3")
    target = p - 2
    x = 3
    m = 1
    while True:
        x = x * 3 % p
        m += 1
        if x == target:
            return m
        if x == 3:
            return None


class PrimeClassification(namedtuple("PrimeClassification", "prime verdict mechanism witness")):
    """A prime's verdict ("torsion" or "non-torsion"), its mechanism ("residue-rule", "power-witness",
    "divisor-witness" or "exhausted-cycle") and its witness m with p | a_m, or None."""

    __slots__ = ()

    def to_json(self) -> dict:
        p = self.prime
        return {
            "prime": p,
            "verdict": self.verdict,
            "mechanism": self.mechanism,
            "witness": self.witness,
            "residues": {"mod24": p % 24, "mod12": p % 12, "mod8": p % 8},
            # the classifier that built the record proved p prime, so no Legendre check is repeated
            "legendre3": _jacobi(3, p) if p > 3 else None,
            "legendre_minus2": _jacobi(-2, p) if p > 2 else None,
        }


def _minus2_in_powers_of_3(p: int, odd_primes: Iterable[int]) -> tuple[bool, int]:
    """The order test for a prime p > 3: (-2 in <3> mod p, ord_p(3)).

    odd_primes are the distinct odd primes dividing p - 1.  ord_p(3) is
    p - 1 with each prime q removed for as long as 3^(order/q) = 1.

    The first test for q = 2, 3^((p-1)/2) = 1, is Euler's criterion for
    (3/p) = 1, and quadratic reciprocity answers it from p mod 12:
    (3/p) = (p/3) * (-1)^((p-1)/2), where (p/3) = 1 iff p = 1 mod 3 and
    (-1)^((p-1)/2) = 1 iff p = 1 mod 4, so (3/p) = 1 iff p = 1 or 11
    mod 12.  When 3 is a non-residue the 2-part of ord_p(3) is the whole
    2-part of p - 1; when it is a residue the further halvings are
    tested by powers.  This is a proof, and not the unsound shortcut
    "3 a non-residue implies 3 is a primitive root": (3/p) = -1 decides
    only the 2-part, and every odd q is still tested by a power, which
    is where the shortcut fails (p = 103: 3 is a non-residue, but
    3^34 = 1, so ord_103(3) = 34, not 102).

    -2 lies in <3> iff (-2)^ord_p(3) = 1.  When ord_p(3) = p - 1 that
    holds by Fermat, and no power is taken.
    """
    order = p - 1
    if p % 12 in (1, 11):
        order >>= 1
        while not order & 1 and pow(3, order >> 1, p) == 1:
            order >>= 1
    for q in odd_primes:
        while order % q == 0 and pow(3, order // q, p) == 1:
            order //= q
    return order == p - 1 or pow(p - 2, order, p) == 1, order


def classify_prime_theorem1(p: int) -> PrimeClassification:
    """Torsion verdict for the reference family (a_m = 2 + 3^m).

    Primes in `SOUND_RULE_CLASSES` (13 and 23 mod 24) are settled by
    the sound residue rule; every other prime p > 3 by the order test,
    with the least witness taken from the discrete log of -2 to base 3;
    2 and 3 by the walk, `classify_prime_general(THEOREM1_PARAMS, p)`.
    The claimed positive rule for classes 5, 7, 17, 19 never decides.
    A torsion prime whose ord_p(3) has a prime factor above
    `MAX_DISCRETE_LOG_PRIME` raises MemoryError before the discrete log
    allocates its baby steps.
    """
    _require_prime(p)
    if p in (2, 3):
        return classify_prime_general(THEOREM1_PARAMS, p)
    if p % 24 in SOUND_RULE_CLASSES:
        return PrimeClassification(p, "non-torsion", "residue-rule", None)
    group = factorize(p - 1)
    torsion, order = _minus2_in_powers_of_3(p, [q for q in group if q != 2])
    if not torsion:
        # (-2)^ord_p(3) != 1 says what an exhausted cycle of powers of 3 says
        return PrimeClassification(p, "non-torsion", "exhausted-cycle", None)
    largest = max(q for q in group if order % q == 0)
    if largest > MAX_DISCRETE_LOG_PRIME:
        raise MemoryError(
            f"the witness needs a discrete log in a subgroup of prime order {largest}, above {MAX_DISCRETE_LOG_PRIME}"
        )
    m = _discrete_log(3, p - 2, p, order, group)
    if m < 2:
        m += order
    assert (2 + pow(3, m, p)) % p == 0
    return PrimeClassification(p, "torsion", "power-witness", m)


def divides_some_am(params: Params, q: int) -> int | None:
    """Least m >= 2 with a_m = 0 mod q, or None when no a_m is.

    From m = 3 on b_m = d*a_(m-1), so a_(m+1) = a + b*a_m + c*d*a_(m-1):
    the walk steps the state (a_m, a_(m-1)) by the affine map
    G(x, y) = (A + B*x + CD*y, x) of F_q^2, with A, B, CD = a, b, c*d
    mod q: one multiply-mod per step.

    Lemma: after two steps every orbit of G is purely periodic.  Proof:
    homogenised, G is the linear map L(x, y, z) = (B*x + CD*y + A*z, x, z)
    of F_q^3, whose characteristic polynomial (t - 1)(t^2 - B*t - CD)
    has 1 as a root, so 0 has algebraic multiplicity at most 2.  F_q^3
    splits into L-invariant parts N + U with L nilpotent on N, dim N <= 2,
    and L invertible on U.  Then L^2 kills N, so L^2 maps every vector
    into U, where L permutes a finite set and every orbit is a cycle.
    The argument uses nothing of G but that it is affine, so it holds
    whether or not q divides c*d (when G is not invertible), and also
    for the state map (a_m, b_m) -> (a_(m+1), b_(m+1)).

    So the walk checks m = 2, 3 and the two tail steps m = 4, 5 for a
    zero, saves the state at m = 5, and then steps until a_m = 0 or the
    saved state comes back.  Every m is visited in order, so the first
    zero gives the least m; when the saved state comes back first, no
    a_m is 0 mod q.
    """
    _require_prime(q)
    A, B, CD = params.a % q, params.b % q, params.c * params.d % q
    y = params.a2 % q
    if y == 0:
        return 2
    x = (params.a + params.b * params.a2 + params.c * params.b2) % q
    if x == 0:
        return 3
    for m in (4, 5):
        x, y = (A + B * x + CD * y) % q, x
        if x == 0:
            return m
    start_x, start_y = x, y
    m = 5
    while True:
        x, y = (A + B * x + CD * y) % q, x
        m += 1
        if x == 0:
            return m
        if x == start_x and y == start_y:
            return None


def _orbit_meets_zero(params: Params, q: int) -> bool:
    """Whether some a_m with m >= 2 is 0 mod q, for a prime q already sieved.

    The census's walk: the orbit of `divides_some_am`, with no step
    counter, since the census needs only yes or no.  It checks m = 2, 3
    and the two tail steps m = 4, 5, saves the state, and then steps
    until a_m = 0 or the saved state comes back, which it does after one
    period by the lemma proved in `divides_some_am`.  That counted walk
    shares no code with this one and is its oracle.
    """
    A, B, CD = params.a % q, params.b % q, params.c * params.d % q
    y = params.a2 % q
    if y == 0:
        return True
    x = (params.a + params.b * params.a2 + params.c * params.b2) % q
    if x == 0:
        return True
    for _ in range(2):
        x, y = (A + B * x + CD * y) % q, x
        if x == 0:
            return True
    start_x, start_y = x, y
    while True:
        x, y = (A + B * x + CD * y) % q, x
        if x == 0:
            return True
        if x == start_x and y == start_y:
            return False


def _am_mod(params: Params, m: int, q: int) -> int:
    """a_m mod q for m >= 2, in O(log m) multiplications of 3 x 3 matrices.

    The state map (a_k, b_k, 1) -> (a + b*a_k + c*b_k, d*a_k, 1) is the
    matrix [[b, c, a], [d, 0, 0], [0, 0, 1]] mod q; its (m - 2)-th power,
    taken by repeated squaring, sends (a_2, b_2, 1) to (a_m, b_m, 1).
    """

    def times(X, Y):
        columns = list(zip(*Y))
        return [[(x0 * y0 + x1 * y1 + x2 * y2) % q for y0, y1, y2 in columns] for x0, x1, x2 in X]

    step = [[params.b % q, params.c % q, params.a % q], [params.d % q, 0, 0], [0, 0, 1]]
    power = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    e = m - 2
    while e:
        if e & 1:
            power = times(power, step)
        step = times(step, step)
        e >>= 1
    return (power[0][0] * params.a2 + power[0][1] * params.b2 + power[0][2]) % q


def classify_prime_general(params: Params, q: int) -> PrimeClassification:
    """Torsion verdict for arbitrary parameters, via the recurrence walk.

    The witness m is checked by computing a_m mod q in O(log m) steps
    (`_am_mod`), so the orbit is walked once.
    """
    m = divides_some_am(params, q)
    if m is None:
        return PrimeClassification(q, "non-torsion", "exhausted-cycle", None)
    assert _am_mod(params, m, q) == 0
    return PrimeClassification(q, "torsion", "divisor-witness", m)


class CensusRow(namedtuple("CensusRow", "residue count torsion non_torsion expectation discrepancies")):
    """The primes of one residue class mod 24: counts, expectation and discrepancies."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "class": self.residue,
            "count": self.count,
            "torsion": self.torsion,
            "non_torsion": self.non_torsion,
            "paper_expectation": self.expectation,
            "discrepancies": self.discrepancies,
        }


def theorem1_verdicts(bound: int) -> Iterator[tuple[int, bool]]:
    """(p, whether p is a torsion prime) for every prime 5 <= p < bound, reference family.

    The same verdicts as `classify_prime_theorem1`, without the witness:
    the residue rule for `SOUND_RULE_CLASSES` and the order test of
    `_minus2_in_powers_of_3` for the rest.  That test takes (3/p) from
    the reciprocity lemma (3/p) = (p/3) * (-1)^((p-1)/2), so (3/p) = 1
    iff p = 1 or 11 mod 12, instead of from a power.  It is a proof, not
    the unsound "non-residue implies primitive root" shortcut: (3/p)
    decides only the 2-part of ord_p(3), and each odd prime factor of
    p - 1 is still tested by a power.  The odd part of p - 1 is at most
    (p - 1)/2, so it is factored from a smallest-prime-factor table that
    stops at bound/2.
    """
    primes = sieve_primes(bound)
    spf = _smallest_prime_factors(bound // 2 + 1, primes)
    for p in itertools.islice(primes, 2, None):
        if p % 24 in SOUND_RULE_CLASSES:
            yield p, False
            continue
        n = p - 1
        n >>= (n & -n).bit_length() - 1  # the odd part of p - 1
        odd_primes = []
        while n > 1:
            q = spf[n]
            odd_primes.append(q)
            n //= q
            while n % q == 0:
                n //= q
        yield p, _minus2_in_powers_of_3(p, odd_primes)[0]


def census(bound: int, params: Params | None = None, *, mode: str | None = None) -> list[CensusRow]:
    """Classify every prime below bound and aggregate by residue mod 24.

    params picks the route.  The reference family (None or
    THEOREM1_PARAMS) takes the verdicts of `theorem1_verdicts`, skips 2
    and 3, and carries `RULE_EXPECTATION`; any other family decides
    every prime by the counter-free walk `_orbit_meets_zero` (two tail
    steps, then one period, by the lemma proved in `divides_some_am`),
    with no primality check (the primes come from the sieve), no
    witness and no expectation.  mode, if given, must name that route
    ("theorem1" or "general").  The verdicts are tallied per residue
    class in one pass, each row is built once after it, and a row lists
    every prime whose verdict contradicts its expectation.
    """
    if bound < 25:
        raise ValueError("bound must be at least 25")
    reference = params in (None, THEOREM1_PARAMS)
    route = "theorem1" if reference else "general"
    if mode not in (None, route):
        raise ValueError(f"census mode {mode!r} does not fit {params or THEOREM1_PARAMS}, whose route is {route!r}")
    if reference:
        verdicts = theorem1_verdicts(bound)
        expectations = RULE_EXPECTATION
    else:
        verdicts = ((p, _orbit_meets_zero(params, p)) for p in sieve_primes(bound))
        expectations = {}
    expected = {r: e == "torsion" for r, e in expectations.items()}
    # residue -> [non-torsion count, torsion count, discrepancies]; a verdict indexes its count,
    # and a class with no expectation takes every verdict as expected
    tally: dict[int, list] = {}
    for p, torsion in verdicts:
        residue = p % 24
        counts = tally.get(residue)
        if counts is None:
            counts = tally[residue] = [0, 0, []]
        counts[torsion] += 1
        if expected.get(residue, torsion) != torsion:
            counts[2].append(p)
    return [
        CensusRow(r, non_torsion + torsion, torsion, non_torsion, expectations.get(r), discrepancies)
        for r, (non_torsion, torsion, discrepancies) in sorted(tally.items())
    ]


def census_table(rows: list[CensusRow]) -> str:
    """Fixed-width text rendering of a census."""
    header = f"{'class':>5} {'count':>7} {'torsion':>8} {'non-torsion':>12}  {'expected':<12} {'discrepancies'}"
    lines = [header]
    for row in rows:
        if row.discrepancies:
            preview = ", ".join(str(p) for p in row.discrepancies[:4])
            if len(row.discrepancies) > 4:
                preview += ", ..."
            disc = f"{len(row.discrepancies)} ({preview})"
        else:
            disc = "0"
        lines.append(
            f"{row.residue:>5} {row.count:>7} {row.torsion:>8} {row.non_torsion:>12}  "
            f"{row.expectation or '-':<12} {disc}"
        )
    return "\n".join(lines) + "\n"


def theorem2_params(exceptions) -> Params:
    """Parameters whose torsion primes are exactly the primes outside the set.

    With a = product of the given primes and (b, c, d, a2, b2) =
    (1, 0, 0, 1, 0) the recurrence degenerates to a_m = 1 + a(m-2).
    """
    members = list(exceptions)
    for p in members:
        _require_prime(p)
    if len(set(members)) != len(members):
        raise ValueError("the excluded primes must be distinct")
    return Params(a=prod(members), b=1, c=0, d=0, a2=1, b2=0)
