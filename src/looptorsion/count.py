"""Graded pieces of E and AX in closed form, without a matrix.

Order words of equal length lexicographically with the letters ranked
u1 > u2 > u3 > u4 > v > w, so the leading word of a relation is its
least word by generator index.  Every generated relation is then
content x monic: tau_m has content 1 and leading word u1 v^(m-2) w, and
a_m * rho(4, m+1) has content |a_m| and leading word u4 v^(m-1) w.  A
leading word holds a u only in its first letter, so no proper suffix of
one is a prefix of another (no overlaps) and none lies inside another.

Proof, in either sign convention.  [f, g] is fg - gf or fg + gf, and
for g a letter other than u_i the words of [f, g] that begin with u_i
are those of fg alone, each with its coefficient in f.  By induction
sigma(i, m) = [sigma(i, m-1), v] is a sum of words with one u_i and
m - 1 v's, of which u_i v^(m-1) alone begins with u_i, with coefficient
1; so rho(i, m) = [sigma(i, m-1), w] has u_i v^(m-2) w as its only word
beginning with u_i, with coefficient 1, and every other word begins
with v or w, which rank below u_i: it is the leading word.  In tau_m =
rho(1, m) + a_m rho(2, m) + b_m rho(3, m) the three terms share no word
(each word holds one u, and it differs), so u1 v^(m-2) w keeps
coefficient 1 and leads, and the content is 1.  Every coefficient of
a_m rho(4, m+1) is a_m times one of rho(4, m+1)'s, among them 1, so its
content is |a_m| and its leading coefficient a_m is +-1 times it.  Each
leading word u v^k w holds its only u first and its only w last.  A
proper suffix holds no u and every prefix begins with one: no overlaps.
An occurrence of one leading word inside another starts at the other's
u and ends at its w, so it is all of it, and no two relations share a
leading word (the u tells the family, the length the index): none nests.
Neither step reads the sign of gf, so both hypotheses below are a
theorem for every parameter choice, convention and truncation, and
`generated_shapes` states the shapes of a generated set without building
it; `relation_shapes`, which checks both hypotheses on built elements,
is its oracle.

Under those two hypotheses every word splits uniquely as
g0 L1 g1 ... Lk gk, with the Li occurrences of leading words and the gi
normal words (words containing no leading word).  The normal words are
counted by N(t) = 1 / den(t), den = 1 - g*t + sum_r t^deg(r): the
Goulden-Jackson cluster method for patterns with no overlaps (J. London
Math. Soc. 20, 1979), Anick's combinatorially free sets (J. Algebra 78,
1982).  They are the free part.  Over Z write each relation as
c_r * f_r, with f_r monic.  Two occurrences in one word share no
letter, so the difference of their reductions is a combination of
relations on smaller words, and these are the only critical pairs.  The
ideal's lattice in degree n thus has one basis element per word with
k >= 1 occurrences: gcd(c_1..c_k) * (word + smaller words), integral
because c_r divides every coefficient of c_r * f_r.  After the
unitriangular change of basis word -> word + smaller words, that word
contributes Z/gcd(c_1..c_k) (Bergman's diamond lemma, Adv. Math. 29,
1978, gives the monic case).

The order gcd(c_1..c_k) is divisible by a prime power p^e exactly when
every c_i is.  With R(t) = sum t^deg(r) over the relations whose
content p^e divides, the words whose k >= 1 occurrences all come from
such relations number sum_k N^(k+1) R^k = R / (den * (den - R)): one
series per prime power, and no order is factored.  That count is
dim_Fp(p^(e-1) G / p^e G) for the torsion G of the degree, an
invariant of G, and since each invariant factor divides the next, the
invariant factors divisible by p^e are the largest ones, exactly that
many of them; `invariant_factors` rebuilds them from the counts alone.

AX_n is isomorphic to the direct sum over i of 2^i copies of E_(n-i):
the x1, x2 action identifies AX with Z<x1,x2> (x) E degreewise.

Over F_p the quotient is the integer quotient tensored with F_p, because
tensoring is right exact (the universal-coefficient step).  Z/g (x) F_p
is F_p when p divides g and 0 otherwise, so the dimension in degree n is
the free rank plus the number of cyclic summands whose order p divides,
the count for p^1; `counted_dimensions` reads it off, and the rank of
the degree matrix mod p (`quotient.dimension`) is its oracle.

`counted_pieces` and `counted_torsion` give the graded pieces, which the
`torsion-primes` report lists, and `counted_dimensions` the series the
`hilbert` command prints.  Both commands pass a
`presentation.GeneratedFamily`, whose shapes come from the parameters,
so they build no relation element; an AX family takes the E family's
counts times 1 / (1 - 2t) with nothing regenerated.  An AX
`RelationSet` must equal the thirteen quadratic relations of
`relation_set_AX` and is then counted as the AX family; any other
`RelationSet` is read by `relation_shapes`.  The count reads relation degrees, leading
words and contents only, and imports neither `snf` nor `quotient`;
`quotient.graded_piece`, the Smith normal form of the degree matrix, is
its oracle.  A relation set that breaks a hypothesis raises
HypothesisError; there is no fallback.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain
from math import gcd, prod

from . import numtheory
from .presentation import (
    AX_NUM_GENS,
    E_NUM_GENS,
    GeneratedFamily,
    Params,
    RelationSet,
    relation_set_AX,
)
from .series import invert_series


#: The most invariant factors `counted_torsion` expands: E11 lists 14,299,117
#: of them in about 1.1 GB, E12 would list 92,034,197.
MAX_LISTED_FACTORS = 2 * 10**7


class HypothesisError(RuntimeError):
    """The relation set is outside what the closed-form count covers."""


class GradedPiece(namedtuple("GradedPiece", "degree free_rank divisors")):
    """One degree of the quotient as an abelian group; divisors: the invariant factors > 1, each dividing the next."""

    __slots__ = ()


def relation_shapes(rels: RelationSet) -> list[tuple[int, int]]:
    """(degree, content) of each relation, after checking both hypotheses.

    The leading words are checked against one prefix index, from every
    nonempty prefix to the least relation whose leading word starts with
    it: word i overlaps when a proper suffix is in the index, and nests
    when it lies inside another word.  The error names the least
    offending i and the least j it clashes with.
    """
    shapes = []
    leading = []
    for rel in rels.relations:
        if rel.degree < 1:
            raise HypothesisError(f"relation {rel.tag} has degree {rel.degree}; the count needs degree >= 1")
        word = min(rel.element.terms)
        content = gcd(*rel.element.terms.values())
        if abs(rel.element.terms[word]) != content:
            raise HypothesisError(f"relation {rel.tag} is not content times a monic element")
        shapes.append((rel.degree, content))
        leading.append(bytes(word))  # generator indices are below 8
    first = {}
    for j, b in enumerate(leading):
        for k in range(1, len(b) + 1):
            first.setdefault(b[:k], j)
    for i, a in enumerate(leading):
        overlaps = (first[a[k:]] for k in range(1, len(a)) if a[k:] in first)
        nests = (j for j, b in enumerate(leading) if j != i and a in b)
        j = min(chain(overlaps, nests), default=None)
        if j is not None:
            tag_a, tag_b = rels.relations[i].tag, rels.relations[j].tag
            raise HypothesisError(f"leading words of relations {tag_a} and {tag_b} overlap or nest")
    return shapes


def generated_shapes(params: Params, max_degree: int) -> list[tuple[int, int]]:
    """(degree, content) of each relation of the generated E set through max_degree, from the parameters alone.

    (m, 1) for tau_m, 2 <= m <= max_degree, then (m + 1, |a_m|) for
    a_m * rho(4, m+1), 2 <= m <= max_degree - 1 and a_m != 0: the
    relations of `relation_set_E(params, max_degree, convention)` in its
    order, in either convention.  Both hypotheses hold for them (module
    docstring), so nothing is checked; `relation_shapes` of the built set
    is the oracle.
    """
    rho_shapes = [(m + 1, abs(am)) for m, am, _ in numtheory.coeff_sequence(params, max_degree - 1) if am]
    return [(m, 1) for m in range(2, max_degree + 1)] + rho_shapes


def _times(f: list[int], h: list[int]) -> list[int]:
    return [sum(f[i] * h[k - i] for i in range(k + 1)) for k in range(len(f))]


def piece_counts(num_gens: int, shapes, max_degree: int, prime_powers) -> tuple[list[int], dict]:
    """Free ranks and cyclic-summand counts per prime power in degrees 0..max_degree.

    `shapes` lists each relation's (degree, content).  Returns
    (free, counts): counts[p, e][n] is the number of cyclic summands in
    degree n whose order p^e divides, for each (p, e) in `prime_powers`.
    """
    shapes = [(d, c) for d, c in shapes if d <= max_degree]
    den = [1, -num_gens] + [0] * max_degree
    for d, _ in shapes:
        den[d] += 1
    den = den[: max_degree + 1]
    counts = {}
    for p, e in prime_powers:
        r = [0] * (max_degree + 1)  # R(t)
        for d, c in shapes:
            if c % p**e == 0:
                r[d] += 1
        counts[p, e] = _times(r, invert_series(_times(den, [a - b for a, b in zip(den, r)])))
    return invert_series(den), counts


def invariant_factors(counts: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """The invariant factors > 1 of a sum of cyclic groups, in ascending order.

    counts[p, e] is the number of summands whose order p^e divides, given
    for every e from 1 up to the largest exponent of p; exactly that many
    invariant factors are divisible by p^e, the largest ones.  The factors
    thus come in runs: those ranked between two consecutive distinct
    counts, from the top, are the product of p over every (p, e) whose
    count reaches the larger one.
    """
    bounds = sorted(set(counts.values()) | {0}, reverse=True)
    factors = []
    for upper, lower in zip(bounds, bounds[1:]):  # the smallest factors first
        factors += [prod(p for (p, _), number in counts.items() if number >= upper)] * (upper - lower)
    return tuple(factors)


def _graded_shapes(rels: RelationSet | GeneratedFamily, max_degree: int) -> tuple[int, list[tuple[int, int]], bool]:
    """(generators, relation shapes, is AX) for the count of the quotient in degrees 0..max_degree.

    An E `GeneratedFamily` gives the shapes of its set, truncated at its
    own `maxdeg`, from the parameters.  Another `RelationSet` is read by
    `relation_shapes`.  An AX set must be the generated one; it and an
    AX family count through the E shapes up to max_degree, from the
    parameters.
    """
    if isinstance(rels, GeneratedFamily):
        if rels.algebra == "E":
            return E_NUM_GENS, generated_shapes(rels.params, rels.maxdeg), False
    elif rels.num_gens != AX_NUM_GENS:
        return rels.num_gens, relation_shapes(rels), False
    elif rels != relation_set_AX(rels.params, rels.convention):
        raise HypothesisError("the AX relation set differs from the generated one")
    return E_NUM_GENS, generated_shapes(rels.params, max_degree), True


def _graded_counts(graded, max_degree: int, prime_powers) -> tuple[list[int], dict]:
    """`piece_counts` of the quotient whose `_graded_shapes` is `graded`."""
    num_gens, shapes, ax = graded
    free, counts = piece_counts(num_gens, shapes, max_degree, prime_powers)
    if ax:  # AX_n = E_n + 2 AX_(n-1): the factor 1 / (1 - 2t)
        free, counts = _over_one_minus_2t(free), {key: _over_one_minus_2t(s) for key, s in counts.items()}
    return free, counts


def _over_one_minus_2t(series: list[int]) -> list[int]:
    return list(accumulate(series, lambda acc, x: 2 * acc + x))


def counted_torsion(
    rels: RelationSet | GeneratedFamily, max_degree: int
) -> tuple[list[GradedPiece], set[int], dict[int, dict[int, int]]]:
    """`counted_pieces`, the primes that divide an invariant factor of some degree, and the factored contents.

    The count runs for every prime power p^e that divides a relation
    content, each e from 1 up to the exponent of p, as
    `invariant_factors` needs.  p divides an invariant factor in degree
    n exactly when its p^1 count is nonzero there, and a nonzero p^e
    count implies a nonzero p^1 count, so the primes are read off the
    series, not factored.  The third item maps each relation content to
    its factorization.

    In each degree the largest count is the number of invariant
    factors, so the size of the listing is summed before any factor is
    expanded; above `MAX_LISTED_FACTORS` it raises MemoryError.
    """
    graded = _graded_shapes(rels, max_degree)
    factored = {c: numtheory.factorize(c) for c in {c for d, c in graded[1] if d <= max_degree}}
    prime_powers = {(p, e) for f in factored.values() for p, k in f.items() for e in range(1, k + 1)}
    free, counts = _graded_counts(graded, max_degree, prime_powers)
    listed = sum(max((series[n] for series in counts.values()), default=0) for n in range(max_degree + 1))
    if listed > MAX_LISTED_FACTORS:
        raise MemoryError(
            f"degrees 0..{max_degree} hold {listed} invariant factors; a listing holds at most {MAX_LISTED_FACTORS}"
        )
    pieces = [
        GradedPiece(n, free[n], invariant_factors({key: series[n] for key, series in counts.items()}))
        for n in range(max_degree + 1)
    ]
    return pieces, {p for (p, _), series in counts.items() if any(series)}, factored


def counted_pieces(rels: RelationSet | GeneratedFamily, max_degree: int) -> list[GradedPiece]:
    """Degrees 0..max_degree from the closed-form count, with no matrix.

    Raises HypothesisError for a relation set the count does not cover
    (never for a `GeneratedFamily`), and MemoryError like
    `counted_torsion`; `quotient.graded_piece` is the oracle it must
    agree with.
    """
    return counted_torsion(rels, max_degree)[0]


def counted_dimensions(rels: RelationSet | GeneratedFamily, field, max_degree: int) -> list[int]:
    """Dimensions over Q ("Q") or F_p in degrees 0..max_degree, from the count.

    Tensoring is right exact, so over F_p the quotient is the integer
    quotient tensored with F_p, and Z/g tensored with F_p is F_p when p
    divides g and 0 otherwise: the free rank plus the count for p^1.
    Factors nothing and expands no factor, so no listing limit applies.
    Raises HypothesisError like `counted_pieces`; `quotient.dimension`
    is the oracle it must agree with.
    """
    if max_degree < 0:
        raise ValueError("truncation must be nonnegative")
    p = None if field == "Q" else int(field)
    if p is not None and not numtheory.is_prime(p):
        raise ValueError(f"field characteristic {p} is not prime")
    free, counts = _graded_counts(_graded_shapes(rels, max_degree), max_degree, [(p, 1)] if p else [])
    return [f + c for f, c in zip(free, counts[p, 1])] if p else free
