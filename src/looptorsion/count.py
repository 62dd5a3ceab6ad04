"""Graded pieces of E and AX in closed form, without a matrix.

Order words of equal length lexicographically with the letters ranked
u1 > u2 > u3 > u4 > v > w, so the leading word of a relation is its
least word by generator index.  Every generated relation is then
content x monic: tau_m has content 1 and leading word u1 v^(m-2) w, and
a_m * rho(4, m+1) has content |a_m| and leading word u4 v^(m-1) w.  A
leading word holds a u only in its first letter, so no proper suffix of
one is a prefix of another (no overlaps) and none lies inside another.

Under those two hypotheses every word splits uniquely as
g0 L1 g1 ... Lk gk, with the Li occurrences of leading words and the gi
normal words (words containing no leading word).  The normal words are
counted by N(t) = 1 / (1 - g*t + sum_r t^deg(r)): the Goulden-Jackson
cluster method for patterns with no overlaps (J. London Math. Soc. 20,
1979), Anick's combinatorially free sets (J. Algebra 78, 1982).  They
are the free part.  Over Z write each relation as c_r * f_r, with f_r
monic.  Two occurrences in one word share no letter, so the difference
of their reductions is a combination of relations on smaller words, and
these are the only critical pairs.  The ideal's lattice in degree n thus
has one basis element per word with k >= 1 occurrences:
gcd(c_1..c_k) * (word + smaller words), integral because c_r divides
every coefficient of c_r * f_r.  After the unitriangular change of basis
word -> word + smaller words, that word contributes Z/gcd(c_1..c_k)
(Bergman's diamond lemma, Adv. Math. 29, 1978, gives the monic case).
A tau occurrence makes the gcd 1, so only sequences of relations with
content > 1 count: the sequence r_1..r_k contributes
[t^(n - sum deg r_i)] N(t)^(k+1) copies.

AX_n is isomorphic to the direct sum over i of 2^i copies of E_(n-i):
the x1, x2 action identifies AX with Z<x1,x2> (x) E degreewise.

Over F_p the quotient is the integer quotient tensored with F_p, because
tensoring is right exact (the universal-coefficient step).  Z/g (x) F_p
is F_p when p divides g and 0 otherwise, so the dimension in degree n is
the free rank plus the number of cyclic summands whose order p divides;
`quotient.counted_dimensions` reads it off the counts, and the rank of
the degree matrix mod p (`quotient.dimension`) is its oracle.

The count reads relation degrees, leading words and contents only, and
shares no code with `snf`; `quotient.graded_piece`, the Smith normal
form of the degree matrix, is its oracle.  A relation set that breaks a
hypothesis raises HypothesisError; there is no fallback.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd

from . import numtheory
from .presentation import AX_NUM_GENS, RelationSet, relation_set_AX, relation_set_E


class HypothesisError(RuntimeError):
    """The relation set is outside what the closed-form count covers."""


def relation_shapes(rels: RelationSet) -> list[tuple[int, int]]:
    """(degree, content) of each relation, after checking both hypotheses."""
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
        leading.append((rel.tag, word))
    for i, (tag_a, a) in enumerate(leading):
        for j, (tag_b, b) in enumerate(leading):
            overlap = any(a[-k:] == b[:k] for k in range(1, min(len(a), len(b) + 1)))
            inside = i != j and any(b[s : s + len(a)] == a for s in range(len(b) - len(a) + 1))
            if overlap or inside:
                raise HypothesisError(f"leading words of relations {tag_a} and {tag_b} overlap or nest")
    return shapes


def _times(f: list[int], h: list[int]) -> list[int]:
    return [sum(f[i] * h[k - i] for i in range(k + 1)) for k in range(len(f))]


def piece_counts(num_gens: int, shapes, max_degree: int) -> list[tuple[int, dict[int, int]]]:
    """(free rank, {torsion order: multiplicity}) in each degree 0..max_degree.

    `shapes` lists each relation's (degree, content).  The multiplicities
    come from a table over (total degree, number of occurrences, gcd), not
    from a list of the sequences, which grows exponentially with degree.
    """
    den = [1, -num_gens] + [0] * max_degree
    for d, _ in shapes:
        if d <= max_degree:
            den[d] += 1
    normal = [1] + [0] * max_degree  # N(t) = 1 / den(t)
    for k in range(1, max_degree + 1):
        normal[k] = -sum(den[j] * normal[k - j] for j in range(1, k + 1))
    torsion = [(d, c) for d, c in shapes if c > 1]
    # sequences[s][k, g]: sequences of k torsion relations whose degrees sum to s and contents have gcd g
    sequences = [defaultdict(int) for _ in range(max_degree + 1)]
    sequences[0][0, 0] = 1
    for s in range(max_degree + 1):
        for (k, g), number in sequences[s].items():
            for d, c in torsion:
                h = gcd(g, c)
                if s + d <= max_degree and h > 1:
                    sequences[s + d][k + 1, h] += number
    powers = [[1] + [0] * max_degree]  # powers[j] = N(t)^j
    while len(powers) <= max(k for table in sequences for k, _ in table) + 1:
        powers.append(_times(powers[-1], normal))
    pieces = []
    for n in range(max_degree + 1):
        orders: dict[int, int] = defaultdict(int)
        for s in range(1, n + 1):
            for (k, g), number in sequences[s].items():
                orders[g] += number * powers[k + 1][n - s]
        pieces.append((normal[n], dict(orders)))
    return pieces


def invariant_factors(orders: dict[int, int]) -> tuple[int, ...]:
    """The invariant factors > 1 of a sum of cyclic groups, in ascending order.

    `orders` maps each cyclic order to its multiplicity.  The exponents
    of each prime are dealt to the factors from the top.
    """
    exponents: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for order, count in orders.items():
        if count:
            for p, e in numtheory.factorize(order).items():
                exponents[p].append((e, count))
    length = max((sum(c for _, c in runs) for runs in exponents.values()), default=0)
    factors = [1] * length  # largest first
    for p, runs in exponents.items():
        start = 0
        for e, count in sorted(runs, reverse=True):
            q = p**e
            for i in range(start, start + count):
                factors[i] *= q
            start += count
    return tuple(reversed(factors))


def graded_counts(rels: RelationSet, max_degree: int) -> list[tuple[int, dict[int, int]]]:
    """(free rank, {torsion order: multiplicity}) of the quotient in degrees 0..max_degree.

    An AX set must be the generated one; its pieces come from the E set
    regenerated with the same parameters and convention.
    """
    if rels.num_gens != AX_NUM_GENS:
        return piece_counts(rels.num_gens, relation_shapes(rels), max_degree)
    if rels != relation_set_AX(rels.params, rels.convention):
        raise HypothesisError("the AX relation set differs from the generated one")
    inner = relation_set_E(rels.params, max(max_degree, 2), rels.convention)
    e_pieces = piece_counts(inner.num_gens, relation_shapes(inner), max_degree)
    pieces = []
    for n in range(max_degree + 1):
        free = 0
        orders: dict[int, int] = defaultdict(int)
        for i in range(n + 1):
            e_free, e_orders = e_pieces[n - i]
            free += 2**i * e_free
            for g, count in e_orders.items():
                orders[g] += 2**i * count
        pieces.append((free, dict(orders)))
    return pieces
