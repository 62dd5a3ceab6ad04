"""Degreewise abelian-group structure of quotients by two-sided ideals.

For a homogeneous relation set over g generators, the degree-n piece of
the two-sided ideal is spanned by every product (left word) * relation *
(right word) whose degrees sum to n.  The quotient in that degree is
determined by the Smith normal form of the resulting integer matrix:
free rank plus elementary divisors.

Torsion reports and the `hilbert` dimensions (`counted_pieces`,
`counted_dimensions`) come from the closed-form count in `count`, which
builds no matrix.  The matrices, Smith forms and modular ranks serve
`graded_piece`, `dimension` and `element_order`, the independent oracle
of that count.  The matrices and Smith forms are memoized per relation
set and degree, since the verification suites and the twisted-tensor
check revisit them for every field; a modular rank is not kept.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from . import count, numtheory, snf
from .freealg import Element, word_rank
from .presentation import RelationSet, coeff_sequence


class DegreeMatrix(namedtuple("DegreeMatrix", "degree num_gens rows")):
    """Sparse presentation matrix for one degree of the quotient; `rows` is a list of {column: entry}."""

    __slots__ = ()

    @property
    def ncols(self) -> int:
        return self.num_gens**self.degree


class GradedPiece(namedtuple("GradedPiece", "degree free_rank divisors")):
    """One degree of the quotient as an abelian group; divisors: the invariant factors > 1, each dividing the next."""

    __slots__ = ()


@cache
def ideal_spanning_matrix(rels: RelationSet, n: int) -> DegreeMatrix:
    """All (left, relation, right) expansions in degree n, one row each.

    Duplicate rows are kept: they change neither the Smith form nor any
    rank.
    """
    g = rels.num_gens
    rows: list[dict[int, int]] = []
    for rel in rels.relations:
        d = rel.degree
        if d > n:
            continue
        terms = [(word_rank(wd, g), coeff) for wd, coeff in sorted(rel.element.terms.items())]
        for i in range(n - d + 1):
            j = n - d - i
            gj = g**j
            gdj = g ** (d + j)
            shifted = [(rank * gj, coeff) for rank, coeff in terms]
            for lrank in range(g**i):
                base_l = lrank * gdj
                for rrank in range(gj):
                    off = base_l + rrank
                    rows.append({off + rank: coeff for rank, coeff in shifted})
    return DegreeMatrix(n, g, rows)


def _prime_field(field) -> int:
    p = int(field)
    if not numtheory.is_prime(p):
        raise ValueError(f"field characteristic {p} is not prime")
    return p


@cache
def graded_piece(rels: RelationSet, n: int) -> GradedPiece:
    """Free rank and elementary divisors of the quotient in degree n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    invs, rank = snf.smith_normal_form(ideal_spanning_matrix(rels, n).rows)
    return GradedPiece(n, rels.num_gens**n - rank, tuple(d for d in invs if d > 1))


def dimension(rels: RelationSet, n: int, field) -> int:
    """Dimension of the degree-n piece over Q (field "Q") or over F_p.

    The rational dimension comes from the exact integer elimination; the
    modular one from an independent Gaussian elimination mod p, so their
    comparison genuinely cross-checks the Smith form.  A field that is
    not Q must be a prime, of any size.
    """
    if field == "Q":
        return graded_piece(rels, n).free_rank
    p = _prime_field(field)
    return rels.num_gens**n - snf.rank_mod_p(ideal_spanning_matrix(rels, n).rows, p)


def element_order(e: Element, rels: RelationSet, n: int):
    """Smallest b >= 1 with b*e inside the degree-n ideal lattice.

    Returns None when no multiple of e lands in the lattice (infinite
    order in the quotient); returns 1 exactly when e itself lies in the
    ideal's degree-n piece.
    """
    if not e.is_zero() and e.degree() != n:
        raise ValueError(f"element has degree {e.degree()}, expected {n}")
    if e.is_zero():
        return 1
    matrix = ideal_spanning_matrix(rels, n)
    vector = {word_rank(wd, rels.num_gens): c for wd, c in e.terms.items()}
    return snf.order_in_quotient(matrix.rows, vector)


def counted_pieces(rels: RelationSet, max_degree: int) -> list[GradedPiece]:
    """Degrees 0..max_degree from the closed-form count, with no matrix.

    The count runs for every prime power that divides a relation
    content.  Raises count.HypothesisError for a relation set the count
    does not cover; `graded_piece` is the oracle it must agree with.
    """
    return _counted(rels, max_degree)[0]


def _counted(rels: RelationSet, max_degree: int) -> tuple[list[GradedPiece], set[int], dict[int, dict[int, int]]]:
    """`counted_pieces`, the primes that divide an invariant factor of some degree, and the factored contents.

    p divides an invariant factor in degree n exactly when its p^1
    count is nonzero there, and a nonzero p^e count implies a nonzero
    p^1 count, so the primes are read off the series, not factored.
    The third item maps each relation content to its factorization.
    """
    graded = count.graded_shapes(rels, max_degree)
    factored = {c: numtheory.factorize(c) for c in {c for d, c in graded[1] if d <= max_degree}}
    prime_powers = {(p, e) for f in factored.values() for p, k in f.items() for e in range(1, k + 1)}
    free, counts = count.graded_counts(graded, max_degree, prime_powers)
    pieces = [
        GradedPiece(n, free[n], count.invariant_factors({key: series[n] for key, series in counts.items()}))
        for n in range(max_degree + 1)
    ]
    return pieces, {p for (p, _), series in counts.items() if any(series)}, factored


def counted_dimensions(rels: RelationSet, field, max_degree: int) -> list[int]:
    """Dimensions over Q ("Q") or F_p in degrees 0..max_degree, from the count.

    Tensoring is right exact, so over F_p the quotient is the integer
    quotient tensored with F_p, and Z/g tensored with F_p is F_p when p
    divides g and 0 otherwise: the free rank plus the count for p^1.
    Factors nothing.  Raises count.HypothesisError like
    `counted_pieces`; `dimension` is the oracle it must agree with.
    """
    if max_degree < 0:
        raise ValueError("truncation must be nonnegative")
    p = None if field == "Q" else _prime_field(field)
    free, counts = count.graded_counts(count.graded_shapes(rels, max_degree), max_degree, [(p, 1)] if p else [])
    return [f + c for f, c in zip(free, counts[p, 1])] if p else free


class TorsionReport(
    namedtuple("TorsionReport", "params convention degrees computed_primes predicted_primes agree warnings")
):
    __slots__ = ()

    def to_json(self) -> dict:
        degrees = [{"n": p.degree, "free_rank": p.free_rank, "divisors": list(p.divisors)} for p in self.degrees]
        return {**self._asdict(), "degrees": degrees}


def torsion_primes_up_to(rels: RelationSet, max_degree: int) -> TorsionReport:
    """Compare computed torsion primes against the recurrence prediction.

    Computed: the primes dividing an elementary divisor in some degree up
    to max_degree, read off the closed-form count (`count`;
    `graded_piece` is its oracle) without factoring a divisor.
    Predicted: primes dividing some nonzero a_m with
    2 <= m <= max_degree - 1 (the relation a_m * rho(4, m+1) is expected
    to leave rho(4, m+1) with order a_m in degree m + 1).  It reads no
    count: it reuses the factorization of any |a_m| that is a relation
    content and factors each other distinct |a_m| once.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    pieces, computed, factored = _counted(rels, max_degree)
    predicted: set[int] = set()
    warnings = list(rels.warnings)
    for m, am, _ in coeff_sequence(rels.params, max_degree - 1):
        if am == 0:
            warnings.append(f"a_{m} = 0 in range: torsion prediction for degree {m + 1} is void")
            continue
        n = abs(am)
        if n not in factored:
            factored[n] = numtheory.factorize(n)
        predicted.update(factored[n])
    return TorsionReport(
        params=str(rels.params),
        convention=rels.convention,
        degrees=pieces,
        computed_primes=sorted(computed),
        predicted_primes=sorted(predicted),
        agree=computed == predicted,
        warnings=warnings,
    )
