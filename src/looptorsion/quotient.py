"""Degreewise abelian-group structure of quotients by two-sided ideals.

For a homogeneous relation set over g generators, the degree-n piece of
the two-sided ideal is spanned by every product (left word) * relation *
(right word) whose degrees sum to n.  The quotient in that degree is
determined by the Smith normal form of the resulting integer matrix:
free rank plus elementary divisors.

The matrices, Smith forms and modular ranks serve `graded_piece`,
`dimension` and `element_order`, the independent oracle of the
closed-form count in `count`, which builds no matrix.  The torsion
report is the one reader of that count here: its graded pieces and
computed primes come from `count.counted_torsion`, of a `RelationSet` or,
from `torsion-primes`, of a `presentation.GeneratedFamily`, for which no
relation element is built.  The matrices and
Smith forms are memoized per relation set and degree, since the
verification suites and the twisted-tensor check revisit them for every
field; a modular rank is not kept.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from . import count, numtheory, snf
from .count import GradedPiece
from .freealg import Element, word_rank
from .presentation import GeneratedFamily, RelationSet, coeff_sequence


class DegreeMatrix(namedtuple("DegreeMatrix", "degree num_gens rows")):
    """Sparse presentation matrix for one degree of the quotient; `rows` is a list of {column: entry}."""

    __slots__ = ()

    @property
    def ncols(self) -> int:
        return self.num_gens**self.degree


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
    p = int(field)
    if not numtheory.is_prime(p):
        raise ValueError(f"field characteristic {p} is not prime")
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


class TorsionReport(
    namedtuple("TorsionReport", "params convention degrees computed_primes predicted_primes agree warnings")
):
    __slots__ = ()

    def to_json(self) -> dict:
        degrees = [{"n": p.degree, "free_rank": p.free_rank, "divisors": list(p.divisors)} for p in self.degrees]
        return {**self._asdict(), "degrees": degrees}


def torsion_primes_up_to(rels: RelationSet | GeneratedFamily, max_degree: int) -> TorsionReport:
    """Compare computed torsion primes against the recurrence prediction.

    Reads `rels`' params, convention and warnings, and passes it to the
    count; `torsion-primes` gives a `GeneratedFamily`, so no relation
    element is built.

    Computed: the primes dividing an elementary divisor in some degree up
    to max_degree, read off the closed-form count
    (`count.counted_torsion`, which refuses a listing larger than
    `count.MAX_LISTED_FACTORS`; `graded_piece` is its oracle) without
    factoring a divisor.
    Predicted: primes dividing some nonzero a_m with
    2 <= m <= max_degree - 1 (the relation a_m * rho(4, m+1) is expected
    to leave rho(4, m+1) with order a_m in degree m + 1).  It reads no
    count: it reuses the factorization of any |a_m| that is a relation
    content and factors each other distinct |a_m| once.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    pieces, computed, factored = count.counted_torsion(rels, max_degree)
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
