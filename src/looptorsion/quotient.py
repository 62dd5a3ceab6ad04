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
of that count; they are memoized per relation set and degree, since the
verification suites revisit them repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import count, numtheory, snf
from .freealg import Element, word_rank
from .presentation import RelationSet, coeff_sequence


@dataclass
class DegreeMatrix:
    """Sparse presentation matrix for one degree of the quotient."""

    degree: int
    num_gens: int
    rows: list[dict[int, int]]

    @property
    def ncols(self) -> int:
        return self.num_gens**self.degree


@dataclass(frozen=True)
class GradedPiece:
    """One degree of the quotient as an abelian group."""

    degree: int
    free_rank: int
    divisors: tuple[int, ...]  # invariant factors > 1, each dividing the next


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
def smith_invariants(rels: RelationSet, n: int) -> tuple[list[int], int]:
    """Cached Smith normal form (invariant factors, rank) in degree n."""
    return snf.smith_normal_form(ideal_spanning_matrix(rels, n).rows)


@cache
def _rank_mod_p(rels: RelationSet, n: int, p: int) -> int:
    return snf.rank_mod_p(ideal_spanning_matrix(rels, n).rows, p)


def graded_piece(rels: RelationSet, n: int) -> GradedPiece:
    """Free rank and elementary divisors of the quotient in degree n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    invs, rank = smith_invariants(rels, n)
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
    return rels.num_gens**n - _rank_mod_p(rels, n, p)


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

    Raises count.HypothesisError for a relation set the count does not
    cover; `graded_piece` is the oracle it must agree with.
    """
    return [
        GradedPiece(n, free, count.invariant_factors(orders))
        for n, (free, orders) in enumerate(count.graded_counts(rels, max_degree))
    ]


def counted_dimensions(rels: RelationSet, field, max_degree: int) -> list[int]:
    """Dimensions over Q ("Q") or F_p in degrees 0..max_degree, from the count.

    Tensoring is right exact, so over F_p the quotient is the integer
    quotient tensored with F_p, and Z/g tensored with F_p is F_p when p
    divides g and 0 otherwise.  Raises count.HypothesisError like
    `counted_pieces`; `dimension` is the oracle it must agree with.
    """
    if max_degree < 0:
        raise ValueError("truncation must be nonnegative")
    if field == "Q":
        return [free for free, _ in count.graded_counts(rels, max_degree)]
    p = int(field)
    if not numtheory.is_prime(p):
        raise ValueError(f"field characteristic {p} is not prime")
    return [
        free + sum(mult for g, mult in orders.items() if g % p == 0)
        for free, orders in count.graded_counts(rels, max_degree)
    ]


@dataclass
class TorsionReport:
    params_text: str
    convention: str
    degrees: list[GradedPiece]
    computed_primes: list[int]
    predicted_primes: list[int]
    agree: bool
    warnings: list[str]

    def to_json(self) -> dict:
        return {
            "params": self.params_text,
            "convention": self.convention,
            "degrees": [
                {"n": p.degree, "free_rank": p.free_rank, "divisors": list(p.divisors)}
                for p in self.degrees
            ],
            "computed_primes": self.computed_primes,
            "predicted_primes": self.predicted_primes,
            "agree": self.agree,
            "warnings": self.warnings,
        }


def torsion_primes_up_to(rels: RelationSet, max_degree: int) -> TorsionReport:
    """Compare computed torsion primes against the recurrence prediction.

    Computed: prime factors of every elementary divisor in degrees up to
    max_degree, with the pieces from the closed-form count (`count`;
    `graded_piece` is its oracle).  Predicted: primes dividing some
    nonzero a_m with 2 <= m <= max_degree - 1 (the relation
    a_m * rho(4, m+1) is expected to leave rho(4, m+1) with order a_m in
    degree m + 1).
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    pieces = counted_pieces(rels, max_degree)
    computed: set[int] = set()
    for piece in pieces:
        if piece.divisors:  # every divisor divides the last one
            computed.update(numtheory.factorize(piece.divisors[-1]))
    predicted: set[int] = set()
    warnings = list(rels.warnings)
    for m, am, _ in coeff_sequence(rels.params, max(max_degree - 1, 2)):
        if not 2 <= m <= max_degree - 1:
            continue
        if am == 0:
            msg = f"a_{m} = 0 in range: torsion prediction for degree {m + 1} is void"
            if msg not in warnings:
                warnings.append(msg)
            continue
        predicted.update(numtheory.factorize(am))
    return TorsionReport(
        params_text=str(rels.params),
        convention=rels.convention,
        degrees=pieces,
        computed_primes=sorted(computed),
        predicted_primes=sorted(predicted),
        agree=sorted(computed) == sorted(predicted),
        warnings=warnings,
    )
