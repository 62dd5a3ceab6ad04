"""The closed-form count against its oracles, the Smith normal form and the mod-p rank."""

from __future__ import annotations

import ast
import functools
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptorsion import cli, count, numtheory, presentation, quotient, snf
from looptorsion.freealg import CONVENTIONS, GRADED, U1, U2, U4, W, Element
from looptorsion.presentation import (
    Params,
    Relation,
    RelationSet,
    THEOREM1_PARAMS,
    coeff_sequence,
    generated_family,
    relation_set_AX,
    relation_set_E,
)
from looptorsion.count import counted_dimensions, counted_pieces
from looptorsion.quotient import dimension, graded_piece, torsion_primes_up_to

FAMILIES = [
    THEOREM1_PARAMS,
    Params(1, -2, 3, -4, 5, -6),  # mixed signs
    Params(0, 1, 1, 1, 0, 3),  # a_2 = 0
    Params(1, 2, 3, 4, 5, 6),
    Params(30, 1, 0, 0, 1, 0),  # product family, a_2 = 1
    Params(0, 2, 0, 0, 4, 0),  # a_m = 2^m
]


def snf_pieces(rels, top):
    return [graded_piece(rels, n) for n in range(top + 1)]


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("params", FAMILIES, ids=str)
def test_count_matches_smith_form_at_E5_and_AX4(params, conv):
    rels = relation_set_E(params, 5, conv)
    assert counted_pieces(rels, 5) == snf_pieces(rels, 5)
    ax = relation_set_AX(params, conv)
    assert counted_pieces(ax, 4) == snf_pieces(ax, 4)


@pytest.mark.parametrize("params", FAMILIES[:2], ids=str)
def test_count_matches_smith_form_at_E6(params):
    rels = relation_set_E(params, 6, GRADED)
    assert counted_pieces(rels, 6)[6] == graded_piece(rels, 6)


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(*[st.integers(-6, 6)] * 6).map(lambda t: Params(*t)),
    st.sampled_from(CONVENTIONS),
)
def test_count_matches_smith_form_on_random_params(params, conv):
    rels = relation_set_E(params, 4, conv)
    assert counted_pieces(rels, 4) == snf_pieces(rels, 4)
    ax = relation_set_AX(params, conv)
    assert counted_pieces(ax, 3) == snf_pieces(ax, 3)


FIELDS = ["Q", 2, 3, 5, 7, 11, 13, 29, 83]


def rank_dimensions(rels, field, top):
    return [dimension(rels, n, field) for n in range(top + 1)]


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("params", FAMILIES, ids=str)
def test_counted_dimensions_match_the_rank_at_E5_and_AX4(params, conv):
    rels = relation_set_E(params, 5, conv)
    ax = relation_set_AX(params, conv)
    for field in FIELDS:
        assert counted_dimensions(rels, field, 5) == rank_dimensions(rels, field, 5)
        assert counted_dimensions(ax, field, 4) == rank_dimensions(ax, field, 4)


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(*[st.integers(-6, 6)] * 6).map(lambda t: Params(*t)),
    st.sampled_from(CONVENTIONS),
    st.sampled_from(FIELDS),
)
def test_counted_dimensions_match_the_rank_on_random_params(params, conv, field):
    rels = relation_set_E(params, 4, conv)
    assert counted_dimensions(rels, field, 4) == rank_dimensions(rels, field, 4)
    ax = relation_set_AX(params, conv)
    assert counted_dimensions(ax, field, 3) == rank_dimensions(ax, field, 3)


#: Parameters in [-3, 3], drawn often as 0 and +-1, so that some a_m is 0.
SMALL_PARAMS = st.tuples(*[st.one_of(st.sampled_from([0, 1, -1]), st.integers(-3, 3))] * 6).map(lambda t: Params(*t))


@settings(max_examples=200, deadline=None)
@given(SMALL_PARAMS, st.integers(-1, 20), st.sampled_from(CONVENTIONS))
def test_generated_shapes_and_warnings_are_those_of_the_built_set(params, top, conv):
    rels = relation_set_E(params, top, conv)
    assert count.generated_shapes(params, top) == count.relation_shapes(rels)
    assert generated_family("E", params, top, conv).warnings == rels.warnings
    assert generated_family("AX", params, top, conv).warnings == relation_set_AX(params, conv).warnings == ()


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("params", FAMILIES, ids=str)
def test_the_family_is_counted_as_the_built_set_at_E7_and_AX5(params, conv):
    for algebra, top in (("E", 7), ("AX", 5)):
        for n in range(top + 1):
            family = generated_family(algebra, params, n, conv)
            rels = relation_set_AX(params, conv) if algebra == "AX" else relation_set_E(params, n, conv)
            if n >= 2:
                assert torsion_primes_up_to(family, n) == torsion_primes_up_to(rels, n)
            for field in ("Q", 2, 3, 11):
                assert counted_dimensions(family, field, n) == counted_dimensions(rels, field, n)


@pytest.mark.parametrize("params", FAMILIES, ids=str)
def test_an_E_family_counted_past_its_truncation_is_the_built_set_counted_there(params):
    for k in range(-1, 6):
        family, rels = generated_family("E", params, k, GRADED), relation_set_E(params, k, GRADED)
        for n in (6, 8):
            assert torsion_primes_up_to(family, n) == torsion_primes_up_to(rels, n)
            assert counted_dimensions(family, 5, n) == counted_dimensions(rels, 5, n)


def test_a_family_refuses_an_unknown_convention_or_algebra():
    with pytest.raises(ValueError, match="unknown sign convention 'odd'"):
        generated_family("AX", THEOREM1_PARAMS, 1, "odd")
    with pytest.raises(ValueError, match="unknown algebra 'F'"):
        generated_family("F", THEOREM1_PARAMS, 4)


def test_hilbert_builds_no_matrix(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("hilbert built or reduced a matrix")

    monkeypatch.setattr(snf, "rank_mod_p", refuse)
    monkeypatch.setattr(snf, "smith_normal_form", refuse)
    monkeypatch.setattr(quotient, "ideal_spanning_matrix", refuse)
    # an empty cache, so no earlier Smith form is read back
    monkeypatch.setattr(quotient, "graded_piece", functools.cache(quotient.graded_piece.__wrapped__))
    for algebra in ("E", "AX"):
        for field in ("Q", "11"):
            assert cli.main(["hilbert", "--algebra", algebra, "--field", field]) == 0
            assert capsys.readouterr().out.startswith(f"A(t) [{algebra}, field {field}] = 1 + ")


def test_free_ranks_to_degree_16_follow_the_rational_series():
    shapes = [(m, 1) for m in range(2, 17)]
    shapes += [(m + 1, abs(am)) for m, am, _ in coeff_sequence(THEOREM1_PARAMS, 15)]
    prime_powers = {(p, e) for _, c in shapes for p, k in numtheory.factorize(c).items() for e in range(1, k + 1)}
    start = time.perf_counter()
    free, counts = count.piece_counts(6, shapes, 16, prime_powers)
    elapsed = time.perf_counter() - start
    # (1 - t) / (1 - 7t + 7t^2 + t^3)
    expected = [1, 6]
    while len(expected) < 17:
        expected.append(7 * expected[-1] - 7 * expected[-2] - (expected[-3] if len(expected) > 2 else 0))
    assert expected[:9] == [1, 6, 35, 202, 1163, 6692, 38501, 221500, 1274301]
    assert free == expected
    assert {key: series[3] for key, series in counts.items() if series[3]} == {(11, 1): 1}
    assert elapsed < 0.05


def test_invariant_factors_deal_exponents_from_the_top():
    # the orders 4, 4, 6, 9 and 11, 11, 11
    assert count.invariant_factors({(2, 1): 3, (2, 2): 2, (3, 1): 2, (3, 2): 1}) == (2, 12, 36)
    assert count.invariant_factors({(11, 1): 3, (29, 1): 0}) == (11, 11, 11)
    assert count.invariant_factors({}) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 4)] * 5), max_size=8))
def test_invariant_factors_match_the_dense_smith_form(exponents):
    primes = (2, 3, 5, 7, 11)
    orders = [math.prod(p**e for p, e in zip(primes, row)) for row in exponents]
    counts = {(p, e): sum(order % p**e == 0 for order in orders) for p in primes for e in range(1, 5)}
    diagonal = [[order if i == j else 0 for j in range(len(orders))] for i, order in enumerate(orders)]
    expected = tuple(d for d in snf.invariant_factors_dense(diagonal) if d > 1)
    assert count.invariant_factors(counts) == expected


@pytest.mark.parametrize(
    "name, argv",
    [
        ("hilbert_E60_field7", ["hilbert", "--field", "7", "--max-degree", "60"]),
        ("hilbert_AX40_field5", ["hilbert", "--algebra", "AX", "--field", "5", "--max-degree", "40"]),
    ],
)
def test_hilbert_factors_nothing(name, argv, monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"hilbert factored {n}")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    assert cli.main(argv) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("params", FAMILIES, ids=str)
def test_one_prime_dimensions_match_the_pieces_counted_for_all_primes(params):
    for rels, top in ((relation_set_E(params, 9, GRADED), 9), (relation_set_AX(params, GRADED), 7)):
        pieces = counted_pieces(rels, top)
        for p in (2, 3, 5, 7, 11, 13):
            expected = [piece.free_rank + sum(d % p == 0 for d in piece.divisors) for piece in pieces]
            assert counted_dimensions(rels, p, top) == expected


def mutated(rels, relation):
    return rels._replace(relations=rels.relations + (relation,))


OVERLAPPING = Relation("overlap", Element({(U4, U1): 1}), 2)  # u4 u1 ends where u1 w begins
NON_MONIC = Relation("non-monic", Element({(U1, W): 2, (U2, W): 3}), 2)


def pairwise_clash(rels):
    """The refusal of the position-by-position scan over every ordered pair of leading words, or None."""
    leading = [(rel.tag, min(rel.element.terms)) for rel in rels.relations]
    for i, (tag_a, a) in enumerate(leading):
        for j, (tag_b, b) in enumerate(leading):
            overlap = any(a[-k:] == b[:k] for k in range(1, min(len(a), len(b) + 1)))
            inside = i != j and any(b[s : s + len(a)] == a for s in range(len(b) - len(a) + 1))
            if overlap or inside:
                return f"leading words of relations {tag_a} and {tag_b} overlap or nest"
    return None


WORD_SETS = st.integers(1, 4).flatmap(
    lambda letters: st.lists(
        st.lists(st.integers(0, letters - 1), min_size=1, max_size=6).map(tuple), min_size=1, max_size=6
    )
)


@settings(max_examples=500, deadline=None)
@given(WORD_SETS)
def test_prefix_index_refuses_exactly_what_the_pairwise_scan_refuses(words):
    relations = tuple(Relation(f"r{i}", Element({word: 1}), len(word)) for i, word in enumerate(words))
    rels = RelationSet(6, THEOREM1_PARAMS, GRADED, relations)
    expected = pairwise_clash(rels)
    if expected is None:
        assert count.relation_shapes(rels) == [(len(word), 1) for word in words]
    else:
        with pytest.raises(count.HypothesisError) as refusal:
            count.relation_shapes(rels)
        assert str(refusal.value) == expected


def test_hypothesis_check_at_E150_takes_under_half_a_second():
    rels = relation_set_E(THEOREM1_PARAMS, 150, GRADED)
    start = time.perf_counter()
    shapes = count.relation_shapes(rels)
    elapsed = time.perf_counter() - start
    assert len(shapes) == len(rels.relations)
    assert elapsed < 0.5


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("params", FAMILIES, ids=str)
def test_computed_primes_are_those_of_the_largest_invariant_factors(params, conv):
    for rels, top in ((relation_set_E(params, 9, conv), 9), (relation_set_AX(params, conv), 7)):
        primes = set()
        for piece in counted_pieces(rels, top):
            if piece.divisors:
                primes.update(numtheory.factorize(piece.divisors[-1]))
            if piece.degree >= 2:
                assert torsion_primes_up_to(rels, piece.degree).computed_primes == sorted(primes)


@pytest.mark.parametrize("params, top", [(THEOREM1_PARAMS, 8), (Params(0, 1000000007, 0, 0, 1, 0), 6)], ids=str)
def test_torsion_primes_factor_contents_and_a_m_only(params, top, monkeypatch):
    rels = relation_set_E(params, top, GRADED)
    contents = {c for d, c in count.relation_shapes(rels) if d <= top}
    coefficients = {abs(am) for m, am, _ in coeff_sequence(params, top - 1) if 2 <= m <= top - 1 and am}
    seen = []
    factorize = numtheory.factorize

    def record(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(numtheory, "factorize", record)
    torsion_primes_up_to(rels, top)
    # each distinct content or |a_m| once, and nothing else
    assert sorted(seen) == sorted(contents | coefficients)


@pytest.mark.parametrize("bad", [OVERLAPPING, NON_MONIC], ids=lambda r: r.tag)
def test_count_refuses_a_set_outside_its_hypotheses(bad):
    rels = mutated(relation_set_E(THEOREM1_PARAMS, 4, GRADED), bad)
    with pytest.raises(count.HypothesisError):
        torsion_primes_up_to(rels, 4)


def test_count_refuses_an_AX_set_that_is_not_the_generated_one():
    ax = relation_set_AX(THEOREM1_PARAMS, GRADED)
    with pytest.raises(count.HypothesisError):
        counted_pieces(ax._replace(relations=ax.relations[:-1]), 3)


#: Golden commands of `torsion-primes` and `hilbert`, E and AX, warnings and both conventions among them.
COUNTED_GOLDENS = {
    "torsion_primes_E5": ["torsion-primes"],
    "torsion_primes_AX4_json": ["torsion-primes", "--algebra", "AX", "--json"],
    "torsion_primes_E6_a2_zero": ["torsion-primes", "--params", "0,1,1,1,0,3", "--max-degree", "6"],
    "torsion_primes_E6_mixed_ungraded_json": [
        "torsion-primes", "--params", "1,-2,3,-4,5,-6", "--convention", "ungraded", "--max-degree", "6", "--json"
    ],
    "hilbert_E_field7_json": ["hilbert", "--field", "7", "--json"],
    "hilbert_AX_field13": ["hilbert", "--algebra", "AX", "--field", "13"],
    "hilbert_E_a2_zero_field2": ["hilbert", "--params", "0,1,1,1,0,3", "--field", "2"],
    "hilbert_AX5_field29_ungraded_json": [
        "hilbert", "--algebra", "AX", "--field", "29", "--max-degree", "5", "--convention", "ungraded", "--json"
    ],
}
ELEMENT_BUILDERS = ("relation_set_E", "relation_set_AX", "tau", "rho", "sigma", "bracket")


@pytest.mark.parametrize("name", sorted(COUNTED_GOLDENS))
def test_torsion_primes_and_hilbert_print_their_goldens_without_building_a_relation(name, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a relation element was built")

    # every binding, so that a name imported with `from ... import` is refused too
    for module in (presentation, count, quotient):
        for builder in ELEMENT_BUILDERS:
            if hasattr(module, builder):
                monkeypatch.setattr(module, builder, refuse)
    assert cli.main(COUNTED_GOLDENS[name]) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_count_shares_no_code_with_the_smith_form():
    # every import form: `import a.b`, `from .b import x`, `from . import b`, `from a.b import x`
    tree = ast.parse(Path(count.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "").rsplit(".", 1)[-1], *(alias.name for alias in node.names)}
    assert {"numtheory", "presentation", "series"} <= imported
    assert not {"snf", "quotient"} & imported


def test_the_listing_size_is_counted_before_any_factor_is_expanded(monkeypatch):
    listed = []

    def tally(counts):
        listed.append(max(counts.values(), default=0))
        return ()

    monkeypatch.setattr(count, "invariant_factors", tally)
    count.counted_torsion(relation_set_E(THEOREM1_PARAMS, 11, GRADED), 11)
    assert sum(listed) == 14_299_117 <= count.MAX_LISTED_FACTORS
    listed.clear()
    with pytest.raises(MemoryError, match="degrees 0..12 hold 92034197 invariant factors"):
        count.counted_torsion(relation_set_E(THEOREM1_PARAMS, 12, GRADED), 12)
    assert listed == [] and 92_034_197 > count.MAX_LISTED_FACTORS
    # the dimensions expand nothing, so they take the same truncation
    assert len(counted_dimensions(relation_set_E(THEOREM1_PARAMS, 12, GRADED), 11, 12)) == 13
