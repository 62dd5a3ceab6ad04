from __future__ import annotations

import copy
from itertools import product

import pytest

from looptorsion import snf
from looptorsion.action import semi_tensor_dimension_check
from looptorsion.freealg import Element, GRADED, UNGRADED, U1, U4, V, W, word_rank
from looptorsion.presentation import (
    Params,
    THEOREM1_PARAMS,
    relation_set_AX,
    relation_set_E,
    rho,
    tau,
)
from looptorsion.quotient import (
    dimension,
    element_order,
    graded_piece,
    ideal_spanning_matrix,
    torsion_primes_up_to,
)


def test_matrix_shapes_match_direct_counts():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    m2 = ideal_spanning_matrix(rels, 2)
    assert len(m2.rows) == 1 and m2.ncols == 36
    m3 = ideal_spanning_matrix(rels, 3)
    assert len(m3.rows) == 14 and m3.ncols == 216
    m4 = ideal_spanning_matrix(relation_set_AX(THEOREM1_PARAMS, GRADED), 4)
    assert len(m4.rows) == 2496 and m4.ncols == 4096


def test_matrix_descriptors_expand_correctly():
    # (relation, left word, right word) in the builder's own loop order
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    n, g = 3, rels.num_gens
    m3 = ideal_spanning_matrix(rels, n)
    expected = []
    for rel in rels.relations:
        d = rel.degree
        if d > n:
            continue
        for i in range(n - d + 1):
            for lword in product(range(g), repeat=i):
                for rword in product(range(g), repeat=n - d - i):
                    lhs = Element({lword: 1}) * rel.element * Element({rword: 1})
                    expected.append({word_rank(wd, g): c for wd, c in lhs.terms.items()})
    assert len(expected) == len(m3.rows)
    assert expected == m3.rows


def test_graded_pieces_low_degrees():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    assert graded_piece(rels, 0).free_rank == 1
    p1 = graded_piece(rels, 1)
    assert p1.free_rank == 6 and p1.divisors == ()
    p2 = graded_piece(rels, 2)
    assert p2.free_rank == 35 and p2.divisors == ()
    p3 = graded_piece(rels, 3)
    assert p3.free_rank == 202 and p3.divisors == (11,)


def test_rank_plus_free_rank_is_dimension_of_degree():
    for conv in (GRADED, UNGRADED):
        rels = relation_set_E(THEOREM1_PARAMS, 4, conv)
        for n in range(5):
            invs, rank = snf.smith_normal_form(ideal_spanning_matrix(rels, n).rows)
            assert graded_piece(rels, n).free_rank + rank == 6**n
            assert len(invs) == rank


def test_element_orders_in_reference_quotient():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    assert element_order(rho(4, 3, GRADED), rels, 3) == 11
    assert element_order(tau(2, THEOREM1_PARAMS, GRADED), rels, 2) == 1
    assert element_order(rho(4, 2, GRADED), rels, 2) is None
    # rho(4, m+1) has order exactly a_m = 2 + 3^m: 83 and 245 = 5 * 7^2;
    # the degree-6 matrix is the one test_graded_piece_reference_degree_6 uses
    rels = relation_set_E(THEOREM1_PARAMS, 6, GRADED)
    assert element_order(rho(4, 5, GRADED), rels, 5) == 83
    assert element_order(rho(4, 6, GRADED), rels, 6) == 245


def test_element_order_scaling():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    assert element_order(rho(4, 3, GRADED) * 11, rels, 3) == 1
    assert element_order(rho(4, 3, GRADED) * 22, rels, 3) == 1
    assert element_order(rho(4, 3, GRADED) * 3, rels, 3) == 11
    assert element_order(rho(4, 3, GRADED) * -1, rels, 3) == 11


def test_element_order_rejects_degree_mismatch():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    with pytest.raises(ValueError):
        element_order(rho(4, 3, GRADED), rels, 2)


def test_element_order_of_zero_is_one():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    assert element_order(Element.zero(), rels, 3) == 1


def test_torsion_report_reference_small():
    report = torsion_primes_up_to(relation_set_E(THEOREM1_PARAMS, 3, GRADED), 3)
    assert report.computed_primes == [11]
    assert report.predicted_primes == [11]
    assert report.agree


def test_torsion_report_reference_degree_4():
    report = torsion_primes_up_to(relation_set_E(THEOREM1_PARAMS, 4, GRADED), 4)
    assert report.computed_primes == [11, 29]
    assert report.predicted_primes == [11, 29]
    assert report.agree
    assert report.degrees[4].divisors == (11,) * 11 + (319,)


def test_torsion_report_unit_coefficient_family():
    params = Params(30, 1, 0, 0, 1, 0)  # a_2 = 1: the degree-3 relation is primitive
    report = torsion_primes_up_to(relation_set_E(params, 3, GRADED), 3)
    assert report.computed_primes == []
    assert report.predicted_primes == []
    assert report.agree


def test_torsion_report_zero_coefficient_warns():
    report = torsion_primes_up_to(relation_set_E(Params(0, 0, 0, 0, 0, 5), 3, GRADED), 3)
    assert report.warnings
    assert report.agree


def test_torsion_report_json_shape():
    report = torsion_primes_up_to(relation_set_E(THEOREM1_PARAMS, 3, GRADED), 3)
    payload = report.to_json()
    assert set(payload) == {
        "params",
        "convention",
        "degrees",
        "computed_primes",
        "predicted_primes",
        "agree",
        "warnings",
    }
    assert payload["degrees"][3] == {"n": 3, "free_rank": 202, "divisors": [11]}


def test_dimension_over_fields_degree_3():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    assert dimension(rels, 3, "Q") == 202
    assert dimension(rels, 3, 11) == 203
    assert dimension(rels, 3, 13) == 202


def test_dimension_rejects_composite_fields():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    with pytest.raises(ValueError, match="77"):
        dimension(rels, 3, 77)
    with pytest.raises(ValueError, match="characteristic 4 "):
        dimension(rels, 2, 4)
    with pytest.raises(ValueError, match="35"):
        semi_tensor_dimension_check(THEOREM1_PARAMS, 35, 3, GRADED)
    with pytest.raises(ValueError, match=str((1 << 61) + 9)):
        dimension(rels, 1, (1 << 61) + 9)


def test_a_later_field_reads_the_smith_forms_from_the_cache(monkeypatch):
    calls = []
    for name in ("smith_normal_form", "rank_mod_p"):

        def counted(*args, name=name, original=getattr(snf, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(snf, name, counted)
    params = Params(7, 2, 0, 1, 14, 3)  # a_2, a_3, a_4 = 14, 35, 77; no other test caches this family
    passes = []
    for field in (7, 11, 7):
        start = len(calls)
        assert semi_tensor_dimension_check(params, field, 4, GRADED)["ok"]
        passes.append(calls[start:])
    first, second, third = passes
    assert {"smith_normal_form", "rank_mod_p"} <= set(first)
    assert second and set(second) == {"rank_mod_p"}  # the Smith forms come back from the first pass
    assert third == second  # a modular rank is not kept, so a revisited field ranks the cached matrices again


def test_oracles_leave_the_cached_matrix_unchanged():
    # the cached rows are shared by every later call, so no elimination may write to them;
    # graded_piece is called past its cache so that it eliminates here
    rels = relation_set_E(THEOREM1_PARAMS, 4, GRADED)
    rows = ideal_spanning_matrix(rels, 4).rows
    before = copy.deepcopy(rows)
    assert graded_piece.__wrapped__(rels, 4).divisors
    assert dimension(rels, 4, 7) > 0
    assert element_order(rho(4, 4, GRADED), rels, 4) == 29  # a_3 = 2 + 27
    assert snf.order_in_quotient(rows, dict(rows[-1])) == 1
    assert ideal_spanning_matrix(rels, 4).rows is rows
    assert rows == before


def test_ax_degree_3_matches_inner_structure():
    rels = relation_set_AX(THEOREM1_PARAMS, GRADED)
    assert graded_piece(rels, 2).free_rank == 51
    p3 = graded_piece(rels, 3)
    assert p3.free_rank == 304 and p3.divisors == (11,)


def test_graded_piece_reference_degree_6():
    piece = graded_piece(relation_set_E(THEOREM1_PARAMS, 6, GRADED), 6)
    assert piece.free_rank == 38501
    assert piece.divisors == (11,) * 719 + (319,) * 94 + (26477,) * 11 + (6486865,)
