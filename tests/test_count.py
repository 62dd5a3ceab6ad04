"""The closed-form count against its oracles, the Smith normal form and the mod-p rank."""

from __future__ import annotations

import ast
import functools
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptorsion import cli, count, quotient, snf
from looptorsion.freealg import CONVENTIONS, GRADED, U1, U2, U4, W, Element
from looptorsion.presentation import (
    Params,
    Relation,
    THEOREM1_PARAMS,
    coeff_sequence,
    relation_set_AX,
    relation_set_E,
)
from looptorsion.quotient import counted_dimensions, counted_pieces, dimension, graded_piece, torsion_primes_up_to

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


def test_hilbert_builds_no_matrix(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("hilbert built or reduced a matrix")

    monkeypatch.setattr(snf, "rank_mod_p", refuse)
    monkeypatch.setattr(snf, "smith_normal_form", refuse)
    monkeypatch.setattr(quotient, "ideal_spanning_matrix", refuse)
    for name in ("smith_invariants", "_rank_mod_p"):  # empty caches, so no earlier result is read back
        monkeypatch.setattr(quotient, name, functools.cache(getattr(quotient, name).__wrapped__))
    for algebra in ("E", "AX"):
        for field in ("Q", "11"):
            assert cli.main(["hilbert", "--algebra", algebra, "--field", field]) == 0
            assert capsys.readouterr().out.startswith(f"A(t) [{algebra}, field {field}] = 1 + ")


def test_free_ranks_to_degree_16_follow_the_rational_series():
    start = time.perf_counter()
    shapes = [(m, 1) for m in range(2, 17)]
    shapes += [(m + 1, abs(am)) for m, am, _ in coeff_sequence(THEOREM1_PARAMS, 15)]
    pieces = count.piece_counts(6, shapes, 16)
    elapsed = time.perf_counter() - start
    # (1 - t) / (1 - 7t + 7t^2 + t^3)
    expected = [1, 6]
    while len(expected) < 17:
        expected.append(7 * expected[-1] - 7 * expected[-2] - (expected[-3] if len(expected) > 2 else 0))
    assert expected[:9] == [1, 6, 35, 202, 1163, 6692, 38501, 221500, 1274301]
    assert [free for free, _ in pieces] == expected
    assert pieces[3][1] == {11: 1}
    assert elapsed < 0.05


def test_invariant_factors_deal_exponents_from_the_top():
    assert count.invariant_factors({4: 2, 6: 1, 9: 1}) == (2, 12, 36)
    assert count.invariant_factors({11: 3, 29: 0}) == (11, 11, 11)
    assert count.invariant_factors({}) == ()


def mutated(rels, relation):
    return replace(rels, relations=rels.relations + (relation,))


OVERLAPPING = Relation("overlap", Element({(U4, U1): 1}), 2)  # u4 u1 ends where u1 w begins
NON_MONIC = Relation("non-monic", Element({(U1, W): 2, (U2, W): 3}), 2)


@pytest.mark.parametrize("bad", [OVERLAPPING, NON_MONIC], ids=lambda r: r.tag)
def test_count_refuses_a_set_outside_its_hypotheses(bad):
    rels = mutated(relation_set_E(THEOREM1_PARAMS, 4, GRADED), bad)
    with pytest.raises(count.HypothesisError):
        torsion_primes_up_to(rels, 4)


def test_count_refuses_an_AX_set_that_is_not_the_generated_one():
    ax = relation_set_AX(THEOREM1_PARAMS, GRADED)
    with pytest.raises(count.HypothesisError):
        counted_pieces(replace(ax, relations=ax.relations[:-1]), 3)


@pytest.mark.parametrize("bad", [OVERLAPPING, NON_MONIC], ids=lambda r: r.tag)
def test_cli_reports_a_refused_set_as_an_error_with_exit_1(bad, monkeypatch, capsys):
    build = cli.relation_set_E
    monkeypatch.setattr(cli, "relation_set_E", lambda *args: mutated(build(*args), bad))
    for command in (["torsion-primes"], ["hilbert", "--field", "11"]):
        assert cli.main([*command, "--max-degree", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and bad.tag in captured.err
        assert "Traceback" not in captured.err


def test_count_shares_no_code_with_the_smith_form():
    tree = ast.parse(Path(count.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {"snf", "quotient"} & imported
