from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptorsion.presentation import RelationSet, THEOREM1_PARAMS, relation_set_AX, relation_set_E
from looptorsion.quotient import dimension, graded_piece
from looptorsion.series import format_series, invert_series, roos_poincare, series_json


def convolve(s, t):
    """The product of two series, truncated at the shorter one."""
    n = min(len(s), len(t))
    return [sum(s[i] * t[k - i] for i in range(k + 1)) for k in range(n)]


def test_invert_geometric():
    assert invert_series([1, -8, 0, 0]) == [1, 8, 64, 512]


def test_invert_identity():
    assert invert_series([1, 0, 0, 0]) == [1, 0, 0, 0]


def test_invert_is_involutive():
    rng = random.Random(43)
    for _ in range(30):
        s = [1] + [rng.randint(-5, 5) for _ in range(5)]
        assert invert_series(invert_series(s)) == s
        assert convolve(s, invert_series(s)) == [1, 0, 0, 0, 0, 0]


def test_invert_rejects_bad_constant_term():
    with pytest.raises(ValueError):
        invert_series([2, 1])
    with pytest.raises(ValueError):
        invert_series([])


def test_dimension_series_free_algebra():
    free = RelationSet(8, THEOREM1_PARAMS, "graded", ())
    assert [dimension(free, n, "Q") for n in range(3)] == [1, 8, 64]
    assert [dimension(free, n, 13) for n in range(3)] == [1, 8, 64]


def test_dimension_series_inner_algebra():
    rels = relation_set_E(THEOREM1_PARAMS, 3, "graded")
    assert [dimension(rels, n, "Q") for n in range(4)] == [1, 6, 35, 202]
    assert dimension(rels, 3, 11) == 203


def test_dimension_series_rejects_bad_fields():
    rels = relation_set_E(THEOREM1_PARAMS, 2, "graded")
    with pytest.raises(ValueError):
        [dimension(rels, n, 4) for n in range(3)]
    with pytest.raises(ValueError):
        [dimension(rels, n, (1 << 61) + 9) for n in range(3)]


def test_rank_drop_matches_divisors():
    rels = relation_set_E(THEOREM1_PARAMS, 4, "graded")
    for p in (5, 11, 13, 29):
        for n in range(5):
            piece = graded_piece(rels, n)
            drop = sum(1 for d in piece.divisors if d % p == 0)
            assert dimension(rels, n, p) == piece.free_rank + drop


def test_roos_free_algebra_case():
    p = roos_poincare(invert_series([1, -8, 0, 0, 0]))
    assert p == [1, 8, 64, 525, 4304]
    assert invert_series(p) == [1, -8, 0, -13, 0]


def test_roos_trivial_algebra_case():
    assert invert_series(roos_poincare([1, 0, 0, 0])) == [1, 0, 8, -13]


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(-50, 50), max_size=8).map(lambda tail: [1] + tail))
def test_roos_inverse_is_the_stated_transform(a):
    one_plus_t = [1, 1] + [0] * len(a)
    correction = [0, -1, 8, -13] + [0] * len(a)  # - t + 8t^2 - 13t^3
    expected = [c + d for c, d in zip(convolve(one_plus_t, invert_series(a)), correction)]
    assert invert_series(roos_poincare(a)) == expected


def test_roos_on_reference_dimension_series():
    rels = relation_set_AX(THEOREM1_PARAMS, "graded")
    p = roos_poincare([dimension(rels, n, 13) for n in range(5)])
    assert all(isinstance(c, int) and c >= 0 for c in p)


def test_roos_rejects_non_unit_constant():
    with pytest.raises(ValueError):
        roos_poincare([2, 1, 1])


def test_format_series():
    assert format_series([1, 8, 64]) == "1 + 8 t + 64 t^2"
    assert format_series([0, 0]) == "0"


def test_series_json():
    assert series_json([1, -8, 64]) == {"truncation": 2, "coefficients": [1, -8, 64]}
