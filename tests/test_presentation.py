from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptorsion.freealg import (
    CONVENTIONS,
    Element,
    GRADED,
    UNGRADED,
    U1,
    U2,
    U3,
    U4,
    V,
    W,
    X1,
    X2,
    bracket,
)
from looptorsion.presentation import (
    Params,
    THEOREM1_PARAMS,
    coeff_sequence,
    format_relation_set,
    parse_relation_set,
    relation_set_AX,
    relation_set_E,
    rho,
    sigma,
    tau,
)
from looptorsion.verify import check_relations_file

ZERO_PARAMS = Params(0, 0, 0, 0, 0, 0)


def test_coeff_sequence_reference_instance():
    assert coeff_sequence(THEOREM1_PARAMS, 4) == [(2, 11, 5), (3, 29, 11), (4, 83, 29)]


def test_coeff_sequence_linear_family():
    rows = dict((m, am) for m, am, _ in coeff_sequence(Params(6, 1, 0, 0, 1, 0), 4))
    assert rows[3] == 7 and rows[4] == 13


def test_coeff_sequence_zero_params():
    assert coeff_sequence(ZERO_PARAMS, 3)[-1] == (3, 0, 0)


def test_coeff_sequence_is_empty_below_m_2():
    for max_m in (-1, 0, 1):
        assert coeff_sequence(THEOREM1_PARAMS, max_m) == []
    assert coeff_sequence(THEOREM1_PARAMS, 2) == [(2, 11, 5)]


def test_closed_form_reference_family_through_40():
    for m, am, bm in coeff_sequence(THEOREM1_PARAMS, 40):
        assert am == 2 + 3**m
        assert bm == 2 + 3 ** (m - 1)


def test_closed_form_linear_family_through_40():
    for a in (0, 1, 7, 30, 210):
        for m, am, bm in coeff_sequence(Params(a, 1, 0, 0, 1, 0), 40):
            assert am == 1 + a * (m - 2)
            assert bm == 0


def test_sigma_base_and_one_step():
    assert sigma(1, 1) == Element.gen(U1)
    assert sigma(1, 2, UNGRADED) == Element({(U1, V): 1, (V, U1): -1})


def test_sigma_2_3_expansion():
    # hand expansion of [[u2,v],v]: u2.v.v - 2 v.u2.v + v.v.u2, so three
    # stored words once the two middle summands combine
    e = sigma(2, 3, UNGRADED)
    assert e.degree() == 3
    assert e == Element({(U2, V, V): 1, (V, U2, V): -2, (V, V, U2): 1})
    assert len(e.terms) == 3


def test_rho_examples():
    assert rho(4, 2, UNGRADED) == Element({(U4, W): 1, (W, U4): -1})
    for conv in (GRADED, UNGRADED):
        assert rho(1, 3, conv) == bracket(bracket(Element.gen(U1), Element.gen(V), conv), Element.gen(W), conv)
        for i in (1, 2, 3, 4):
            for m in (2, 3, 4):
                assert rho(i, m, conv).degree() == m


def test_tau_reference_values():
    expected = (
        bracket(Element.gen(U1), Element.gen(W), UNGRADED)
        + bracket(Element.gen(U2), Element.gen(W), UNGRADED) * 11
        + bracket(Element.gen(U3), Element.gen(W), UNGRADED) * 5
    )
    assert tau(2, THEOREM1_PARAMS, UNGRADED) == expected
    assert tau(3, THEOREM1_PARAMS, GRADED) == (
        rho(1, 3, GRADED) + rho(2, 3, GRADED) * 29 + rho(3, 3, GRADED) * 11
    )
    assert tau(2, ZERO_PARAMS, GRADED) == bracket(Element.gen(U1), Element.gen(W), GRADED)


def test_relation_set_E_contents():
    rels = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    assert [(r.tag, r.degree) for r in rels.relations] == [
        ("tau_2", 2),
        ("tau_3", 3),
        ("a_2*rho_{4,3}", 3),
    ]
    assert rels.relations[2].element == rho(4, 3, GRADED) * 11
    assert relation_set_E(THEOREM1_PARAMS, 2, GRADED).relations[0].tag == "tau_2"
    assert len(relation_set_E(THEOREM1_PARAMS, 2, GRADED).relations) == 1


def test_relation_set_E_below_degree_2_is_empty():
    # the family starts at tau_2, so a lower truncation, negative included, holds nothing
    for params in (THEOREM1_PARAMS, Params(0, 0, 0, 0, 0, 5)):
        for maxdeg in (-1, 0, 1):
            rels = relation_set_E(params, maxdeg, GRADED)
            assert rels.relations == () and rels.warnings == ()


@pytest.mark.parametrize("maxdeg", [-1, 0, 1, 2])
def test_relation_set_E_refuses_an_unknown_convention_at_any_truncation(maxdeg):
    with pytest.raises(ValueError, match="^unknown sign convention 'odd'$"):
        relation_set_E(THEOREM1_PARAMS, maxdeg, "odd")


def test_relation_set_E_zero_coefficient_warning():
    rels = relation_set_E(Params(0, 0, 0, 0, 0, 5), 3, GRADED)
    assert len(rels.warnings) == 1
    assert all("rho" not in r.tag for r in rels.relations)


def test_relation_set_E_all_homogeneous():
    for conv in (GRADED, UNGRADED):
        rels = relation_set_E(THEOREM1_PARAMS, 5, conv)
        for rel in rels.relations:
            assert rel.element.degree() == rel.degree


def test_relation_set_AX_contents():
    for conv in (GRADED, UNGRADED):
        rels = relation_set_AX(THEOREM1_PARAMS, conv)
        assert len(rels.relations) == 13
        assert all(r.degree == 2 and r.element.degree() == 2 for r in rels.relations)
        br = lambda i, j: bracket(Element.gen(i), Element.gen(j), conv)
        # c = -3, so the third relation gains +3[u2,v]
        assert rels.relations[2].element == br(X1, U3) + br(U2, V) * 3
        assert rels.relations[11].element == br(X2, U2) - br(U4, V)


def test_tau2_matches_thirteenth_relation():
    # expanded from brackets and (a2, b2), independently of tau, rho and coeff_sequence
    for params in (THEOREM1_PARAMS, Params(1, 2, 3, 4, 5, 6), Params(1, -2, 3, -4, 5, -6), ZERO_PARAMS):
        for conv in (GRADED, UNGRADED):
            u1w, u2w, u3w = (bracket(Element.gen(g), Element.gen(W), conv) for g in (U1, U2, U3))
            expected = u1w + u2w * params.a2 + u3w * params.b2
            assert relation_set_AX(params, conv).relations[12].element == expected


def test_relation_set_round_trips_through_text():
    for rels in (
        relation_set_E(THEOREM1_PARAMS, 4, GRADED),
        relation_set_AX(Params(1, -2, 3, -4, 5, -6), UNGRADED),
    ):
        text = format_relation_set(rels)
        parsed = parse_relation_set(text)
        assert parsed == rels or (
            parsed.num_gens == rels.num_gens
            and parsed.params == rels.params
            and parsed.convention == rels.convention
            and [(r.tag, r.element) for r in parsed.relations]
            == [(r.tag, r.element) for r in rels.relations]
        )
        assert format_relation_set(parsed) == text


def test_relation_set_header_carries_metadata():
    text = format_relation_set(relation_set_E(THEOREM1_PARAMS, 2, GRADED))
    head = text.splitlines()[0]
    assert "u1 u2 u3 u4 v w" in head and "a2=11" in head and "graded" in head and "tau_2" in head


def test_parse_relation_set_rejects_corruption(tmp_path):
    text = format_relation_set(relation_set_E(THEOREM1_PARAMS, 3, GRADED))
    with pytest.raises((ValueError, KeyError)):
        parse_relation_set(text.replace("# generators", "# gens"))
    with pytest.raises(ValueError):
        parse_relation_set(text + "1*u1.v\n")
    lines = text.splitlines()
    unknown_key = text.replace("b2=5", "z=5")
    missing_key = text.replace(" b2=5", "")
    zero_line = "\n".join([lines[0], "0", *lines[2:]]) + "\n"
    for bad in (unknown_key, missing_key, zero_line):
        with pytest.raises(ValueError):
            parse_relation_set(bad)
    # parseable files that cannot be rebuilt: an unknown convention, and
    # an E set whose only relation has degree 1
    unknown_convention = text.replace("convention: graded", "convention: odd")
    head = lines[0][: lines[0].index("tags: ") + len("tags: ")]
    degree_one = f"{head}u1\n1*u1\n"
    path = tmp_path / "relations.txt"
    for bad in (zero_line, unknown_convention, degree_one):
        path.write_text(bad, encoding="utf-8")
        assert check_relations_file(str(path))["ok"] is False
    # export-relations writes no E set below degree 2, so such a file is refused, not rebuilt
    path.write_text(degree_one, encoding="utf-8")
    assert check_relations_file(str(path))["error"] == "an E relation file needs a relation of degree 2 or more"
    # files that cannot be read as text at all: missing, and not UTF-8
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(text.replace("u1", "\xfc1").encode("latin-1"))
    for unreadable in (tmp_path / "missing.txt", not_utf8):
        assert check_relations_file(str(unreadable))["ok"] is False


PARAMS = st.builds(Params, *[st.integers(-50, 50)] * 6)


@settings(max_examples=40, deadline=None, database=None)
@given(PARAMS, st.sampled_from(CONVENTIONS), st.sampled_from((2, 3, 4, "AX")))
def test_relation_set_text_is_a_fixed_point(params, convention, maxdeg):
    if maxdeg == "AX":
        rels = relation_set_AX(params, convention)
    else:
        rels = relation_set_E(params, maxdeg, convention)
    text = format_relation_set(rels)
    assert format_relation_set(parse_relation_set(text)) == text
