from __future__ import annotations

import random

import pytest

from looptorsion.action import (
    act,
    check_preserves_ideal,
    select_convention,
    semi_tensor_dimension_check,
)
from looptorsion.freealg import (
    Element,
    GRADED,
    UNGRADED,
    U1,
    U2,
    U3,
    V,
    X1,
    X2,
    bracket,
)
from looptorsion.numtheory import theorem2_params
from looptorsion.presentation import (
    Params,
    THEOREM1_PARAMS,
    coeff_sequence,
    derivation_images,
    relation_set_E,
    rho,
    tau,
)


def random_homogeneous(rng, degree, nterms=3) -> Element:
    terms = {}
    for _ in range(nterms):
        word = tuple(rng.randrange(6) for _ in range(degree))
        terms[word] = rng.randint(-3, 3)
    return Element(terms)


def test_generator_images_reference_values():
    images = derivation_images(THEOREM1_PARAMS, UNGRADED)
    assert act(X1, Element.gen(U3), images, UNGRADED) == bracket(Element.gen(U2), Element.gen(V), UNGRADED) * -3
    assert act(X2, Element.gen(V), images, UNGRADED).is_zero()
    assert act(X1, Element.gen(U1), images, UNGRADED) == bracket(Element.gen(U1), Element.gen(V), UNGRADED)


def test_act_leibniz_on_a_product_by_hand():
    u3v = Element.gen(U3) * Element.gen(V)
    expected = bracket(Element.gen(U2), Element.gen(V), GRADED) * -3 * Element.gen(V)
    assert act(X1, u3v, derivation_images(THEOREM1_PARAMS, GRADED), GRADED) == expected


def test_act_raises_degree_by_one_and_is_additive():
    rng = random.Random(47)
    for conv in (GRADED, UNGRADED):
        images = derivation_images(THEOREM1_PARAMS, conv)
        for _ in range(20):
            d = rng.randint(1, 3)
            f = random_homogeneous(rng, d)
            g = random_homogeneous(rng, d)
            for x in (X1, X2):
                img = act(x, f, images, conv)
                if not img.is_zero():
                    assert img.degree() == d + 1
                assert act(x, f + g, images, conv) == act(x, f, images, conv) + act(x, g, images, conv)


def test_act_satisfies_the_configured_leibniz_rule():
    rng = random.Random(53)
    for conv in (GRADED, UNGRADED):
        images = derivation_images(THEOREM1_PARAMS, conv)
        for _ in range(30):
            df, dg = rng.randint(1, 2), rng.randint(1, 2)
            f = random_homogeneous(rng, df)
            g = random_homogeneous(rng, dg)
            for x in (X1, X2):
                lhs = act(x, f * g, images, conv)
                sign = -1 if (conv == GRADED and df % 2 == 1) else 1
                rhs = act(x, f, images, conv) * g + f * act(x, g, images, conv) * sign
                assert lhs == rhs


def test_act_refuses_an_unknown_convention():
    images = derivation_images(THEOREM1_PARAMS, GRADED)
    with pytest.raises(ValueError, match="unknown sign convention 'odd'"):
        act(X1, Element.gen(U1), images, "odd")


def test_act_rejects_inhomogeneous():
    images = derivation_images(THEOREM1_PARAMS, GRADED)
    with pytest.raises(ValueError):
        act(X1, Element.gen(U1) + Element.unit(), images, GRADED)


def test_structural_identities_of_the_action():
    # x1 advances tau by one step; x2 produces the rho relation; both
    # annihilate the rho family.  These are the identities that make the
    # ideal stable, checked symbolically here.
    for conv in (GRADED, UNGRADED):
        for params in (THEOREM1_PARAMS, Params(1, 2, 3, 4, 5, 6)):
            images = derivation_images(params, conv)
            seq = {m: am for m, am, _ in coeff_sequence(params, 4)}
            for m in (2, 3):
                assert act(X1, tau(m, params, conv), images, conv) == tau(m + 1, params, conv)
                assert act(X2, tau(m, params, conv), images, conv) == rho(4, m + 1, conv) * seq[m]
                assert act(X1, rho(4, m, conv), images, conv).is_zero()
                assert act(X2, rho(4, m, conv), images, conv).is_zero()


def test_preserves_ideal_both_conventions():
    for conv in (GRADED, UNGRADED):
        rels = relation_set_E(THEOREM1_PARAMS, 3, conv)
        report = check_preserves_ideal(derivation_images(THEOREM1_PARAMS, conv), rels, 3)
        assert report["ok"]
        assert len(report["checks"]) == 2  # only tau_2 has degree <= 2


def test_corrupted_action_fails_preservation():
    t2 = theorem2_params([2, 3, 5])
    rels = relation_set_E(t2, 3, GRADED)
    bad = {**derivation_images(t2, GRADED), (X1, U1): bracket(Element.gen(U1), Element.gen(V), GRADED)}
    report = check_preserves_ideal(bad, rels, 3)
    assert not report["ok"]
    # with a = 0 the dropped term is zero, so the corruption must zero the image instead
    bad1 = {**derivation_images(THEOREM1_PARAMS, GRADED), (X1, U1): Element.zero()}
    rels1 = relation_set_E(THEOREM1_PARAMS, 3, GRADED)
    assert not check_preserves_ideal(bad1, rels1, 3)["ok"]


def test_semi_tensor_dimensions_degree_2():
    report = semi_tensor_dimension_check(THEOREM1_PARAMS, "Q", 2, GRADED)
    assert report["ok"]
    degree2 = report["degrees"][2]
    assert degree2["ax_dim"] == 51 and degree2["expected_dim"] == 35 + 12 + 4
    assert report["degrees"][0]["ax_dim"] == 1


def test_select_convention_small():
    report = select_convention()
    assert set(report["passing"]) == {"graded", "ungraded"}
    assert report["selected_default"] == "graded"


def test_semi_tensor_identity_through_degree_5():
    report = semi_tensor_dimension_check(THEOREM1_PARAMS, "Q", 5, GRADED)
    assert [d["n"] for d in report["degrees"]] == list(range(6))
    assert all(d["dims_ok"] and d["divisors_ok"] for d in report["degrees"])
    assert report["ok"]
