from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptorsion.freealg import (
    Element,
    GRADED,
    UNGRADED,
    U1,
    U2,
    V,
    W,
    bracket,
    format_element,
    parse_element,
    word_rank,
)


def random_element(rng, num_gens=3, max_degree=2, nterms=3) -> Element:
    terms = {}
    for _ in range(nterms):
        n = rng.randint(0, max_degree)
        word = tuple(rng.randrange(num_gens) for _ in range(n))
        terms[word] = rng.randint(-4, 4)
    return Element(terms)


def random_homogeneous(rng, degree, num_gens=3, nterms=3) -> Element:
    terms = {}
    for _ in range(nterms):
        word = tuple(rng.randrange(num_gens) for _ in range(degree))
        terms[word] = rng.randint(-4, 4)
    return Element(terms)


def test_word_rank_is_the_lexicographic_position():
    ws = list(product(range(3), repeat=2))
    assert all(word_rank(w, 3) == i for i, w in enumerate(ws))


def test_multiply_examples():
    u1, v, w = Element.gen(U1), Element.gen(V), Element.gen(W)
    assert u1 * v == Element({(U1, V): 1})
    f = u1 + v * 2
    assert f * Element.unit() == f
    assert (u1 + Element.gen(U2)) * w == Element({(U1, W): 1, (U2, W): 1})


def test_multiply_degree_adds():
    u1, v = Element.gen(U1), Element.gen(V)
    assert (u1 * v * v).degree() == 3


def test_bracket_examples():
    u1, v = Element.gen(U1), Element.gen(V)
    assert bracket(u1, v, GRADED) == Element({(U1, V): 1, (V, U1): 1})
    assert bracket(u1, v, UNGRADED) == Element({(U1, V): 1, (V, U1): -1})
    f = u1 + v * 3
    assert bracket(f, f, UNGRADED).is_zero()


def test_bracket_rejects_inhomogeneous():
    f = Element.gen(U1) + Element.unit()
    with pytest.raises(ValueError):
        bracket(f, Element.gen(V))


def test_bracket_unknown_convention():
    with pytest.raises(ValueError):
        bracket(Element.gen(U1), Element.gen(V), "sideways")


def test_multiply_associative_and_unital():
    rng = random.Random(7)
    for _ in range(40):
        f, g, h = (random_element(rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * Element.unit() == f == Element.unit() * f


def test_multiply_distributes():
    rng = random.Random(11)
    for _ in range(40):
        f, g, h = (random_element(rng) for _ in range(3))
        assert f * (g + h) == f * g + f * h


def test_bracket_symmetry_laws():
    rng = random.Random(13)
    for _ in range(50):
        df, dg = rng.randint(0, 2), rng.randint(0, 2)
        f = random_homogeneous(rng, df)
        g = random_homogeneous(rng, dg)
        assert (bracket(f, g, UNGRADED) + bracket(g, f, UNGRADED)).is_zero()
        sign = -1 if (df * dg) % 2 else 1
        assert (bracket(f, g, GRADED) + bracket(g, f, GRADED) * sign).is_zero()


def test_zero_coefficients_never_stored():
    e = Element({(0,): 2}) + Element({(0,): -2})
    assert e.is_zero() and e.terms == {}
    assert (Element.gen(U1) * 0).is_zero()


def test_format_examples():
    e = Element({(U2, V): -3, (V, U2): 3})
    assert format_element(e) == "-3*u2.v + 3*v.u2"
    assert format_element(Element.zero()) == "0"
    assert format_element(Element.unit() * 7) == "7*1"


def test_format_orders_terms_length_lex():
    e = Element({(V,): 1, (U1, U1): 1, (U1,): 1})
    assert format_element(e) == "1*u1 + 1*v + 1*u1.u1"


def test_parse_round_trip():
    rng = random.Random(17)
    for _ in range(60):
        e = random_element(rng, num_gens=8, max_degree=3)
        assert parse_element(format_element(e)) == e
        assert format_element(parse_element(format_element(e))) == format_element(e)


def elements(num_gens, max_degree=3):
    """Hypothesis strategy: elements over the first num_gens generators."""
    words = st.lists(st.integers(0, num_gens - 1), max_size=max_degree).map(tuple)
    return st.dictionaries(words, st.integers(-(10**30), 10**30), max_size=6).map(Element)


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from((6, 8)).flatmap(lambda n: st.tuples(st.just(n), elements(n))))
def test_parse_inverts_format(case):
    num_gens, e = case
    assert parse_element(format_element(e), num_gens) == e


@settings(max_examples=100, deadline=None, database=None)
@given(elements(6), elements(6), elements(6))
def test_element_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert (f + (-f)).is_zero()


def test_parse_rejects_out_of_context_generator():
    with pytest.raises(ValueError):
        parse_element("1*x1.u1", num_gens=6)


def test_parse_rejects_garbage():
    # a coefficient that is not an integer is a malformed term, not int()'s "invalid literal"
    # so is an empty generator name or a trailing " + ", not an "unknown generator"
    for text in ("3 u1", "u1*u2 + u2*u1", "*u1", "+u1*u2", "x1*u1", "1*u1 + ", "1*u1.", "1*.u1", "1*u1..u2"):
        with pytest.raises(ValueError, match="^malformed term"):
            parse_element(text)
