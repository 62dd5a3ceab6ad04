"""The derivation action of x1, x2 and the twisted-tensor identification.

x1 and x2 act on the inner algebra by derivations determined by their
values on generators.  A derivation is that table of images, the dict
`presentation.derivation_images` returns; `check_preserves_ideal` lets
it act under the sign convention of the relation set it checks.  The
action is engineered so that x1 sends tau_m to tau_{m+1} and x2 sends
tau_m to a_m * rho(4, m+1), which is why the relation ideal is
preserved.  At the level of graded abelian groups this identifies the
full algebra with the free algebra on x1, x2 tensored with the inner
algebra, giving the dimension identity

    dim AX_n = sum over i+j=n of 2^i * dim E_j

over any coefficient field, along with the matching identity for
elementary-divisor multisets over the integers.

The bracket sign convention is nowhere pinned down by the construction
itself, so `select_convention` runs the consistency suite under both
conventions, reports which survive, and holds the package's declared
default, `freealg.DEFAULT_CONVENTION`, to passing it.
"""

from __future__ import annotations

from .freealg import CONVENTIONS, DEFAULT_CONVENTION, GRADED, Element, X1, X2, check_convention
from .presentation import (
    Params,
    RelationSet,
    THEOREM1_PARAMS,
    derivation_images,
    relation_set_AX,
    relation_set_E,
)
from .quotient import dimension, element_order, graded_piece

_X_NAMES = {X1: "x1", X2: "x2"}


def act(x: int, f: Element, images: dict, convention: str) -> Element:
    """Apply a derivation to a homogeneous element by the Leibniz rule.

    `images` maps each (x, generator) to its image, as
    `presentation.derivation_images` builds it; a changed table probes a
    corrupted action.

    graded:   x*(fg) = (x*f) g + (-1)^{|f|} f (x*g);
    ungraded: x*(fg) = (x*f) g + f (x*g).
    """
    check_convention(convention)
    if x not in (X1, X2):
        raise ValueError("the acting generator must be x1 or x2")
    if not f.is_homogeneous():
        raise ValueError("the action is defined degreewise; element is not homogeneous")
    graded = convention == GRADED
    out: dict = {}
    for word, coeff in f.terms.items():
        for k, g in enumerate(word):
            img = images[(x, g)]
            if not img.terms:
                continue
            c = -coeff if (graded and k % 2 == 1) else coeff
            prefix = word[:k]
            suffix = word[k + 1 :]
            for iw, ic in img.terms.items():
                w = prefix + iw + suffix
                s = out.get(w, 0) + c * ic
                if s:
                    out[w] = s
                else:
                    del out[w]
    return Element(out)


def check_preserves_ideal(images: dict, rels: RelationSet, maxdeg: int) -> dict:
    """Whether x1 and x2 map each relation into the ideal, integrally.

    The derivations act by the generator images `images` under the sign
    convention of `rels`.  For every relation s of degree <= maxdeg - 1
    and each derivation, tests membership of the image in the integer
    row span of the ideal in degree deg(s) + 1 (order 1 in the
    quotient).  Membership over the integers, not just the rationals, is
    what makes the induced action on the quotient well defined over Z.
    """
    if maxdeg < 2:
        raise ValueError("maxdeg must be at least 2")
    checks = []
    ok = True
    for rel in rels.relations:
        if rel.degree > maxdeg - 1:
            continue
        for x in (X1, X2):
            img = act(x, rel.element, images, rels.convention)
            member = img.is_zero() or element_order(img, rels, rel.degree + 1) == 1
            ok = ok and member
            checks.append(
                {"x": _X_NAMES[x], "relation": rel.tag, "degree": rel.degree + 1, "in_ideal": member}
            )
    return {"convention": rels.convention, "checks": checks, "ok": ok}


def semi_tensor_dimension_check(params: Params, field, max_degree: int, convention: str) -> dict:
    """Degreewise comparison of the full algebra with Z<x1,x2> (x) E.

    Verifies dim AX_n = sum_{i+j=n} 2^i dim E_j over the given field for
    n <= max_degree, and the integer-level identity matching the
    elementary-divisor multisets on both sides.
    """
    rels_ax = relation_set_AX(params, convention)
    rels_e = relation_set_E(params, max_degree, convention)
    dims_e = [dimension(rels_e, j, field) for j in range(max_degree + 1)]
    degrees = []
    ok = True
    for n in range(max_degree + 1):
        ax_dim = dimension(rels_ax, n, field)
        expected = sum((1 << i) * dims_e[n - i] for i in range(n + 1))
        ax_div = sorted(graded_piece(rels_ax, n).divisors)
        expected_div: list[int] = []
        for i in range(n + 1):
            expected_div.extend((1 << i) * list(graded_piece(rels_e, n - i).divisors))
        expected_div.sort()
        dims_ok = ax_dim == expected
        div_ok = ax_div == expected_div
        ok = ok and dims_ok and div_ok
        degrees.append(
            {
                "n": n,
                "ax_dim": ax_dim,
                "expected_dim": expected,
                "dims_ok": dims_ok,
                "ax_divisors": ax_div,
                "expected_divisors": expected_div,
                "divisors_ok": div_ok,
            }
        )
    return {"convention": convention, "field": str(field), "degrees": degrees, "ok": ok}


def select_convention() -> dict:
    """Run the consistency suite under both conventions and pick a default.

    A convention passes when, for the reference parameters, the
    derivations preserve the ideal for all relations of degree < 4 and
    the twisted-tensor dimension and divisor identities hold over Q,
    F_5, F_11 and F_13 up to degree 4.  The selected default is the
    declared `DEFAULT_CONVENTION` when it passes and None otherwise,
    whatever the other convention does.
    """
    entries = []
    passing = []
    for convention in CONVENTIONS:
        rels_e = relation_set_E(THEOREM1_PARAMS, 4, convention)
        preserves = check_preserves_ideal(derivation_images(THEOREM1_PARAMS, convention), rels_e, 4)
        semi = [semi_tensor_dimension_check(THEOREM1_PARAMS, f, 4, convention) for f in ("Q", 5, 11, 13)]
        ok = preserves["ok"] and all(s["ok"] for s in semi)
        if ok:
            passing.append(convention)
        entries.append(
            {
                "convention": convention,
                "preserves_J": preserves["checks"],
                "semi_tensor": semi,
                "ok": ok,
            }
        )
    selected = DEFAULT_CONVENTION if DEFAULT_CONVENTION in passing else None
    return {"conventions": entries, "passing": passing, "selected_default": selected}
