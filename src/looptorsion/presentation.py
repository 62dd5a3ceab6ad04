"""Relation families presenting the two graded algebras under study.

Six integer parameters (a, b, c, d, a2, b2) drive everything:

* an affine integer recurrence producing coefficient pairs (a_m, b_m)
  (`coeff_sequence`; it, the record `Params` and the reference instance
  `THEOREM1_PARAMS` live in `numtheory`, which needs no algebra, and
  are the same objects here);
* iterated-bracket elements sigma, rho, tau in the inner algebra on
  u1..u4, v, w;
* the relation family S = {tau_m} u {a_m * rho_{4,m+1}} presenting the
  inner algebra E as a quotient of the free algebra;
* `GeneratedFamily`, which names a generated E or AX set by its
  parameters without building an element, for the closed-form count;
* the images of u1..u4, v, w under the derivations x1, x2, and from
  them the thirteen quadratic relations [x, g] - x*g and tau_2
  presenting the full 8-generator algebra AX, which the `action` module
  identifies degreewise with a twisted tensor product of Z<x1,x2> and E.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .freealg import (
    DEFAULT_CONVENTION,
    Element,
    U1,
    U2,
    U3,
    U4,
    V,
    W,
    X1,
    X2,
    bracket,
    check_convention,
    format_element,
    parse_element,
    GENERATOR_NAMES,
)
from .numtheory import THEOREM1_PARAMS, Params, coeff_sequence  # also read from here by callers

E_NUM_GENS = 6
AX_NUM_GENS = 8
#: Truncation degrees the commands use when no --max-degree is given.
E_DEFAULT_DEGREE = 5
AX_DEFAULT_DEGREE = 4


@lru_cache(maxsize=None)
def sigma(i: int, m: int, convention: str = DEFAULT_CONVENTION) -> Element:
    """Iterated bracket with v: sigma(i,1) = u_i, sigma(i,m+1) = [sigma(i,m), v]."""
    if not 1 <= i <= 4:
        raise ValueError("i must be in 1..4")
    if m < 1:
        raise ValueError("m must be at least 1")
    if m == 1:
        return Element.gen(i - 1)
    return bracket(sigma(i, m - 1, convention), Element.gen(V), convention)


def rho(i: int, m: int, convention: str = DEFAULT_CONVENTION) -> Element:
    """One bracket with w on top of sigma: rho(i,m) = [sigma(i,m-1), w]."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return bracket(sigma(i, m - 1, convention), Element.gen(W), convention)


def tau(m: int, params: Params, convention: str = DEFAULT_CONVENTION) -> Element:
    """tau_m = rho(1,m) + a_m*rho(2,m) + b_m*rho(3,m)."""
    if m < 2:
        raise ValueError("m must be at least 2")
    _, am, bm = coeff_sequence(params, m)[-1]
    return rho(1, m, convention) + rho(2, m, convention) * am + rho(3, m, convention) * bm


Relation = namedtuple("Relation", "tag element degree")


class RelationSet(namedtuple("RelationSet", "num_gens params convention relations warnings", defaults=((),))):
    """Homogeneous relations over the first num_gens generators.

    Every relation carries a provenance tag so torsion found downstream
    can be traced back to the relation family that produced it.
    `relations` is a tuple of `Relation`, `warnings` a tuple of strings.
    """

    __slots__ = ()

    def max_degree(self) -> int:
        return max((r.degree for r in self.relations), default=0)


def _omitted_relation_warning(m: int) -> str:
    """The warning of a relation set from which a_m = 0 drops a_m * rho(4, m+1)."""
    return (
        f"a_{m} = 0: relation a_{m}*rho_{{4,{m + 1}}} is zero and was omitted; "
        f"no torsion is predicted in degree {m + 1} from it"
    )


def relation_set_E(params: Params, maxdeg: int, convention: str = DEFAULT_CONVENTION) -> RelationSet:
    """The family S presenting the inner algebra, truncated at maxdeg.

    Holds every relation of degree <= maxdeg: tau_m for 2 <= m <= maxdeg
    and a_m * rho(4, m+1) for 3 <= m+1 <= maxdeg.  The family starts in
    degree 2, so any maxdeg < 2 gives no relation.  When a_m = 0 the rho
    relation is the zero element; it is omitted and a warning recorded,
    since the torsion prediction for that index no longer applies.
    An unknown convention is refused at every maxdeg.
    """
    check_convention(convention)
    seq = {m: (am, bm) for m, am, bm in coeff_sequence(params, maxdeg)}
    rels = []
    warnings = []
    for m in range(2, maxdeg + 1):
        rels.append(Relation(f"tau_{m}", tau(m, params, convention), m))
    for m in range(2, maxdeg):
        am = seq[m][0]
        if am == 0:
            warnings.append(_omitted_relation_warning(m))
            continue
        rels.append(Relation(f"a_{m}*rho_{{4,{m + 1}}}", rho(4, m + 1, convention) * am, m + 1))
    return RelationSet(E_NUM_GENS, params, convention, tuple(rels), tuple(warnings))


class GeneratedFamily(namedtuple("GeneratedFamily", "algebra params convention maxdeg warnings")):
    """The generated relation set of E or AX, named by its parameters; no element is built.

    It stands in for the `RelationSet` that `relation_set_E` or
    `relation_set_AX` would build, where a reader needs only the
    parameters: the closed-form count in `count` reads the relation
    shapes off `params`.  `algebra` is "E" or "AX"; `maxdeg` is the E
    set's truncation (None for AX, whose set has none); `warnings` are
    the built set's.
    """

    __slots__ = ()


def generated_family(
    algebra: str, params: Params, maxdeg: int, convention: str = DEFAULT_CONVENTION
) -> GeneratedFamily:
    """The family of the set that `relation_set_E` ("E") or `relation_set_AX` ("AX") would build.

    The E set is truncated at maxdeg; the AX set ignores it.  Refuses an
    unknown convention, as the builders do.  The E warnings are
    `relation_set_E`'s, one for each a_m = 0 with 2 <= m <= maxdeg - 1;
    the AX set has none.
    """
    check_convention(convention)
    if algebra == "AX":
        return GeneratedFamily(algebra, params, convention, None, ())
    if algebra != "E":
        raise ValueError(f"unknown algebra {algebra!r}")
    zeros = (m for m, am, _ in coeff_sequence(params, maxdeg - 1) if am == 0)
    return GeneratedFamily(algebra, params, convention, maxdeg, tuple(map(_omitted_relation_warning, zeros)))


#: The (x, generator) pair of each bracket relation AX_1..AX_12, in export order.
_AX_SLOTS = tuple((X1, g) for g in (U1, U2, U3, U4, V, W)) + tuple((X2, g) for g in (U1, U3, U4, V, W, U2))


def derivation_images(params: Params, convention: str) -> dict:
    """Images x*g of the inner generators under the derivations x1, x2.

    Maps every (x, g) to a degree-2 element, zero unless listed below.
    The values make x1 send tau_m to tau_{m+1} and x2 send tau_m to
    a_m * rho(4, m+1), which is why the action preserves the ideal of E.
    """
    images = {(x, g): Element.zero() for x in (X1, X2) for g in range(E_NUM_GENS)}
    images[(X1, U1)] = sigma(1, 2, convention) + sigma(2, 2, convention) * params.a
    images[(X1, U2)] = sigma(2, 2, convention) * params.b + sigma(3, 2, convention) * params.d
    images[(X1, U3)] = sigma(2, 2, convention) * params.c
    images[(X2, U2)] = sigma(4, 2, convention)
    return images


def relation_set_AX(params: Params, convention: str = DEFAULT_CONVENTION) -> RelationSet:
    """The thirteen quadratic relations presenting the full algebra.

    AX_1..AX_12 are [x, g] - x*g, one for each slot of _AX_SLOTS, and
    AX_13 is tau_2.
    """
    images = derivation_images(params, convention)
    elems = [bracket(Element.gen(x), Element.gen(g), convention) - images[(x, g)] for x, g in _AX_SLOTS]
    elems.append(tau(2, params, convention))
    rels = tuple(Relation(f"AX_{k}", e, 2) for k, e in enumerate(elems, start=1))
    return RelationSet(AX_NUM_GENS, params, convention, rels)


def format_relation_set(rels: RelationSet) -> str:
    """Plain-text export: a header line, then one relation per line.

    The header records generator names, parameters, sign convention and
    the provenance tags in order; body lines use the element text format.
    """
    names = " ".join(GENERATOR_NAMES[: rels.num_gens])
    tags = "; ".join(r.tag for r in rels.relations)  # tags may contain commas
    header = f"# generators: {names} | params: {rels.params} | convention: {rels.convention} | tags: {tags}"
    lines = [header]
    lines.extend(format_element(r.element) for r in rels.relations)
    return "\n".join(lines) + "\n"


def parse_relation_set(text: str) -> RelationSet:
    """Inverse of format_relation_set."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# generators:"):
        raise ValueError("missing relation-set header")
    head = lines[0][1:].strip()
    fields = dict(part.strip().split(": ", 1) for part in head.split(" | "))
    names = fields["generators"].split()
    num_gens = len(names)
    pvals = dict(kv.split("=") for kv in fields["params"].split())
    keys = Params._fields
    if set(pvals) != set(keys):
        raise ValueError(f"params must set exactly {' '.join(keys)}")
    params = Params(**{k: int(v) for k, v in pvals.items()})
    convention = fields["convention"]
    tags = fields["tags"].split("; ") if fields["tags"] else []
    if len(tags) != len(lines) - 1:
        raise ValueError("tag count does not match relation count")
    rels = []
    for tag, line in zip(tags, lines[1:]):
        elem = parse_element(line, num_gens)
        if elem.is_zero():
            raise ValueError(f"relation {tag} is zero")
        rels.append(Relation(tag, elem, elem.degree()))
    return RelationSet(num_gens, params, convention, tuple(rels))
