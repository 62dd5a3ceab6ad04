"""Consolidated consistency suite over every component of the package.

Each check returns a named pass/fail record; `run_verification` strings
them together and also carries the sign-convention selection report.
The suite enforces the module invariants: closed forms of the
coefficient recurrence, two-oracle Smith-form agreement, the closed-form
count against the Smith form, element orders, divisor bookkeeping, ideal
preservation by the derivations (with mutation probes), the
twisted-tensor identities, the Poincare transform sanity cases, and the
number-theoretic classification sweeps.

The claimed always-torsion residue classes are deliberately NOT an
invariant here: the census measures them and the report records the
counterexamples (p = 103 is the smallest in class 7, p = 41 the
smallest in class 17).
"""

from __future__ import annotations

import sys

from . import count, numtheory, snf
from .action import check_preserves_ideal, select_convention
from .count import counted_dimensions, counted_pieces
from .freealg import CONVENTIONS, Element, GRADED, U1, U2, U3, V, W, X1, bracket, word_rank
from .presentation import (
    AX_DEFAULT_DEGREE,
    E_DEFAULT_DEGREE,
    E_NUM_GENS,
    Params,
    THEOREM1_PARAMS,
    coeff_sequence,
    derivation_images,
    format_relation_set,
    parse_relation_set,
    relation_set_AX,
    relation_set_E,
    rho,
    tau,
)
from .quotient import dimension, element_order, graded_piece, ideal_spanning_matrix, torsion_primes_up_to
from .series import invert_series, roos_poincare


def check_recurrence_closed_forms() -> dict:
    """a_m = 2 + 3^m (reference family) and a_m = 1 + a(m-2) (product family)."""
    ok = True
    for m, am, bm in coeff_sequence(THEOREM1_PARAMS, 40):
        ok = ok and am == 2 + 3**m and bm == 2 + 3 ** (m - 1)
    for a in (7, 30, 0, 1):
        params = Params(a=a, b=1, c=0, d=0, a2=1, b2=0)
        for m, am, bm in coeff_sequence(params, 40):
            ok = ok and am == 1 + a * (m - 2) and bm == 0
    return {"name": "recurrence-closed-forms", "ok": ok}


def check_presentation_consistency() -> dict:
    """The 13th quadratic relation is [u1,w] + a2[u2,w] + b2[u3,w]; degrees are as advertised."""
    ok = True
    samples = [THEOREM1_PARAMS, Params(30, 1, 0, 0, 1, 0), Params(1, 2, 3, 4, 5, 6), Params(0, 0, 0, 0, 0, 0)]
    for params in samples:
        for conv in CONVENTIONS:
            u1w, u2w, u3w = (bracket(Element.gen(g), Element.gen(W), conv) for g in (U1, U2, U3))
            tau2 = u1w + u2w * params.a2 + u3w * params.b2
            ok = ok and relation_set_AX(params, conv).relations[12].element == tau2
            rels = relation_set_E(params, 4, conv)
            for rel in rels.relations:
                ok = ok and rel.element.degree() == rel.degree
            for rel in relation_set_AX(params, conv).relations:
                ok = ok and rel.element.degree() == 2
    zero_case = relation_set_E(Params(0, 0, 0, 0, 0, 5), 3, GRADED)
    ok = ok and len(zero_case.warnings) == 1 and all("rho" not in r.tag for r in zero_case.relations)
    return {"name": "presentation-consistency", "ok": ok}


def check_snf_oracles() -> dict:
    """Sparse engine vs. the naive dense Smith form on every degree <= 3 matrix."""
    ok = True
    fixed = [
        ([[2, 0], [0, 4]], [2, 4]),
        ([[2, 4], [4, 8]], [2]),
        ([[1, 0], [0, 0]], [1]),
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156]),
    ]
    for mat, expected in fixed:
        rows = [{j: v for j, v in enumerate(r) if v} for r in mat]
        invs, _ = snf.smith_normal_form(rows)
        ok = ok and invs == expected and snf.invariant_factors_dense(mat) == expected
    for conv in CONVENTIONS:
        rels_e = relation_set_E(THEOREM1_PARAMS, 3, conv)
        rels_ax = relation_set_AX(THEOREM1_PARAMS, conv)
        for rels, degrees in ((rels_e, (2, 3)), (rels_ax, (2, 3))):
            for n in degrees:
                matrix = ideal_spanning_matrix(rels, n)
                invs, _ = snf.smith_normal_form(matrix.rows)
                dense = [[row.get(c, 0) for c in range(matrix.ncols)] for row in matrix.rows]
                ok = ok and snf.invariant_factors_dense(dense) == invs
    return {"name": "snf-oracle-agreement", "ok": ok}


def check_element_orders() -> dict:
    """Orders of the rho family, with the naive lattice search as oracle."""
    ok = True
    for conv in CONVENTIONS:
        rels = relation_set_E(THEOREM1_PARAMS, 4, conv)
        ok = ok and element_order(rho(4, 3, conv), rels, 3) == 11
        ok = ok and element_order(rho(4, 4, conv), rels, 4) == 29
        ok = ok and element_order(rho(4, 2, conv), rels, 2) is None
        ok = ok and element_order(tau(2, THEOREM1_PARAMS, conv), rels, 2) == 1
        matrix = ideal_spanning_matrix(rels, 3)
        vec = {word_rank(wd, rels.num_gens): c for wd, c in rho(4, 3, conv).terms.items()}
        ok = ok and snf.naive_order_in_quotient(matrix.rows, matrix.ncols, vec, 11) == 11
    return {"name": "element-orders", "ok": ok}


def check_torsion_divisors() -> dict:
    """Every divisor prime in degrees <= 5 divides some a_m, m <= 4; no 13-torsion."""
    ok = True
    allowed = set()
    for m, am, _ in coeff_sequence(THEOREM1_PARAMS, E_DEFAULT_DEGREE - 1):
        allowed.update(numtheory.factorize(am))
    for conv in CONVENTIONS:
        rels = relation_set_E(THEOREM1_PARAMS, E_DEFAULT_DEGREE, conv)
        for n in range(E_DEFAULT_DEGREE + 1):
            piece = graded_piece(rels, n)
            for d in piece.divisors:
                ok = ok and set(numtheory.factorize(d)) <= allowed
            ok = ok and dimension(rels, n, 13) == piece.free_rank
    return {"name": "torsion-divisors", "ok": ok}


def check_torsion_report() -> dict:
    """The report `torsion-primes` prints, from the parameters, at E4 and AX3."""
    report_e = torsion_primes_up_to("E", THEOREM1_PARAMS, 4, GRADED)
    report_ax = torsion_primes_up_to("AX", THEOREM1_PARAMS, 3, GRADED)
    ok = (
        report_e.agree
        and report_e.computed_primes == [11, 29]
        and report_ax.agree
        and report_ax.computed_primes == [11]
    )
    return {"name": "torsion-report-agreement", "ok": ok}


def check_action_preservation() -> dict:
    """Ideal preservation for both parameter families, plus mutation probes."""
    ok = True
    t2 = numtheory.theorem2_params([2, 3, 5])
    for conv in CONVENTIONS:
        for params in (THEOREM1_PARAMS, t2):
            rels = relation_set_E(params, 4, conv)
            ok = ok and check_preserves_ideal(derivation_images(params, conv), rels, 4)["ok"]
        # corrupting x1*u1 must break preservation; with a = 0 dropping the
        # a-term is a no-op, so the reference family gets a zeroed image
        bad2 = {**derivation_images(t2, conv), (X1, U1): bracket(Element.gen(U1), Element.gen(V), conv)}
        ok = ok and not check_preserves_ideal(bad2, relation_set_E(t2, 4, conv), 4)["ok"]
        bad1 = {**derivation_images(THEOREM1_PARAMS, conv), (X1, U1): Element.zero()}
        ok = ok and not check_preserves_ideal(bad1, relation_set_E(THEOREM1_PARAMS, 4, conv), 4)["ok"]
    return {"name": "action-preserves-ideal", "ok": ok}


def check_roos_transform() -> dict:
    """Sanity cases of the Poincare transform plus integrality on real data."""
    ok = roos_poincare(invert_series([1, -8, 0, 0, 0])) == [1, 8, 64, 525, 4304]
    rhs_trivial = invert_series(roos_poincare([1, 0, 0, 0]))
    ok = ok and rhs_trivial[2] == 8 and rhs_trivial[3] == -13
    rels = relation_set_AX(THEOREM1_PARAMS, GRADED)
    p13 = roos_poincare([dimension(rels, n, 13) for n in range(AX_DEFAULT_DEGREE + 1)])
    ok = ok and all(isinstance(c, int) and c >= 0 for c in p13)
    return {"name": "roos-transform", "ok": ok}


def check_residue_rule_soundness() -> dict:
    """The sound rule's classes (13 and 23 mod 24): exhaustive walks find no witness below 10^5."""
    ok = True
    for p in numtheory.sieve_primes(100_000):
        if p % 24 in numtheory.SOUND_RULE_CLASSES:
            ok = ok and numtheory.power_witness(p) is None
    return {"name": "residue-rule-soundness", "ok": ok}


def check_recurrence_power_agreement() -> dict:
    """Recurrence walk, power walk and the order-test classifier agree
    prime by prime, witness by witness, below 10^4."""
    ok = True
    for q in numtheory.sieve_primes(10_000):
        if q in (2, 3):
            ok = ok and numtheory.divides_some_am(THEOREM1_PARAMS, q) is None
            continue
        m_rec = numtheory.divides_some_am(THEOREM1_PARAMS, q)
        m_pow = numtheory.power_witness(q)
        cls = numtheory.classify_prime_theorem1(q)
        ok = ok and m_rec == m_pow == cls.witness and (cls.verdict == "torsion") == (m_pow is not None)
        if m_rec is not None:
            ok = ok and (2 + 3**m_rec) % q == 0
    return {"name": "recurrence-power-agreement", "ok": ok}


def check_census() -> dict:
    """Census bookkeeping below 10^5.

    Verifies the sound facts: every invertible class holds at least 1000
    primes, classes 13 and 23 show zero torsion, and the documented
    smallest counterexamples to the claimed positive rule (41 and 103)
    are measured as such.  Measured per-class rates ride along as data.
    """
    rows = numtheory.census(100_000)
    by_class = {row.residue: row for row in rows}
    ok = set(by_class) == {1, 5, 7, 11, 13, 17, 19, 23}
    for row in rows:
        ok = ok and row.count >= 1000 and row.torsion + row.non_torsion == row.count
    ok = ok and by_class[13].torsion == 0 and by_class[23].torsion == 0
    ok = ok and 41 in by_class[17].discrepancies and 103 in by_class[7].discrepancies
    rates = {
        r.residue: f"{r.torsion}/{r.count}" for r in rows
    }
    return {"name": "census-dirichlet", "ok": ok, "measured_torsion_rates": rates}


def check_theorem2_instances() -> dict:
    """Excluded-prime families: torsion iff the prime is outside the set."""
    ok = True
    params = numtheory.theorem2_params([2, 3, 5])
    for q in numtheory.sieve_primes(1000):
        witness = numtheory.divides_some_am(params, q)
        ok = ok and (witness is None) == (q in (2, 3, 5))
    params7 = numtheory.theorem2_params([7])
    for q in numtheory.sieve_primes(200):
        ok = ok and (numtheory.divides_some_am(params7, q) is None) == (q == 7)
    return {"name": "theorem2-instances", "ok": ok}


def check_convention_comparison() -> dict:
    """Do the two sign conventions produce the same graded groups?

    Not assumed anywhere; measured on every computed degree and reported.
    """
    identical = True
    for n in range(E_DEFAULT_DEGREE + 1):
        pieces = [graded_piece(relation_set_E(THEOREM1_PARAMS, E_DEFAULT_DEGREE, conv), n) for conv in CONVENTIONS]
        identical = identical and pieces[0] == pieces[1]
    for n in range(AX_DEFAULT_DEGREE + 1):
        pieces = [graded_piece(relation_set_AX(THEOREM1_PARAMS, conv), n) for conv in CONVENTIONS]
        identical = identical and pieces[0] == pieces[1]
    return {"name": "convention-comparison", "ok": True, "identical_graded_groups": identical}


def check_count_oracle_agreement() -> dict:
    """The closed-form count equals its oracles at E <= 5 and AX <= 4, in both conventions.

    The shapes read off the parameters equal `relation_shapes` of the
    built E set.  The count runs once per algebra, since it reads no
    convention; its pieces equal the Smith form of each convention's
    built set, and its dimensions over F_13 and F_11 that set's mod-p
    rank.  Runs after the checks that compute the Smith forms and most
    of these ranks, so it reads them from the cache.
    """
    ok = True
    for algebra, top in (("E", E_DEFAULT_DEGREE), ("AX", AX_DEFAULT_DEGREE)):
        pieces = counted_pieces(algebra, THEOREM1_PARAMS, top)
        dims = {p: counted_dimensions(algebra, THEOREM1_PARAMS, p, top) for p in (13, 11)}
        for conv in CONVENTIONS:
            if algebra == "AX":
                rels = relation_set_AX(THEOREM1_PARAMS, conv)
            else:
                rels = relation_set_E(THEOREM1_PARAMS, top, conv)
                try:
                    ok = ok and count.generated_shapes(THEOREM1_PARAMS, top) == count.relation_shapes(rels)
                except count.HypothesisError:
                    return {"name": "count-oracle-agreement", "ok": False}
            ok = ok and pieces == [graded_piece(rels, n) for n in range(top + 1)]
            for p, counted in dims.items():
                ok = ok and counted == [dimension(rels, n, p) for n in range(top + 1)]
    return {"name": "count-oracle-agreement", "ok": ok}


def check_relations_file(path: str) -> dict:
    """Re-parse an exported relation file and compare against construction."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parsed = parse_relation_set(text)
        if parsed.num_gens == E_NUM_GENS:
            if parsed.max_degree() < 2:  # export-relations writes no E set below degree 2
                raise ValueError("an E relation file needs a relation of degree 2 or more")
            built = relation_set_E(parsed.params, parsed.max_degree(), parsed.convention)
        else:
            built = relation_set_AX(parsed.params, parsed.convention)
        ok = format_relation_set(built) == format_relation_set(parsed)
    except (OSError, ValueError, KeyError) as exc:
        return {"name": "relations-file", "ok": False, "error": str(exc)}
    return {"name": "relations-file", "ok": ok}


def run_verification(relations_path: str | None = None, quiet: bool = False) -> dict:
    """Run every check; returns {"checks", "convention_selection", "ok"}.

    Unless quiet, one progress line goes to stderr before each check;
    the checks themselves print nothing.
    """
    selection = {}

    def check_convention_selection() -> dict:
        selection.update(select_convention())
        return {
            "name": "convention-selection",
            "ok": selection["selected_default"] is not None,
            "passing": selection["passing"],
            "selected_default": selection["selected_default"],
        }

    def check_given_relations_file() -> dict:
        return check_relations_file(relations_path)

    steps = [
        check_recurrence_closed_forms,
        check_presentation_consistency,
        check_snf_oracles,
        check_element_orders,
        check_torsion_divisors,
        check_torsion_report,
        check_action_preservation,
        check_convention_selection,
        check_roos_transform,
        check_residue_rule_soundness,
        check_recurrence_power_agreement,
        check_census,
        check_theorem2_instances,
        check_convention_comparison,
        check_count_oracle_agreement,
    ]
    if relations_path is not None:
        steps.append(check_given_relations_file)
    checks = []
    for step in steps:
        if not quiet:
            print(step.__name__.removeprefix("check_").replace("_", " "), file=sys.stderr, flush=True)
        checks.append(step())
    return {
        "checks": checks,
        "convention_selection": selection,
        "ok": all(c["ok"] for c in checks),
    }
