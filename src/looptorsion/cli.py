"""Command-line front end with deterministic text and JSON reports.

Each subcommand takes only the flags it reads; an unknown flag is a
usage error.  Exit codes: 0 on success, 1 when a verification fails or
an internal check refuses the input, 2 on usage errors.  Long
computations write per-step progress to stderr only, so stdout stays
machine-parsable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import numtheory
from .count import HypothesisError
from .freealg import CONVENTIONS, DEFAULT_CONVENTION, format_element, parse_element
from .presentation import (
    AX_NUM_GENS,
    E_NUM_GENS,
    Params,
    THEOREM1_PARAMS,
    coeff_sequence,
    format_relation_set,
    relation_set_AX,
    relation_set_E,
    rho,
)
from .quotient import counted_dimensions, element_order, torsion_primes_up_to
from .series import PowerSeries, format_series, roos_poincare, series_json
from .verify import AX_DEFAULT_DEGREE, E_DEFAULT_DEGREE, run_verification


def _params_from(args) -> Params:
    if args.params and args.theorem2:
        raise ValueError("--params and --theorem2 are mutually exclusive")
    if args.params:
        values = [int(x) for x in args.params.split(",")]
        if len(values) != 6:
            raise ValueError("--params needs exactly six integers")
        return Params(*values)
    if args.theorem2:
        primes = [int(x) for x in args.theorem2.split(",") if x]
        return numtheory.theorem2_params(primes)
    return THEOREM1_PARAMS


def _relations(args, params: Params):
    if args.algebra == "AX":
        maxdeg = AX_DEFAULT_DEGREE if args.max_degree is None else args.max_degree
        return relation_set_AX(params, args.convention), maxdeg
    maxdeg = E_DEFAULT_DEGREE if args.max_degree is None else args.max_degree
    return relation_set_E(params, max(maxdeg, 2), args.convention), maxdeg


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2) + "\n")


def cmd_recurrence(args) -> int:
    params = _params_from(args)
    rows = coeff_sequence(params, args.M)
    if args.json:
        _emit_json(args, {"params": str(params), "rows": [{"m": m, "a_m": a, "b_m": b} for m, a, b in rows]})
    else:
        lines = [f"# {params}", f"{'m':>4} {'a_m':>24} {'b_m':>24}"]
        lines += [f"{m:>4} {a:>24} {b:>24}" for m, a, b in rows]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_torsion_primes(args) -> int:
    params = _params_from(args)
    rels, maxdeg = _relations(args, params)
    report = torsion_primes_up_to(rels, maxdeg)
    if args.json:
        _emit_json(args, report.to_json())
        return 0
    lines = [f"# algebra {args.algebra}, {params}, convention {rels.convention}, degrees <= {maxdeg}"]
    for piece in report.degrees:
        div = ",".join(map(str, piece.divisors)) or "-"
        lines.append(f"degree {piece.degree}: free rank {piece.free_rank}, divisors {div}")
    lines.append(f"computed torsion primes: {report.computed_primes}")
    lines.append(f"predicted torsion primes: {report.predicted_primes}")
    lines.append(f"agree: {report.agree}")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_classify(args) -> int:
    params = _params_from(args)
    # the residue rule and the power witness need p > 3; the recurrence
    # walk decides 2 and 3 as the general census does
    if params == THEOREM1_PARAMS and args.p not in (2, 3):
        cls = numtheory.classify_prime_theorem1(args.p)
        expectation = numtheory.RULE_EXPECTATION.get(args.p % 24)
    else:
        cls = numtheory.classify_prime_general(params, args.p)
        expectation = None
    payload = cls.to_json()
    payload["paper_expectation"] = expectation
    payload["expectation_discrepancy"] = expectation is not None and expectation != cls.verdict
    if args.json:
        _emit_json(args, payload)
        return 0
    lines = [
        f"p = {cls.prime}: {cls.verdict} ({cls.mechanism}"
        + (f", witness m = {cls.witness}" if cls.witness is not None else "")
        + ")",
        "residues: {mod24} mod 24, {mod12} mod 12, {mod8} mod 8".format(**payload["residues"]),
        f"legendre (3/p) = {payload['legendre3']}, (-2/p) = {payload['legendre_minus2']}",
    ]
    if expectation is not None:
        note = " [DISCREPANCY]" if payload["expectation_discrepancy"] else ""
        lines.append(f"residue-rule expectation: {expectation}{note}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_hilbert(args) -> int:
    params = _params_from(args)
    rels, maxdeg = _relations(args, params)
    try:
        field = args.field if args.field == "Q" else int(args.field)
    except ValueError:
        raise ValueError("--field must be Q or a prime") from None
    a_series = PowerSeries.from_coeffs(counted_dimensions(rels, field, maxdeg))
    payload = {"algebra": args.algebra, "field": str(field), "A": series_json(a_series)}
    lines = [f"A(t) [{args.algebra}, field {field}] = {format_series(a_series)}"]
    if args.algebra == "AX":
        g2, r4 = rels.num_gens, len(rels.relations)  # one 2-cell per generator, one 4-cell per relation
        p_series = roos_poincare(a_series, g2, r4)
        payload["P"] = series_json(p_series)
        lines.append(f"P(t) [loop space, g2={g2}, r4={r4}] = {format_series(p_series)}")
    if args.json:
        _emit_json(args, payload)
    else:
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_order(args) -> int:
    params = _params_from(args)
    if (args.rho is None) == (args.element is None):
        raise ValueError("give exactly one of --rho I,M or --element TEXT")
    if args.rho:
        i, m = (int(x) for x in args.rho.split(","))
        elem = rho(i, m, args.convention)
        label = f"rho({i},{m})"
    else:
        elem = parse_element(args.element, E_NUM_GENS if args.algebra == "E" else AX_NUM_GENS)
        label = format_element(elem)
    degree = elem.degree()
    if degree is None:
        raise ValueError("cannot take the order of the zero element")
    if args.algebra == "AX":
        rels = relation_set_AX(params, args.convention)
    else:
        rels = relation_set_E(params, max(degree, 2), args.convention)
    order = element_order(elem, rels, degree)
    rendered = "infinite" if order is None else str(order)
    if args.json:
        _emit_json(args, {"element": label, "degree": degree, "algebra": args.algebra, "order": rendered})
    else:
        _emit(args, f"order of {label} in {args.algebra} degree {degree}: {rendered}\n")
    return 0


def cmd_census(args) -> int:
    params = _params_from(args)
    if params == THEOREM1_PARAMS:
        rows = numtheory.census(args.bound, mode="theorem1")
    else:
        rows = numtheory.census(args.bound, mode="general", params=params)
    if args.json:
        _emit_json(args, [row.to_json() for row in rows])
    else:
        _emit(args, numtheory.census_table(rows))
    return 0


def cmd_theorem2(args) -> int:
    primes = [int(x) for x in args.primes.split(",") if x]
    params = numtheory.theorem2_params(primes)
    verdicts = []
    ok = True
    for q in numtheory.sieve_primes(args.bound):
        cls = numtheory.classify_prime_general(params, q)
        expected = "non-torsion" if q in primes else "torsion"
        ok = ok and cls.verdict == expected
        verdicts.append(cls)
    if args.json:
        _emit_json(
            args,
            {
                "excluded": sorted(primes),
                "params": str(params),
                "bound": args.bound,
                "classifications": [c.to_json() for c in verdicts],
                "torsion_iff_not_excluded": ok,
            },
        )
    else:
        lines = [f"# excluded {sorted(primes)} -> {params}"]
        for c in verdicts:
            witness = f" (witness m = {c.witness})" if c.witness is not None else ""
            lines.append(f"p = {c.prime}: {c.verdict}{witness}")
        lines.append(f"torsion iff not excluded, below {args.bound}: {ok}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_export_relations(args) -> int:
    params = _params_from(args)
    if args.algebra == "AX" and args.max_degree is not None:
        raise ValueError("--max-degree does not apply to --algebra AX, whose 13 relations are all quadratic")
    if args.max_degree is not None and args.max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    rels, _ = _relations(args, params)
    _emit(args, format_relation_set(rels))
    return 0


def cmd_verify(args) -> int:
    report = run_verification(relations_path=args.relations, quiet=args.json and not args.out)
    if args.json:
        _emit_json(args, report)
    else:
        lines = []
        for check in report["checks"]:
            status = "PASS" if check["ok"] else "FAIL"
            extra = ""
            if check["name"] == "convention-selection":
                extra = f" (passing: {', '.join(check['passing'])}; default: {check['selected_default']})"
            if check["name"] == "convention-comparison":
                extra = f" (identical graded groups: {check['identical_graded_groups']})"
            if check["name"] == "census-dirichlet":
                rates = ", ".join(f"{k}: {v}" for k, v in sorted(check["measured_torsion_rates"].items()))
                extra = f" (measured torsion rates by class mod 24: {rates})"
            lines.append(f"{status} {check['name']}{extra}")
        lines.append("verification " + ("PASSED" if report["ok"] else "FAILED"))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="looptorsion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--params", metavar="a,b,c,d,a2,b2", help="six comma-separated integers")
    params.add_argument("--theorem2", metavar="p1,p2,...", help="excluded primes for the product family")
    degree = argparse.ArgumentParser(add_help=False)
    degree.add_argument("--max-degree", type=int, help="truncation degree (default: 5 for E, 4 for AX)")
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--algebra", choices=("E", "AX"), default="E", help="which presented algebra")
    algebra.add_argument("--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("recurrence", parents=[params, report], help="print the coefficient table (m, a_m, b_m)")
    p.add_argument("M", type=int, help="largest index m")
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser(
        "torsion-primes", parents=[params, degree, algebra, report], help="graded pieces, divisors and torsion primes"
    )
    p.set_defaults(func=cmd_torsion_primes)

    p = sub.add_parser("classify", parents=[params, report], help="torsion verdict for one prime")
    p.add_argument("p", type=int, help="the prime to classify")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "hilbert", parents=[params, degree, algebra, report], help="dimension series and loop-space Poincare series"
    )
    p.add_argument("--field", default="Q", help="coefficient field: a prime or Q (default Q)")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("order", parents=[params, algebra, report], help="order of an element in a graded quotient")
    p.add_argument("--rho", metavar="I,M", help="use the element rho(I,M)")
    p.add_argument("--element", metavar="TEXT", help="element in text format")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("census", parents=[params, report], help="per-residue-class torsion census of primes")
    p.add_argument("bound", type=int, help="classify all primes below this bound")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("theorem2", parents=[report], help="classify primes for a product-family instance")
    p.add_argument("primes", help="comma-separated excluded primes")
    p.add_argument("--bound", type=int, default=200, help="classify primes below this bound")
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser(
        "export-relations", parents=[params, degree, algebra, out], help="write a relation set in the text format"
    )
    p.set_defaults(func=cmd_export_relations)

    p = sub.add_parser("verify", parents=[report], help="run the consolidated consistency suite")
    p.add_argument("--relations", metavar="PATH", help="also validate an exported relation file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
