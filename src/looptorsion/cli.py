"""Command-line front end; `DESCRIPTION`, its help text, gives the exit codes.

Each command imports only the modules it runs: `census`, `classify`,
`theorem2` and `recurrence` load `numtheory` alone; `presentation` and
`freealg` load only in the other five commands; `hilbert` loads the
closed-form count (`count`, `series`) without the matrix oracle
(`quotient`, `snf`), which loads only in `torsion-primes`, `order` and
`verify`; and `json` loads only when JSON is written.  `torsion-primes`
and `hilbert` pass the count the algebra and the six parameters and
build no relation element; `export-relations`, `order` and `verify`
build relation sets.

`main` lifts Python's limit on the digits of an int read or written as
text while it runs, so a bound or an a_m of any length is read and
printed in full.

A run builds one parser: a command's line is read by `command_parser`
alone. The parser of every command, `build_parser`, is built only for
top-level help, a missing or unknown command, and leftover arguments.
"""

from __future__ import annotations

import argparse
import sys

from . import numtheory

#: What `looptorsion --help` says of the tool.
DESCRIPTION = (
    "Exact graded groups, torsion primes, dimensions and prime censuses for the algebras E and AX "
    "of six integer parameters, as deterministic text or JSON reports. "
    "Each subcommand takes only the flags it reads; an unknown flag is a usage error. "
    "Exit codes: 0 on success, 1 when a verification fails, an internal check refuses the input "
    "or the computation runs out of memory or recursion depth, 2 on usage errors. "
    "Long computations write per-step progress to stderr only, so stdout stays machine-parsable."
)


def __getattr__(name: str):
    # `cli.torsion_primes_up_to` is read from outside the package (the benchmark's
    # tracer test); it resolves to `quotient`'s current binding, loading it on first access
    if name == "torsion_primes_up_to":
        from .quotient import torsion_primes_up_to

        return torsion_primes_up_to
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _integers(text: str, count: int, usage: str) -> list[int]:
    """Exactly `count` comma-separated integers from a flag's value; `usage` is the error otherwise."""
    values = [int(x) for x in text.split(",")] if text else []
    if len(values) != count:
        raise ValueError(usage)
    return values


def _params_from(args) -> numtheory.Params:
    # an empty value is given, not absent: "--params=" is refused, "--theorem2=" excludes no prime
    if args.params is not None and args.theorem2 is not None:
        raise ValueError("--params and --theorem2 are mutually exclusive")
    if args.params is not None:
        return numtheory.Params(*_integers(args.params, 6, "--params needs exactly six integers"))
    if args.theorem2 is not None:
        primes = [int(x) for x in args.theorem2.split(",") if x]
        return numtheory.theorem2_params(primes)
    return numtheory.THEOREM1_PARAMS


def _max_degree(args) -> int:
    from .presentation import AX_DEFAULT_DEGREE, E_DEFAULT_DEGREE

    if args.max_degree is not None:
        return args.max_degree
    return AX_DEFAULT_DEGREE if args.algebra == "AX" else E_DEFAULT_DEGREE


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    import json

    _emit(args, json.dumps(payload, indent=2) + "\n")


def cmd_recurrence(args) -> int:
    params = _params_from(args)
    if args.M < 2:
        raise ValueError("max_m must be at least 2")
    rows = numtheory.coeff_sequence(params, args.M)
    if args.json:
        _emit_json(args, {"params": str(params), "rows": [{"m": m, "a_m": a, "b_m": b} for m, a, b in rows]})
    else:
        lines = [f"# {params}", f"{'m':>4} {'a_m':>24} {'b_m':>24}"]
        lines += [f"{m:>4} {a:>24} {b:>24}" for m, a, b in rows]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_torsion_primes(args) -> int:
    from .quotient import torsion_primes_up_to

    params = _params_from(args)
    maxdeg = _max_degree(args)
    report = torsion_primes_up_to(args.algebra, params, maxdeg, args.convention)
    if args.json:
        _emit_json(args, report.to_json())
        return 0
    lines = [f"# algebra {args.algebra}, {params}, convention {report.convention}, degrees <= {maxdeg}"]
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
    if params == numtheory.THEOREM1_PARAMS:
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
    from .count import counted_dimensions
    from .series import G2, R4, format_series, roos_poincare, series_json

    params = _params_from(args)
    maxdeg = _max_degree(args)
    try:
        field = args.field if args.field == "Q" else int(args.field)
    except ValueError:
        raise ValueError("--field must be Q or a prime") from None
    a_series = counted_dimensions(args.algebra, params, field, maxdeg)
    payload = {"algebra": args.algebra, "field": str(field), "A": series_json(a_series)}
    lines = [f"A(t) [{args.algebra}, field {field}] = {format_series(a_series)}"]
    if args.algebra == "AX":
        p_series = roos_poincare(a_series)
        payload["P"] = series_json(p_series)
        lines.append(f"P(t) [loop space, g2={G2}, r4={R4}] = {format_series(p_series)}")
    if args.json:
        _emit_json(args, payload)
    else:
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_order(args) -> int:
    from .freealg import format_element, parse_element
    from .presentation import AX_NUM_GENS, E_NUM_GENS, relation_set_AX, relation_set_E, rho
    from .quotient import element_order

    params = _params_from(args)
    if (args.rho is None) == (args.element is None):
        raise ValueError("give exactly one of --rho I,M or --element TEXT")
    if args.rho is not None:
        i, m = _integers(args.rho, 2, "--rho needs I,M")
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
        rels = relation_set_E(params, degree, args.convention)
    order = element_order(elem, rels, degree)
    rendered = "infinite" if order is None else str(order)
    if args.json:
        _emit_json(args, {"element": label, "degree": degree, "algebra": args.algebra, "order": rendered})
    else:
        _emit(args, f"order of {label} in {args.algebra} degree {degree}: {rendered}\n")
    return 0


def cmd_census(args) -> int:
    rows = numtheory.census(args.bound, params=_params_from(args))
    if args.json:
        _emit_json(args, [row.to_json() for row in rows])
    else:
        _emit(args, numtheory.census_table(rows))
    return 0


def cmd_theorem2(args) -> int:
    if args.bound < 3:
        raise ValueError("bound must be at least 3")
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
    from .presentation import format_relation_set, relation_set_AX, relation_set_E

    params = _params_from(args)
    if args.algebra == "AX" and args.max_degree is not None:
        raise ValueError("--max-degree does not apply to --algebra AX, whose 13 relations are all quadratic")
    if args.max_degree is not None and args.max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    if args.algebra == "AX":
        rels = relation_set_AX(params, args.convention)
    else:
        rels = relation_set_E(params, _max_degree(args), args.convention)
    _emit(args, format_relation_set(rels))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification  # here, so that no other command loads the suite and `action`

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


def _params_flags(p) -> None:
    p.add_argument("--params", metavar="a,b,c,d,a2,b2", help="six comma-separated integers")
    p.add_argument("--theorem2", metavar="p1,p2,...", help="excluded primes for the product family")


def _degree_flags(p) -> None:
    from .presentation import AX_DEFAULT_DEGREE, E_DEFAULT_DEGREE

    p.add_argument(
        "--max-degree",
        type=int,
        help=f"truncation degree (default: {E_DEFAULT_DEGREE} for E, {AX_DEFAULT_DEGREE} for AX)",
    )


def _algebra_flags(p) -> None:
    from .freealg import CONVENTIONS, DEFAULT_CONVENTION

    p.add_argument("--algebra", choices=("E", "AX"), default="E", help="which presented algebra")
    p.add_argument("--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION)


def _out_flags(p) -> None:
    p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _report_flags(p) -> None:
    _out_flags(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


_RELATION_FLAGS = (_params_flags, _degree_flags, _algebra_flags)

#: Each command: what `looptorsion --help` says of it, and the flag groups it reads.
COMMANDS = {
    "recurrence": ("print the coefficient table (m, a_m, b_m)", (_params_flags, _report_flags)),
    "torsion-primes": ("graded pieces, divisors and torsion primes", (*_RELATION_FLAGS, _report_flags)),
    "classify": ("torsion verdict for one prime", (_params_flags, _report_flags)),
    "hilbert": ("dimension series and loop-space Poincare series", (*_RELATION_FLAGS, _report_flags)),
    "order": ("order of an element in a graded quotient", (_params_flags, _algebra_flags, _report_flags)),
    "census": ("per-residue-class torsion census of primes", (_params_flags, _report_flags)),
    "theorem2": ("classify primes for a product-family instance", (_report_flags,)),
    "export-relations": ("write a relation set in the text format", (*_RELATION_FLAGS, _out_flags)),
    "verify": ("run the consolidated consistency suite", (_report_flags,)),
}


def _add_command(name: str, p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Give `p` the flags and positionals of command `name`, and its `cmd_*` function as `func`."""
    for add_flags in COMMANDS[name][1]:
        add_flags(p)
    if name == "recurrence":
        p.add_argument("M", type=int, help="largest index m")
    elif name == "classify":
        p.add_argument("p", type=int, help="the prime to classify")
    elif name == "hilbert":
        p.add_argument("--field", default="Q", help="coefficient field: a prime or Q (default Q)")
    elif name == "order":
        p.add_argument("--rho", metavar="I,M", help="use the element rho(I,M)")
        p.add_argument("--element", metavar="TEXT", help="element in text format")
    elif name == "census":
        p.add_argument("bound", type=int, help="classify all primes below this bound")
    elif name == "theorem2":
        p.add_argument("primes", help="comma-separated excluded primes")
        p.add_argument("--bound", type=int, default=200, help="classify primes below this bound")
    elif name == "verify":
        p.add_argument("--relations", metavar="PATH", help="also validate an exported relation file")
    # `command` is what the full parser's subcommand action stores, so both give the same namespace
    p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")], command=name)
    return p


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built as `build_parser` builds it: the same usage, help and errors."""
    return _add_command(name, argparse.ArgumentParser(prog=f"looptorsion {name}"))


def build_parser() -> argparse.ArgumentParser:
    """The parser with every command, for top-level help and for errors no one command's parser reports."""
    parser = argparse.ArgumentParser(prog="looptorsion", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, _) in COMMANDS.items():
        _add_command(name, sub.add_parser(name, help=help))
    return parser


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    args, rest = command_parser(argv[0]).parse_known_args(argv[1:]) if argv and argv[0] in COMMANDS else (None, None)
    if args is None or rest:  # no command, or arguments it leaves over: the full parser reports them
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: the computation exceeded an internal limit ({type(exc).__name__}{detail})", file=sys.stderr)
        return 1
