"""Command-line surface: parse ideals, run analyses, emit reports.

Exit codes: 0 success, 1 parse/input error, 2 enumeration guard
exceeded or argparse usage error, 3 internal invariant violation (a
failed theorem check or a broken complex); each error class carries its
code as `exit_code`. Diagnostics go to stderr; results to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from .errors import InvalidIdealError, MonodomError
from .monomials import MonomialIdeal, parse_ideal
from .resolution import RATIONAL, BettiTable, PrimeField, minimize
from .taylor import symbol_label
from .verify import Analysis, FuzzParams, check_report, fuzz


def _field_from_args(args):
    return PrimeField(args.prime) if args.field == "fp" else RATIONAL


def _load_ideal(args) -> MonomialIdeal:
    text = args.ideal
    if text is None:
        raise InvalidIdealError("no ideal given; pass --ideal TEXT (or '-' for stdin)")
    if text == "-":
        text = sys.stdin.read()
    var_names = None
    if args.vars:
        var_names = [v.strip() for v in args.vars.split(",") if v.strip()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ideal = parse_ideal(text, var_names)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return ideal


def _betti_json(table: BettiTable) -> dict:
    """The total, graded and multigraded Betti numbers as JSON fields."""
    return {
        "betti": list(table.total),
        "graded_betti": [[i, j, c] for (i, j), c in sorted(table.graded.items())],
        "multigraded_betti": table.multigraded_text(),
    }


_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = {str: _encode_str, int: repr}  # the scalars of bulk payloads


def _encode(value, indent: str) -> str:
    """`value` as JSON, laid out as `_dump` describes, nested at `indent`
    (a newline and the enclosing containers' indentation)."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            _encode_str(key) + ": " + _encode(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_items(value, inner)) + indent + "]"
    return json.dumps(value)  # None, bools, floats; TypeError if not JSON


def _items(values, indent: str) -> list[str]:
    """The JSON of each item of a non-empty list, nested at `indent`.

    Strings and ints, alone or in non-empty lists of them, are encoded in
    the comprehension itself, with no call to `_encode`.
    """
    try:
        return [_SCALARS[type(item)](item) for item in values]
    except KeyError:
        pass
    inner = indent + "  "
    head, sep, tail = "[" + inner, "," + inner, indent + "]"
    try:
        return [
            head + sep.join([_SCALARS[type(x)](x) for x in item]) + tail
            if type(item) is list and item
            else _encode(item, indent)
            for item in values
        ]
    except KeyError:  # a list nested two deep
        return [_encode(item, indent) for item in values]


def _dump(payload) -> str:
    """Canonical JSON: `json.dumps(payload, sort_keys=True, indent=2)`, byte
    for byte for string-keyed payloads, without the pure-Python encoder
    that `indent` selects."""
    return _encode(payload, "\n")


def emit_json(report: Analysis) -> str:
    """Stable-key JSON rendering of a full report."""
    ideal = report.ideal
    pol = report.polarized
    payload = {
        "ideal": ideal.render(),
        "vars": list(ideal.table.names),
        "n": ideal.n,
        "q": ideal.q,
        "field": report.field_name,
        "codim": report.codim,
        "odom": report.odom,
        "pd": report.pd,
        **_betti_json(report.betti),
        "taylor_minimal": report.taylor_minimal,
        "scarf": report.scarf,
        "complete_intersection": report.complete_intersection,
        "cohen_macaulay": report.cohen_macaulay,
        "minimal_nets": {
            "base": [list(net.names(ideal)) for net in report.nets_base],
            "polarized": [list(net.names(pol)) for net in report.nets_polarized],
        },
        "witnesses": {
            "dominant_set": [
                str(m) for m in report.dominance_witness.member_monomials(ideal)
            ],
            "net": [pol.table.names[v] for v in report.net_witness.variables],
        },
        "checks": [{"name": c.name, "status": c.status} for c in report.checks],
    }
    return _dump(payload)


def _print_report(report: Analysis) -> None:
    ideal = report.ideal
    pol = report.polarized
    print(f"ideal:        ({ideal.render()})")
    print(f"ring:         k[{', '.join(ideal.table.names)}]   (n = {ideal.n}, q = {ideal.q})")
    print(f"field:        {report.field_name}")
    print(f"codim:        {report.codim}")
    print(f"odom:         {report.odom}   (dominance {report.odom_dominance}, nets {report.odom_nets})")
    print(f"pd:           {report.pd}")
    print(f"betti:        {list(report.betti.total)}")
    print(f"taylor minimal: {report.taylor_minimal}")
    print(f"scarf:          {report.scarf}")
    print(f"complete int.:  {report.complete_intersection}")
    print(f"cohen-macaulay: {report.cohen_macaulay}")
    print("minimal nets:")
    for net in report.nets_base:
        print(f"  {{{', '.join(net.names(ideal))}}}")
    print("minimal nets of the polarization:")
    for net in report.nets_polarized:
        print(f"  {{{', '.join(net.names(pol))}}}")
    w = report.dominance_witness
    pairs = ", ".join(
        f"{m} (in {x})"
        for m, x in zip(w.member_monomials(ideal), w.variable_names(ideal))
    )
    print(f"dominant witness: {pairs}")
    print(
        "net witness:      {"
        + ", ".join(pol.table.names[v] for v in report.net_witness.variables)
        + "}"
    )
    print("checks:")
    for c in report.checks:
        mark = {"pass": "ok ", "vacuous": "---", "fail": "FAIL"}[c.status]
        print(f"  [{mark}] {c.name}: {c.detail}")


def _cmd_analyze(args) -> int:
    ideal = _load_ideal(args)
    report = check_report(ideal, _field_from_args(args))
    if args.json:
        print(emit_json(report))
    else:
        _print_report(report)
    return 0 if report.ok else 3


def _cmd_betti(args) -> int:
    analysis = Analysis(_load_ideal(args), _field_from_args(args))
    table = analysis.betti_by_oracle if args.oracle else analysis.betti
    if args.json:
        payload = {**_betti_json(table), "pd": table.pd, "field": table.field_name}
        print(_dump(payload))
        return 0
    print(f"betti: {list(table.total)}   pd = {table.pd}")
    print("graded (i, j -> count):")
    for (i, j), c in sorted(table.graded.items()):
        print(f"  ({i}, {j}) -> {c}")
    print("multigraded (i, monomial -> count):")
    for i, m, c in table.multigraded_text():
        print(f"  ({i}, {m}) -> {c}")
    return 0


def _cmd_resolution(args) -> int:
    ideal = _load_ideal(args)
    cx, table = minimize(ideal, _field_from_args(args))
    strata = cx.strata
    if args.json:
        payload = {
            "betti": list(table.total),
            "strata": [
                [symbol_label(ideal, mask) for mask in masks] for masks in strata if masks
            ],
        }
        if args.show_matrices:
            payload["matrices"] = _matrix_payload(cx, ideal)
        print(_dump(payload))
        return 0
    print(f"minimal free resolution of the quotient; betti {list(table.total)}")
    for h, masks in enumerate(strata):
        if not masks:
            continue
        print(f"degree {h}:")
        for mask in masks:
            mdeg = cx.taylor.text(cx.mdeg_codes[mask])
            print(f"  {symbol_label(ideal, mask)}   mdeg {mdeg}")
    if args.show_matrices:
        for s, entries in _matrix_payload(cx, ideal).items():
            print(f"matrix f_{s}:")
            for tau, sigma, scalar, mono in entries:
                print(f"  {tau} <- {sigma}: {scalar} * {mono}")
    return 0


def _matrix_payload(cx, ideal):
    """The entries of the differential, keyed by the degree of their column,
    degrees ascending; the columns come in scan order."""
    out = {}
    for sigma, col in cx.cols.items():
        for tau in sorted(col):
            out.setdefault(str(sigma.bit_count()), []).append(
                [
                    symbol_label(ideal, tau),
                    symbol_label(ideal, sigma),
                    str(col[tau]),
                    str(cx.mdeg(sigma).quotient(cx.mdeg(tau))),
                ]
            )
    return out


def _cmd_nets(args) -> int:
    analysis = Analysis(_load_ideal(args))
    if args.polarized:
        target, family = analysis.polarized, analysis.nets_polarized
    else:
        target, family = analysis.ideal, analysis.nets_base
    if args.json:
        print(
            _dump(
                {
                    "polarized": args.polarized,
                    "minimal_nets": [list(net.names(target)) for net in family],
                    "min_card": family.min_card,
                    "max_card": family.max_card,
                }
            )
        )
        return 0
    label = "polarization" if args.polarized else "ideal"
    print(
        f"{len(family)} minimal nets of the {label} "
        f"(cardinalities {family.min_card}..{family.max_card}):"
    )
    for net in family:
        print(f"  {{{', '.join(net.names(target))}}}")
    return 0


def _cmd_odom(args) -> int:
    analysis = Analysis(_load_ideal(args))
    results = {}
    if args.method in ("dominant-sets", "both"):
        witness = analysis.dominance_witness
        results["dominant-sets"] = (
            analysis.odom_dominance,
            [str(m) for m in witness.member_monomials(analysis.ideal)],
        )
    if args.method in ("nets", "both"):
        names = analysis.polarized.table.names
        results["nets"] = (
            analysis.odom_nets,
            [names[v] for v in analysis.net_witness.variables],
        )
    if args.json:
        print(
            _dump(
                {
                    method: {"odom": value, "witness": witness}
                    for method, (value, witness) in sorted(results.items())
                }
            )
        )
    else:
        for method, (value, witness) in sorted(results.items()):
            print(f"odom = {value}   via {method}, witness {witness}")
    if len(results) == 2:
        a, b = (v for v, _ in results.values())
        if a != b:
            print("error: the two routes disagree", file=sys.stderr)
            return 3
    return 0


def _cmd_scarf(args) -> int:
    ideal = _load_ideal(args)
    analysis = Analysis(ideal, _field_from_args(args))
    basis, betti, verdict = analysis.scarf_basis, analysis.betti, analysis.scarf
    if args.json:
        print(
            _dump(
                {
                    "scarf_basis": [symbol_label(ideal, mask) for mask in basis.masks],
                    "ranks": list(basis.ranks),
                    "betti": list(betti.total),
                    "is_scarf": verdict,
                }
            )
        )
        return 0
    print(f"scarf ranks: {list(basis.ranks)}   betti: {list(betti.total)}   is_scarf: {verdict}")
    lattice = basis.lattice
    for mask in basis.masks:
        mdeg = lattice.text(lattice.mdeg_codes[mask])
        print(f"  {symbol_label(ideal, mask)}   mdeg {mdeg}")
    return 0


def _cmd_polarize(args) -> int:
    pol = Analysis(_load_ideal(args)).polarized
    if args.json:
        print(_dump({"ideal": pol.render(), "vars": list(pol.table.names)}))
    else:
        print(pol.render())
    return 0


def _cmd_verify(args) -> int:
    params = FuzzParams(
        n_max=args.n_max,
        q_max=args.q_max,
        exp_max=args.exp_max,
        trials=args.trials,
        seed=args.seed,
        exhaustive=args.exhaustive,
    )
    summary = fuzz(params, _field_from_args(args))
    if args.json:
        print(_dump(summary.to_dict()))
        return 0
    print(f"{summary.ideal_count} ideals, zero failures")
    for name, tally in sorted(summary.check_tally.items()):
        shown = ", ".join(f"{k} {v}" for k, v in sorted(tally.items()))
        print(f"  {name}: {shown}")
    print(f"pd - odom gaps: {dict(sorted(summary.gap_histogram.items()))}")
    return 0


COMMANDS = ("analyze", "betti", "resolution", "nets", "odom", "scarf", "polarize", "verify")


# the option groups; each command takes only those it reads
def _ideal_input(p) -> None:
    p.add_argument("--ideal", help="generator list, e.g. 'a^2*e, b^3*f' ('-' reads stdin)")
    p.add_argument("--vars", help="comma-separated variable list fixing the ambient ring")


def _json_output(p) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON to stdout")


def _field(p) -> None:
    p.add_argument(
        "--field", choices=["rational", "fp"], default="rational",
        help="scalar field for the engine (default: rational)",
    )
    p.add_argument("--prime", type=int, default=32003, help="prime for --field fp")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """A fresh parser for every command, or, with `only` one of COMMANDS,
    for that command alone. The two print the same bytes for every
    argument list whose first word is `only`: the one-command parser
    lists all of COMMANDS in its usage, which "unrecognized arguments"
    errors print."""
    parser = argparse.ArgumentParser(
        prog="monodom",
        description="Minimal resolutions and dominance invariants of monomial ideals.",
    )
    # a metavar on the full parser would also rename the argument in its
    # "required" and "invalid choice" errors, so only the other one has it
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    with_field = (_ideal_input, _json_output, _field)
    field_free = (_ideal_input, _json_output)

    def command(name, handler, groups, summary):
        """The parser of command `name`, or None when it is not built."""
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        for add in groups:
            add(p)
        p.set_defaults(handler=handler)
        return p

    command("analyze", _cmd_analyze, with_field, "full invariant report with theorem checks")

    if p := command("betti", _cmd_betti, with_field, "total/graded/multigraded Betti numbers"):
        p.add_argument("--oracle", action="store_true", help="use the strand-homology oracle")

    if p := command("resolution", _cmd_resolution, with_field, "minimized complex"):
        p.add_argument("--show-matrices", action="store_true")

    if p := command("nets", _cmd_nets, field_free, "minimal net family"):
        p.add_argument("--polarized", action="store_true", help="nets of the polarization")

    if p := command("odom", _cmd_odom, field_free, "order of dominance"):
        p.add_argument("--method", choices=["dominant-sets", "nets", "both"], default="both")

    command("scarf", _cmd_scarf, with_field, "Scarf basis and Scarf-ness")
    command("polarize", _cmd_polarize, field_free, "print the polarization")

    if p := command("verify", _cmd_verify, (_json_output, _field), "run the fuzzing suite"):
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-max", type=int, default=4)
        p.add_argument("--q-max", type=int, default=5)
        p.add_argument("--exp-max", type=int, default=3)
        p.add_argument("--exhaustive", action="store_true")

    return parser


@functools.cache
def _parser(only: str | None) -> argparse.ArgumentParser:
    """The process's parser for command `only` (None: every command),
    built on first use so that importing this module costs nothing and a
    call pays only for its own command's options; parsing leaves no
    state on a parser, so every `main` call can share it."""
    return build_parser(only)


def main(argv=None) -> int:
    """Run one command line; its first word picks the parser, so that a
    call builds only its own command's options. Any other first word
    (none, an option, an unknown command) goes to the full parser, whose
    usage and errors name every command."""
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = _parser(only).parse_args(argv)
    try:
        code = args.handler(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`monodom ... | head`). Point stdout at
        # devnull so the flush at exit cannot fail again; see the SIGPIPE
        # note in the documentation of Python's `signal` module.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except MonodomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
