"""Command-line front end: every computation as a reproducible report.

Exit codes: 0 when all checks pass, 1 when a mathematical check fails
(the report carries a witness), 2 on usage or input-parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .bialgebras import antipode_table, primcom_dims
from .coproducts import filtration_dim
from .dynamics import (
    GrammarError,
    distribution_json,
    distribution_rows,
    dynamics_step,
    parse_grammar,
    total_mass,
    word_elem,
)
from .freealg import dim_table
from .homology import HOMOTOPY_WEIGHT_CAP, koszul_report, qn_dim_table
from .series import large_schroeder, little_schroeder, qndipt_dims
from .verify import (
    SUITE_DEGREE_CAP,
    TREE_COUNT_DEGREE_CAP,
    antipode_witness,
    axioms_suite,
    bialgebra_suite,
    coassoc_suite,
    pbw_suite,
)


def _emit(as_json: bool, payload: dict, text_lines: list[str]) -> None:
    try:
        if as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early; send what is still buffered to devnull so
        # the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _clamp(requested: int, cap: int, what: str, unit: str = "degree", flag: str = "--max-degree") -> int:
    """min(requested, cap), with one stderr line when the cap applies."""
    if requested > cap:
        print(f"note: {what} capped at {unit} {cap} ({flag} {requested} requested)", file=sys.stderr)
    return min(requested, cap)


def cmd_dims(args: argparse.Namespace) -> int:
    n = args.max_degree
    rows = {name: (table.dims, table.reference) for name, table in dim_table(n).items()}
    rows["qndipt"] = (tuple(qn_dim_table(n)), tuple(qndipt_dims(n)))
    if args.which != "all":
        rows = {args.which: rows[args.which]}
    lines = [f"degree: {' '.join(str(k) for k in range(1, n + 1))}"]
    payload = {}
    all_match = True
    for name, (dims, ref) in rows.items():
        match = dims == ref
        all_match &= match
        lines.append(f"{name:7s} dims={list(dims)} reference={list(ref)} match={str(match).lower()}")
        payload[name] = {"dims": list(dims), "reference": list(ref), "match": match}
    _emit(args.json, payload, lines)
    return 0 if all_match else 1


def cmd_prim(args: argparse.Namespace) -> int:
    t, max_degree = args.t, args.max_degree
    payload: dict = {}
    lines: list[str] = []
    ok = True
    if args.coproduct in ("semiinf", "both"):
        dims = [filtration_dim(1, n, t) for n in range(1, max_degree + 1)]
        # Delta_t = t * Delta_1, so at t = 0 every forest is primitive.
        ref = (large_schroeder if t == 0 else little_schroeder)(max_degree)
        match = dims == ref
        ok &= match
        lines.append(f"semiinf dims={dims} reference={ref} match={str(match).lower()}")
        payload["semiinf"] = {"dims": dims, "reference": ref, "match": match}
    if args.coproduct in ("hopf", "both"):
        dims, oracle = primcom_dims(max_degree)
        match = dims == oracle
        ok &= match
        lines.append(f"hopf    dims={dims} oracle={oracle} match={str(match).lower()}")
        payload["hopf"] = {"dims": dims, "oracle": oracle, "match": match}
    _emit(args.json, payload, lines)
    return 0 if ok else 1


def cmd_homology(args: argparse.Namespace) -> int:
    _clamp(args.weight_cap, HOMOTOPY_WEIGHT_CAP, "homotopy check", "weight", "--weight-cap")
    report = koszul_report(args.weight_cap)
    lines = ["arity weight kernel image betti"]
    for piece in report.pieces:
        lines.append(
            f"{piece['arity']:5d} {piece['weight']:6d} {piece['kernel']:6d}"
            f" {piece['image']:5d} {piece['betti']:5d}"
        )
    lines.append(
        f"square_zero={report.square_zero_ok} simplicial={report.simplicial_ok}"
        f" homotopy={report.homotopy_ok} betti={report.betti_ok}"
    )
    lines.append(f"koszul_ok={str(report.koszul_ok).lower()}")
    if report.witness:
        lines.append(f"witness: {report.witness}")
    _emit(args.json, report.to_json(), lines)
    return 0 if report.koszul_ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    suite, max_degree = args.suite, args.max_degree
    checks = []
    if suite in ("axioms", "all"):
        checks += axioms_suite()
    if suite in ("coassoc", "all"):
        checks += coassoc_suite(_clamp(max_degree, SUITE_DEGREE_CAP, "coassoc suite"))
    if suite in ("bialgebra", "all"):
        checks += bialgebra_suite(_clamp(max_degree, SUITE_DEGREE_CAP, "bialgebra suite"))
    if suite in ("pbw", "all"):
        _clamp(max_degree, TREE_COUNT_DEGREE_CAP, "pbw tree-count check")
        checks += pbw_suite(max_degree)
    lines = []
    payload = {"checks": []}
    ok = True
    for check in checks:
        ok &= check.ok
        status = "pass" if check.ok else "FAIL"
        line = f"[{status}] {check.name}"
        if check.detail:
            line += f" ({check.detail})"
        if check.witness:
            line += f" -- witness: {check.witness}"
        lines.append(line)
        payload["checks"].append(
            {"name": check.name, "ok": check.ok, "witness": check.witness, "detail": check.detail}
        )
    payload["ok"] = ok
    lines.append(f"ok={str(ok).lower()}")
    _emit(args.json, payload, lines)
    return 0 if ok else 1


def cmd_antipode(args: argparse.Namespace) -> int:
    degree = args.degree
    if degree > args.max_degree:
        print(f"degree {degree} exceeds --max-degree {args.max_degree}", file=sys.stderr)
        return 2
    table = antipode_table(degree)
    witness = antipode_witness(degree)
    lines = []
    for key, images in table.items():
        lines.append(f"{key}")
        lines.append(f"  S : {images['S']}")
        lines.append(f"  S': {images['Sprime']}")
    lines.append(f"identities_ok={str(witness is None).lower()}")
    payload = {"degree": degree, "table": table, "identities_ok": witness is None}
    if witness:
        payload["witness"] = witness
        lines.append(f"witness: {witness}")
    _emit(args.json, payload, lines)
    return 0 if witness is None else 1


def cmd_dynamics(args: argparse.Namespace) -> int:
    start, steps = args.start, args.steps
    if steps < 0:
        print(f"steps must be >= 0, got {steps}", file=sys.stderr)
        return 2
    try:
        text = Path(args.grammar).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read grammar file: {exc}", file=sys.stderr)
        return 2
    try:
        tbl = parse_grammar(text, probability=not args.free_weights)
        if start not in tbl.alphabet:
            raise GrammarError(f"start symbol {start!r} not in alphabet")
    except GrammarError as exc:
        print(f"grammar error: {exc}", file=sys.stderr)
        return 2
    state = word_elem((start,))
    payload = {"steps": []}
    lines = []
    for step in range(steps + 1):
        rows = distribution_rows(state)
        mass = total_mass(state)
        lines.append(f"step {step} (mass {mass}):")
        lines.extend(f"  {word} : {m}" for word, m in rows)
        payload["steps"].append(
            {"step": step, "mass": str(mass), "distribution": distribution_json(state)}
        )
        if step < steps:
            state = dynamics_step(tbl, state)
    _emit(args.json, payload, lines)
    return 0


def fraction(text: str) -> Fraction:
    """argparse type for p/q values: a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def positive_int(text: str) -> int:
    """argparse type for caps: anything below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipterous",
        description="Exact tree-algebra computations: dimensions, primitives, homology, antipodes, dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--max-degree": dict(type=positive_int, default=5, metavar="N"),
        "--t": dict(type=fraction, default=Fraction(1), metavar="p/q",
                    help="deformation weight of the coproduct (default 1)"),
        "--weight-cap": dict(type=positive_int, default=5, metavar="W"),
        # No command reads --seed; prim, homology and antipode accept it
        # because perfbench/run.py passes it to each command it runs.
        "--seed": dict(type=int, default=0, metavar="S"),
    }

    def command(name: str, run, help: str, *reads: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in reads:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(run=run)
        return p

    p = command("dims", cmd_dims, "dimension tables vs reference series", "--max-degree")
    p.add_argument("which", choices=["dipt", "mag", "qndipt", "ldipt", "all"])

    p = command("prim", cmd_prim, "primitive-space dimensions per degree", "--max-degree", "--t", "--seed")
    p.add_argument("coproduct", choices=["semiinf", "hopf", "both"])

    command("homology", cmd_homology, "exactness certificate and Betti table", "--weight-cap", "--seed")

    p = command("verify", cmd_verify, "property suites with witnesses", "--max-degree")
    p.add_argument("suite", choices=["axioms", "coassoc", "bialgebra", "pbw", "all"])

    p = command("antipode", cmd_antipode, "antipode tables at one degree", "--max-degree", "--seed")
    p.add_argument("degree", type=positive_int)

    p = command("dynamics", cmd_dynamics, "stochastic rewriting from a grammar file")
    p.add_argument("grammar")
    p.add_argument("start")
    p.add_argument("steps", type=int)
    p.add_argument("--free-weights", action="store_true",
                   help="allow non-stochastic rule weights")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
