"""Command-line front end: every computation as a reproducible report.

Exit codes: 0 when all checks pass, 1 when a mathematical check fails
(the report carries a witness), 2 on usage or input-parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable
from fractions import Fraction

from .bialgebras import antipode_table, primcom_dims
from .coproducts import CertificateFailure, filtration_dims
from .freealg import dim_table
from .homology import HOMOTOPY_WEIGHT_CAP, koszul_report, qn_dim_table
from .linalg import parse_rational
from .series import large_schroeder, little_schroeder, qndipt_dims
from .verify import (
    SUITE_DEGREE_CAP,
    antipode_witness,
    axioms_suite,
    bialgebra_suite,
    coassoc_suite,
    pbw_suite,
)


def _emit(as_json: bool, payload: dict, text_lines: Iterable[str]) -> None:
    """Print the payload as JSON, or else the text lines, which are read
    only here, so a command may pass a generator that builds them lazily."""
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
    rows = dim_table(n)
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
        try:
            dims, witness = filtration_dims(1, max_degree, t), None
        except CertificateFailure as exc:
            dims, witness = exc.dims, exc.witness
        # Delta_t = t * Delta_1, so at t = 0 every forest is primitive.
        ref = (large_schroeder if t == 0 else little_schroeder)(max_degree)
        match = dims == ref
        ok &= match
        lines.append(f"semiinf dims={dims} reference={ref} match={str(match).lower()}")
        payload["semiinf"] = {"dims": dims, "reference": ref, "match": match}
        if witness:
            lines.append(f"witness: {witness}")
            payload["semiinf"]["witness"] = witness
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
    payload = {"degree": degree, "table": table, "identities_ok": witness is None}
    if witness:
        payload["witness"] = witness
    _emit(args.json, payload, _antipode_lines(table, witness))
    return 0 if witness is None else 1


def _antipode_lines(table: dict, witness: str | None) -> Iterable[str]:
    for key, images in table.items():
        yield key
        yield f"  S : {images['S']}"
        yield f"  S': {images['Sprime']}"
    yield f"identities_ok={str(witness is None).lower()}"
    if witness:
        yield f"witness: {witness}"


def cmd_dynamics(args: argparse.Namespace) -> int:
    # No other command reads dynamics, so only this one imports it.
    from pathlib import Path

    from .dynamics import (
        GrammarError,
        distribution_json,
        distribution_rows,
        dynamics_run,
        parse_grammar,
        total_mass,
    )

    try:
        text = Path(args.grammar).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read grammar file: {exc}", file=sys.stderr)
        return 2
    try:
        tbl = parse_grammar(text, probability=not args.free_weights)
        states = dynamics_run(tbl, args.start, args.steps)
    except GrammarError as exc:
        print(f"grammar error: {exc}", file=sys.stderr)
        return 2
    # Each state is summed and sorted once; the JSON payload and the text
    # lines both read its rows.
    steps = [(total_mass(state), distribution_rows(state)) for state in states]
    payload = {
        "steps": [
            {"step": step, "mass": str(mass), "distribution": distribution_json(rows)}
            for step, (mass, rows) in enumerate(steps)
        ]
    }
    _emit(args.json, payload, _dynamics_lines(steps))
    return 0


def _dynamics_lines(steps: list[tuple[Fraction, list[tuple[str, Fraction]]]]) -> Iterable[str]:
    for step, (mass, rows) in enumerate(steps):
        yield f"step {step} (mass {mass}):"
        for word, m in rows:
            yield f"  {word} : {m}"


def fraction(text: str) -> Fraction:
    """argparse type for p/q values: a zero denominator or an exponent is a
    usage error."""
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for caps: anything below 1 is a usage error."""
    return _int_at_least(1, text)


def nonnegative_int(text: str) -> int:
    """argparse type for step counts: anything below 0 is a usage error."""
    return _int_at_least(0, text)


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
    p.add_argument("steps", type=nonnegative_int)
    p.add_argument("--free-weights", action="store_true",
                   help="allow non-stochastic rule weights")

    return parser


# A value argparse would take for an option: a minus sign, then a digit or
# a point. Its negative-number test accepts only decimals, not "-3/7".
_NEGATIVE = re.compile(r"-\.?\d")


def _attach_negative_t(argv: list[str]) -> list[str]:
    """Rewrite ``--t -3/7`` as ``--t=-3/7``, the one spelling argparse parses."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--t" and _NEGATIVE.match(arg):
            out[-1] = f"--t={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_t(argv))
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
