#!/usr/bin/env python3
"""Print the full dimension bookkeeping in one place.

Covers: enumerated dims of all four free algebras against their reference
series, primitive dims for both coproducts with their oracles, the
composition identity, and the Betti table summary.
"""

import argparse

from dipterous.bialgebras import primcom_dims
from dipterous.cli import positive_int
from dipterous.coproducts import pbw_dim_check
from dipterous.freealg import dim_table
from dipterous.homology import koszul_report, qn_dim_table
from dipterous.series import little_schroeder, qndipt_dims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=positive_int, default=5)
    args = parser.parse_args()
    n = args.max_degree

    print("== enumerated dimensions vs reference series ==")
    for name, table in dim_table(n).items():
        print(f"{name:7s} {list(table.dims)}  reference {list(table.reference)}  match={table.match}")
    print(f"qndipt  {qn_dim_table(n)}  reference {qndipt_dims(n)}")

    print("\n== primitive dimensions ==")
    rep = pbw_dim_check(n)
    print(f"one-sided coproduct kernel: {list(rep.prim_dims)}  (tree counts {little_schroeder(n)})")
    hopf, oracle = primcom_dims(n)
    print(f"cocommutative coproduct kernel: {hopf}  (series oracle {oracle})")

    print("\n== composition identity ==")
    print(f"forests {list(rep.forest_dims)} = compositions of {list(rep.prim_dims)}: {rep.ok}")

    print("\n== homology ==")
    report = koszul_report(weight_cap=n)
    ones = [p["betti"] for p in report.pieces if p["arity"] == 1]
    print(f"betti in arity 1 across weights: {ones}")
    print(f"koszul_ok={report.koszul_ok}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
