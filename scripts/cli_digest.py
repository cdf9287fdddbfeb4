#!/usr/bin/env python3
"""Print one digest line for each command of a fixed list of CLI runs.

Each command runs as a fresh ``python -m dipterous.cli`` process, with this
checkout's ``src/`` on the path and its root as the working directory. Its
line holds the exit code, the sha256 of stdout, the sha256 of stderr and
the argv. Two checkouts give byte-identical outputs on the list exactly when
their digests agree, which one ``diff`` shows:

    python3 scripts/cli_digest.py > new.txt
    python3 /path/to/other/checkout/scripts/cli_digest.py > old.txt
    diff old.txt new.txt

Usage: python scripts/cli_digest.py
"""

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCHMARKED = [
    ["prim", "semiinf", "--max-degree", "7"],
    ["homology", "--weight-cap", "7"],
    ["antipode", "6", "--max-degree", "6"],
]

COMMANDS = [
    *(argv + output for argv in BENCHMARKED for output in ([], ["--json"])),
    *(["prim", "semiinf", "--max-degree", "6", f"--t={t}"] for t in ("0", "1/2", "-3/7")),
    ["prim", "both", "--max-degree", "6"],
    ["dims", "all", "--max-degree", "7"],
    # Tree and forest enumeration through degree 9 (41,586 forests).
    ["dims", "all", "--max-degree", "9"],
    ["verify", "all"],
    ["verify", "all", "--json"],
    ["verify", "axioms", "--json"],
    ["verify", "coassoc", "--json"],
    ["verify", "coassoc", "--max-degree", "6"],
    ["homology", "--weight-cap", "5"],
    *(["homology", "--weight-cap", w, *output] for w in ("1", "8") for output in ([], ["--json"])),
    ["dynamics", "scripts/data/substitution.grammar", "s", "4"],
    ["dynamics", "scripts/data/substitution.grammar", "s", "4", "--json"],
    ["dynamics", "scripts/data/substitution.grammar", "zz", "2"],
    ["verify", "pbw", "--max-degree", "7"],
    # One degree past the benchmarked antipode table and primitive run.
    ["antipode", "7", "--max-degree", "7", "--json"],
    ["prim", "semiinf", "--max-degree", "8", "--json"],
    # One degree past `prim both --max-degree 6`; the cocommutative
    # coproduct follows each key's split() through eval_basis.
    ["prim", "hopf", "--max-degree", "7", "--json"],
    # Past the benchmarked caps: each ranks its top degree from uncached
    # coproduct images.
    ["prim", "semiinf", "--max-degree", "9", "--json"],
    ["verify", "pbw", "--max-degree", "8", "--json"],
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str]) -> str:
    """``<exit code> <sha256 of stdout> <sha256 of stderr> <argv>`` of one run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dipterous.cli", *argv], cwd=ROOT, env=env, capture_output=True
    )
    return f"{proc.returncode} {sha256(proc.stdout)} {sha256(proc.stderr)} {shlex.join(argv)}"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for argv in COMMANDS:
        print(digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
