"""Fresh-process benchmark of three certified ``dipterous`` CLI computations.

Usage, from the root of a checkout of this repository:

    python3 perfbench/run.py --workload prim-semiinf-d7 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A closed loop with one client: every measured run is a fresh child process
(``child.py``) that imports ``dipterous.cli`` and calls ``cli.main`` once with
``--json``, because the memo tables are process-global and a CLI user refills
them on every call. Children run one at a time. Each run first makes one
discarded warm-up run of its workload's subcommand at tiny caps, then measures
runs for ``--seconds``, each followed by a few set-up-only children.

Every run's output goes through a correctness gate built on constants kept
here, not on the program's own oracles, and must be byte-identical to the
first measured run's output. A failing run counts in ``failed`` and its time
is not reported.

``--trace 0`` reports the end-to-end metrics (medians over runs). ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics of
``spans.py``; the traced output must be byte-identical to the untraced one.
``--workload all`` runs every workload both ways and prints every metric.
The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from spans import layer_metrics  # noqa: E402

RECORD_PREFIX = "PERFBENCH_RECORD "  # as in child.py
# A run ends within this many seconds of its start, whatever --seconds says.
RUN_DEADLINE_S = 165.0
# Unit of the per-layer values that are counts; they must repeat exactly.
COUNT_UNIT = "count"
# Set-up-only children after each measured run: set-up time is short and
# noisy, so it gets more samples than the runs themselves.
SETUP_PER_RUN = 4


# ---------------------------------------------------------------------------
# Correctness gate: expected results as constants, independent of dipterous.

# Little Schroeder numbers (planar trees without unary nodes, by leaves).
SEMIINF_DIMS = (1, 1, 3, 11, 45, 197, 903)
# Large Schroeder numbers (forests of such trees, by leaves).
FOREST_COUNTS = (1, 2, 6, 22, 90, 394)
# koszul_report's default arity cap.
MAX_ARITY = 4


def check_semiinf(dims: tuple[int, ...]) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        got = payload.get("semiinf", {}).get("dims")
        return None if got == list(dims) else f"semiinf dims {got} != {list(dims)}"

    return check


def check_homology(weight_cap: int) -> Callable[[dict], str | None]:
    expected = {
        (a, w): 1 if (a, w) == (1, 1) else 0
        for a in range(1, MAX_ARITY + 1)
        for w in range(a, weight_cap + 1)
    }

    def check(payload: dict) -> str | None:
        if payload.get("koszul_ok") is not True:
            return "koszul_ok is not true"
        got = {(p["arity"], p["weight"]): p["betti"] for p in payload.get("pieces", [])}
        if got != expected:
            wrong = sorted(set(got.items()) ^ set(expected.items()))
            return f"betti table differs at {wrong[:4]}"
        return None

    return check


def check_antipode(degree: int, entries: int) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        if payload.get("degree") != degree:
            return f"degree {payload.get('degree')} != {degree}"
        if payload.get("identities_ok") is not True:
            return "identities_ok is not true"
        table = payload.get("table", {})
        if len(table) != entries:
            return f"antipode table has {len(table)} entries, expected {entries}"
        if any(set(v) != {"S", "Sprime"} for v in table.values()):
            return "antipode table entry without both S and Sprime"
        return None

    return check


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]
    # The same subcommand at tiny caps: the discarded warm-up run, which
    # compiles the .pyc files and fills the file cache.
    warmup: tuple[str, ...]


PRIM_D4 = ("prim", "semiinf", "--max-degree", "4")
HOMOLOGY_W4 = ("homology", "--weight-cap", "4")
ANTIPODE_D4 = ("antipode", "4", "--max-degree", "4")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prim-semiinf-d7",
            ("prim", "semiinf", "--max-degree", "7"),
            check_semiinf(SEMIINF_DIMS),
            PRIM_D4,
        ),
        Workload("homology-w7", ("homology", "--weight-cap", "7"), check_homology(7), HOMOLOGY_W4),
        Workload(
            "antipode-d6",
            ("antipode", "6", "--max-degree", "6"),
            check_antipode(6, FOREST_COUNTS[5]),
            ANTIPODE_D4,
        ),
    )
}

# Tiny caps, for the benchmark's own tests.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("prim-semiinf-d4", PRIM_D4, check_semiinf(SEMIINF_DIMS[:4]), PRIM_D4),
        Workload("homology-w4", HOMOLOGY_W4, check_homology(4), HOMOLOGY_W4),
        Workload("antipode-d4", ANTIPODE_D4, check_antipode(4, FOREST_COUNTS[3]), ANTIPODE_D4),
    )
}


# ---------------------------------------------------------------------------
# Child processes.


@dataclass
class Child:
    """Outcome of one child process; ``failure`` is None when it passed the gate."""

    failure: str | None
    stdout: bytes = b""
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)


def spawn(mode: str, argv: tuple[str, ...], hash_seed: int, timeout: float) -> Child:
    """Run one child to completion, reading the whole of its stdout and stderr."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, CHILD, mode, *argv]
    spawned_ns = time.monotonic_ns()
    with subprocess.Popen(
        cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Child(f"{mode} child timed out after {timeout:.0f} s")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    text = err.decode(errors="replace")
    lines = text.splitlines()
    if proc.returncode != 0:
        return Child(f"exit code {proc.returncode}: {text[-400:].strip()}", out)
    if "Traceback" in text:
        return Child(f"traceback on stderr: {text[-400:].strip()}", out)
    if not lines or not lines[-1].startswith(RECORD_PREFIX):
        return Child(f"no record on stderr: {text[-400:].strip()}", out)
    record = json.loads(lines[-1][len(RECORD_PREFIX):])
    return Child(
        None,
        out,
        setup_s=(record["imported_ns"] - spawned_ns) / 1e9,
        wall_s=record.get("wall_s", 0.0),
        rss_mb=record.get("maxrss_kb", 0) / 1024,
        layers=record.get("layers", {}),
        missing=record.get("missing", []),
    )


def gate(workload: Workload, child: Child, reference: bytes | None) -> Child:
    """Fail ``child`` unless its JSON passes the workload's check (and matches ``reference``)."""
    if child.failure is None:
        try:
            payload = json.loads(child.stdout)
        except ValueError as exc:
            child.failure = f"stdout is not JSON: {exc}"
        else:
            child.failure = workload.check(payload) if isinstance(payload, dict) else "not an object"
    if child.failure is None and reference is not None and child.stdout != reference:
        child.failure = "stdout differs from the reference run's"
    return child


# ---------------------------------------------------------------------------
# One benchmark run.


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list[str]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float], unit: str) -> str:
    if not values:
        return "no successful runs"
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g} {unit}"


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    log=print,
) -> Result:
    """One discarded warm-up, then measured runs until ``seconds`` would be exceeded.

    ``attempted`` counts every child that ran a command, the warm-up included.
    Untraced, ``SETUP_PER_RUN`` set-up-only children follow each measured run,
    so set-up samples are spread over the whole run.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    rng = random.Random(seed)
    suffix = ("--json", "--seed", str(seed))
    notes: list[str] = []
    attempted = failed = 0

    def child(mode: str, argv: tuple[str, ...], reference: bytes | None, gated: bool = True) -> Child:
        nonlocal attempted, failed
        hash_seed = rng.randrange(1, 2**32)
        c = spawn(mode, argv + suffix, hash_seed, deadline - time.monotonic())
        if gated:
            c = gate(workload, c, reference)
        attempted += 1
        if c.failure is not None:
            failed += 1
            notes.append(f"{mode} {' '.join(argv)} (PYTHONHASHSEED={hash_seed}) failed: {c.failure}")
        return c

    child("run", workload.warmup, None, gated=False)
    reference = None
    untraced: list[Child] = []
    traced: list[Child] = []
    setups: list[float] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        c = child("run", workload.argv, reference)
        untraced.append(c)
        if reference is None and c.failure is None:
            reference = c.stdout
        if trace:
            traced.append(child("trace", workload.argv, reference))
        for _ in range(0 if trace else SETUP_PER_RUN):
            s = spawn("setup", (), rng.randrange(1, 2**32), deadline - time.monotonic())
            if s.failure is None:
                setups.append(s.setup_s)
            else:
                notes.append(f"setup child failed: {s.failure}")
        now = time.monotonic()
        last = now - t0
        if now - start + last > seconds or now + last > deadline:
            break

    good = [c for c in untraced if c.failure is None]
    counts_ok = True
    if not trace:
        wall = [c.wall_s for c in good]
        rss = [c.rss_mb for c in good]
        metrics = {
            "wall_s": (_median(wall), "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median(rss), "MB"),
        }
        log(f"  wall_s        {_spread(wall, 's')}")
        log(f"  setup_s       {_spread(setups, 's')}")
        log(f"  peak_rss_mb   {_spread(rss, 'MB')}")
    else:
        metrics, counts_ok = _layer_summary(traced, good, notes, log)
    log(f"  fail_ratio    {failed}/{attempted} = {failed / attempted:.4g}")
    return Result(failed == 0 and counts_ok, attempted, failed, metrics, notes)


def _layer_summary(
    traced: list[Child], untraced: list[Child], notes: list[str], log
) -> tuple[dict, bool]:
    """Medians of per-layer values over the traced runs, and whether counts agree exactly."""
    good = [c for c in traced if c.failure is None]
    if not good:
        return {}, True
    per_run = [layer_metrics(c.layers, c.wall_s, len(c.stdout)) for c in good]
    out = {}
    counts_ok = True
    for name, (_, unit) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        if unit == COUNT_UNIT:
            if len(set(values)) != 1:
                counts_ok = False
                notes.append(f"counts differ between traced runs: {name} = {values}")
            out[name] = (values[0], unit)
        else:
            out[name] = (_median(values), unit)
    wall = _median([c.wall_s for c in untraced])
    out["trace_overhead_ratio"] = (_median([c.wall_s for c in good]) / wall if wall else 0.0, "ratio")
    log(f"  traced runs {len(good)}, untraced runs {len(untraced)}")
    if out["linalg.max_nnz"][0]:
        rows, cols = good[0].layers["linalg.assemble"]["max_nnz_shape"]
        log(f"  largest matrix by nnz: {rows}x{cols}")
    if good[0].missing:
        log(f"  traced names not found: {', '.join(good[0].missing)}")
    for name, (value, unit) in out.items():
        log(f"  {name:28s} {value:.6g} {unit}")
    return out, counts_ok


# ---------------------------------------------------------------------------
# Command line.


def _checkout_ok() -> bool:
    return os.path.isfile(os.path.join("src", "dipterous", "cli.py"))


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    all_workloads = {**WORKLOADS, **SMOKE_WORKLOADS}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*all_workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Let a terminated run kill its running child on the way out (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not _checkout_ok():
        print("src/dipterous/cli.py not found: run from the root of a checkout", file=sys.stderr)
        return 2

    def run_one(w: Workload, trace: bool) -> Result:
        print(f"workload {w.name}: dipterous {' '.join(w.argv)} --json (seed {args.seed}, trace {int(trace)})")
        r = run_workload(w, args.seed, args.seconds, trace)
        for note in r.notes:
            print(f"  {note}", file=sys.stderr)
        return r

    if args.workload != "all":
        r = run_one(all_workloads[args.workload], bool(args.trace))
        print(_result_line(r.correct, r.attempted, r.failed, r.metrics))
        return 0 if r.correct else 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS.values():
        for trace in (False, True):
            r = run_one(w, trace)
            correct &= r.correct
            attempted += r.attempted
            failed += r.failed
            metrics.update({f"{w.name}/{k}": v for k, v in r.metrics.items()})
            metrics[f"{w.name}/fail_ratio.trace{int(trace)}"] = (r.failed / r.attempted, "ratio")
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
