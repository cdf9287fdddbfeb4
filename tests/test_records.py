"""The package's record classes: frozen, validated on construction, and
importable without the ``dataclasses`` module and its import chain."""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dipterous.coproducts import PbwReport
from dipterous.dynamics import CoopTable, GrammarError, WeightedGraph
from dipterous.freealg import AlgebraTarget
from dipterous.homology import KoszulReport
from dipterous.linalg import LinComb, SparseMatrix
from dipterous.trees import FrozenInstanceError
from dipterous.verify import Check

ROOT = Path(__file__).resolve().parents[1]

# Modules that ``import dipterous.cli`` must not load: ``dataclasses`` and
# the chain it imports, and ``dynamics``, which only its command reads.
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "dipterous.dynamics")


def test_cli_import_skips_dataclasses_and_dynamics():
    # A fresh interpreter: pytest itself has loaded dataclasses here.
    code = f"import sys, dipterous.cli; print([m for m in {NOT_LOADED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


FROZEN = [
    (SparseMatrix(2, 3, {(0, 1): 2}), "entries"),
    (CoopTable(frozenset("a"), {"a": ((Fraction(1), ("a", "a")),)}), "rules"),
    (WeightedGraph(frozenset("v"), (("v", "v", Fraction(1)),)), "arcs"),
    (AlgebraTarget(LinComb.__add__, LinComb.__add__, {}, LinComb()), "zero"),
]

TUPLES = [
    (PbwReport((1,), (1,), (1,)), "prim_dims"),
    (KoszulReport((), True, True, True, True), "witness"),
    (Check("a check"), "witness"),
]


@pytest.mark.parametrize("record, name", FROZEN)
def test_frozen_records_refuse_assignment(record, name):
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("record, name", FROZEN)
def test_frozen_records_copy_field_by_field(record, name):
    clone = copy.copy(record)
    assert type(clone) is type(record)
    assert getattr(clone, name) == getattr(record, name)


@pytest.mark.parametrize("record, name", TUPLES)
def test_report_tuples_refuse_assignment(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SparseMatrix(2, 2, {(2, 0): 1}), ValueError, "entry (2, 0) out of bounds"),
        (lambda: SparseMatrix(2, 2, {(0, -1): 1}), ValueError, "entry (0, -1) out of bounds"),
        (
            lambda: CoopTable(frozenset("a"), {"b": ((Fraction(1), ("a", "a")),)}),
            GrammarError,
            "rule head 'b' not in alphabet",
        ),
        (
            lambda: CoopTable(frozenset("a"), {"a": ((Fraction(1), ("a", "z")),)}),
            GrammarError,
            "rule for 'a' uses unknown symbols",
        ),
        (
            lambda: WeightedGraph(frozenset("v"), (("v", "w", Fraction(1)),)),
            GrammarError,
            "arc v->w uses unknown vertex",
        ),
        (
            lambda: WeightedGraph(frozenset("vw"), (("v", "w", Fraction(1)), ("v", "w", Fraction(2)))),
            GrammarError,
            "duplicate arc v->w",
        ),
    ],
)
def test_records_reject_bad_input(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_sparse_matrix_keeps_exact_nonzero_entries():
    m = SparseMatrix(2, 2, {(0, 0): Fraction(4, 2), (1, 1): 0, (0, 1): Fraction(1, 3)})
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 3)}
    assert type(m.entries[0, 0]) is int
    assert SparseMatrix(1, 1).entries == {}


def test_algebra_targets_hash_by_identity():
    # eval_basis caches per target, so two targets with equal fields are
    # two cache keys.
    fields = (LinComb.__add__, LinComb.__add__, {0: LinComb()}, LinComb())
    a, b = AlgebraTarget(*fields), AlgebraTarget(*fields)
    assert a != b and a == a
    assert len({a, b}) == 2
