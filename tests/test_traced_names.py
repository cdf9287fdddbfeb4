"""The benchmark tracer (``perfbench/spans.py``) wraps functions by name.

A renamed traced function would drop out of the trace silently, its time
moving to ``unattributed_s``, so every name it wraps must still resolve.
The tracer is only read here, never installed: installing it rebinds module
attributes for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

from dipterous import linalg, verify

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable():
    spans = load_spans()
    pairs = [pair for pairs in spans.LAYER_TARGETS.values() for pair in pairs]
    assert pairs
    unresolved = [
        f"{module}.{name}"
        for module, name in pairs
        if not callable(getattr(importlib.import_module(f"dipterous.{module}"), name, None))
    ]
    assert unresolved == []


def test_verify_defines_the_traced_checks():
    # The verify layer is every *_witness and *_suite function that
    # verify itself defines.
    checks = {
        name
        for name, obj in vars(verify).items()
        if callable(obj)
        and getattr(obj, "__module__", None) == verify.__name__
        and name.endswith(("_witness", "_suite"))
    }
    assert checks == {
        "antipode_witness",
        "axioms_suite",
        "bialgebra_suite",
        "coassoc_suite",
        "cocommutative_witness",
        "delta_coassoc_witness",
        "delta_compatibility_witness",
        "delta_nondegenerate_witness",
        "morphism_witness",
        "pbw_suite",
        "reduction_agreement_witness",
        "unit_law_witness",
        "unital_coassoc_witness",
    }


def test_operator_rank_calls_rank_through_the_module_attribute(monkeypatch):
    # The tracer rebinds ``linalg.rank``; operator_rank must reach the
    # rebound function, or its ranks drop out of ``linalg.rank_sum``.
    seen = []

    def traced_rank(rows):
        seen.append([dict(row) for row in rows])
        return -1

    monkeypatch.setattr(linalg, "rank", traced_rank)
    images = [linalg.LinComb({"u": 1, "v": 2}), linalg.LinComb({"v": -1})]
    assert linalg.operator_rank(iter(images)) == -1
    assert seen == [[{"u": 1, "v": 2}, {"v": -1}]]
