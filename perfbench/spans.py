"""Per-layer spans recorded from outside the program.

A ``Tracer`` wraps the public functions each layer of ``dipterous`` calls,
by rebinding them as module attributes in every ``dipterous`` module that
holds them, so the real code runs unchanged. Each outermost call into a
layer is a span: its self time is its duration minus the time covered by
the spans of other layers opened inside it. A call made while a span of the
same layer is open (a recursive call, or one layer function calling
another) adds to the call count only.

Names that a later version of the program no longer defines are skipped and
listed in ``Tracer.missing``; the time they covered then shows up as
``unattributed_s`` instead of as a saving.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

PACKAGE = "dipterous"

# layer -> (module, function) pairs whose calls open a span of that layer.
# The verify layer is every ``*_witness`` and ``*_suite`` function of verify.
LAYER_TARGETS = {
    "trees": [("freealg", "dipt_basis_of_degree"), ("homology", "chain_basis")],
    "coproducts": [("coproducts", "delta_basis")],
    "bialgebras": [
        ("bialgebras", name)
        for name in (
            "blacktriangle_basis",
            "vartriangle_basis",
            "hopf_delta_basis",
            "antipode_S",
            "antipode_Sprime",
        )
    ],
    "homology": [("homology", name) for name in ("differential", "face", "homotopy")],
    "linalg.assemble": [("linalg", "matrix_of_images")],
    "linalg.eliminate": [("linalg", name) for name in ("rank", "kernel_basis", "intersect_kernels")],
    "verify": [],
    "cli": [("cli", "_emit")],
}

# Groups whose ru_maxrss growth is reported: the module names of the layers.
RSS_GROUPS = ("trees", "coproducts", "bialgebras", "homology", "linalg", "verify", "cli")


def _n_terms(x) -> int:
    """Number of basis terms of a LinComb, TensorElement or UnitalElement."""
    body = getattr(x, "body", None)
    if body is not None:
        return len(body.terms) + (1 if x.scalar else 0)
    return len(x.terms)


def _count_basis(counts: dict, result) -> None:
    counts["basis_elems"] += len(result)


def _count_image(counts: dict, result) -> None:
    counts["image_terms"] += _n_terms(result)


def _count_matrix(counts: dict, result) -> None:
    matrix = result[0]
    nnz = len(matrix.entries)
    counts["matrices"] += 1
    counts["rows"] += matrix.nrows
    counts["cols"] += matrix.ncols
    counts["nnz"] += nnz
    if nnz > counts["max_nnz"]:
        counts["max_nnz"] = nnz
        counts["max_nnz_shape"] = [matrix.nrows, matrix.ncols]


def _count_elimination(counts: dict, result) -> None:
    if isinstance(result, int):
        counts["rank_sum"] += result
    else:
        counts["kernel_dim_sum"] += len(result)


def _count_nothing(counts: dict, result) -> None:
    pass


MEASURES = {
    "trees": (_count_basis, {"basis_elems": 0}),
    "coproducts": (_count_image, {"image_terms": 0}),
    "bialgebras": (_count_image, {"image_terms": 0}),
    "homology": (_count_image, {"image_terms": 0}),
    "linalg.assemble": (
        _count_matrix,
        {"matrices": 0, "rows": 0, "cols": 0, "nnz": 0, "max_nnz": 0, "max_nnz_shape": [0, 0]},
    ),
    "linalg.eliminate": (_count_elimination, {"rank_sum": 0, "kernel_dim_sum": 0}),
    "verify": (_count_nothing, {}),
    "cli": (_count_nothing, {}),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class LayerStats:
    __slots__ = ("calls", "self_s", "rss_kb", "open", "counts")

    def __init__(self, counts: dict):
        self.calls = 0
        self.self_s = 0.0
        self.rss_kb = 0
        self.open = False
        self.counts = dict(counts)


class Tracer:
    def __init__(self):
        self.layers = {name: LayerStats(MEASURES[name][1]) for name in LAYER_TARGETS}
        # Time covered by child spans, one accumulator per open span, innermost last.
        self._open = []
        self.missing: list[str] = []

    def _wrap(self, layer: str, fn):
        stats = self.layers[layer]
        measure = MEASURES[layer][0]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            if stats.open:
                return fn(*args, **kwargs)
            stats.open = True
            rss0 = _maxrss_kb()
            covered = [0.0]
            open_spans.append(covered)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                stats.open = False
                stats.self_s += duration - covered[0]
                if open_spans:
                    open_spans[-1][0] += duration
                stats.rss_kb += _maxrss_kb() - rss0
            measure(stats.counts, result)
            return result

        return wrapper

    def _targets(self):
        verify = sys.modules.get(f"{PACKAGE}.verify")
        checks = sorted(
            name
            for name, obj in vars(verify or object()).items()
            if callable(obj)
            and getattr(obj, "__module__", None) == f"{PACKAGE}.verify"
            and name.endswith(("_witness", "_suite"))
        )
        for layer, pairs in LAYER_TARGETS.items():
            if layer == "verify":
                pairs = [("verify", name) for name in checks]
            for module, name in pairs:
                yield layer, module, name

    def install(self) -> None:
        """Rebind every traced function in every loaded ``dipterous`` module."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for layer, module, name in self._targets():
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), name, None)
            if not callable(original):
                self.missing.append(f"{module}.{name}")
                continue
            wrapped = self._wrap(layer, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def record(self) -> dict:
        """Plain-data summary of every layer, for the child's report."""
        return {
            name: {"calls": s.calls, "self_s": s.self_s, "rss_kb": s.rss_kb, **s.counts}
            for name, s in self.layers.items()
        }


def layer_metrics(layers: dict, wall_s: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    ``layers`` is ``Tracer.record()``; ``wall_s`` is the traced run's wall
    time and ``output_bytes`` the size of what the CLI printed.
    """
    L = layers
    out = {
        "trees.enumerate_s": (L["trees"]["self_s"], "s"),
        "trees.calls": (L["trees"]["calls"], "count"),
        "trees.basis_elems": (L["trees"]["basis_elems"], "count"),
    }
    for layer in ("coproducts", "bialgebras", "homology"):
        out[f"{layer}.images_s"] = (L[layer]["self_s"], "s")
        out[f"{layer}.calls"] = (L[layer]["calls"], "count")
        out[f"{layer}.image_terms"] = (L[layer]["image_terms"], "count")
    asm, elim = L["linalg.assemble"], L["linalg.eliminate"]
    out.update(
        {
            "linalg.assemble_s": (asm["self_s"], "s"),
            "linalg.matrices": (asm["matrices"], "count"),
            "linalg.rows": (asm["rows"], "count"),
            "linalg.cols": (asm["cols"], "count"),
            "linalg.nnz": (asm["nnz"], "count"),
            "linalg.max_nnz": (asm["max_nnz"], "count"),
            "linalg.eliminate_s": (elim["self_s"], "s"),
            "linalg.rank_sum": (elim["rank_sum"], "count"),
            "linalg.kernel_dim_sum": (elim["kernel_dim_sum"], "count"),
            "verify.check_s": (L["verify"]["self_s"], "s"),
            "verify.calls": (L["verify"]["calls"], "count"),
            "cli.report_s": (L["cli"]["self_s"], "s"),
            "cli.output_bytes": (output_bytes, "count"),
        }
    )
    for group in RSS_GROUPS:
        kb = sum(s["rss_kb"] for name, s in L.items() if name.split(".")[0] == group)
        out[f"{group}.rss_growth_mb"] = (kb / 1024, "MB")
    out["unattributed_s"] = (wall_s - sum(s["self_s"] for s in L.values()), "s")
    return out
