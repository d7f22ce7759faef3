"""Per-layer spans and counters, recorded from outside the program.

`Tracer` replaces the public functions of each maskcc module with a timing
wrapper wherever a maskcc module binds them (so `from .solver import solve`
in the oracle is caught too), records one span per call (name, start, end,
parent, kernel id) in memory, and restores the originals on exit. Counters
are read from each call's arguments and result. Self time is a span's
duration minus the time its child spans cover.

The layers are the package's modules. `target` (preset lookup) and `bits`
(word arithmetic called from inside other layers) are not traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

TRACED = {
    "ir": ("parse_program", "validate"),
    "model": ("elaborate", "build_base_model", "add_security_constraints",
              "add_implied_constraints"),
    "typeinf": ("infer_types",),
    "secsets": ("compute_sets",),
    "solver": ("solve", "enumerate_solutions"),
    "leakage": ("linearize", "check_equivalence", "leak_stats"),
    "oracle": ("compare_with_solver", "brute_force", "enumerate_all"),
    "cli": ("main", "analysis_dict", "render_asm"),
}

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "ir.parse_s": ("ir.parse_program", "ir.validate"),
    "model.elaborate_s": ("model.elaborate",),
    "model.build_s": ("model.build_base_model",),
    "model.secure_s": ("model.add_security_constraints", "model.add_implied_constraints"),
    "typeinf.infer_s": ("typeinf.infer_types",),
    "secsets.compute_s": ("secsets.compute_sets",),
    "solver.solve_s": ("solver.solve",),
    "solver.enumerate_s": ("solver.enumerate_solutions",),
    "leakage.linearize_s": ("leakage.linearize",),
    "leakage.verify_s": ("leakage.check_equivalence", "leakage.leak_stats"),
    "oracle.brute_force_s": ("oracle.brute_force",),
    "oracle.enumerate_s": ("oracle.enumerate_all",),
    "oracle.compare_s": ("oracle.compare_with_solver",),
    "cli.self_s": ("cli.main",),
    "cli.report_s": ("cli.analysis_dict", "cli.render_asm"),
}

COUNTS = (
    "ir.ops", "typeinf.temps", "secsets.calls", "secsets.pairs", "model.elab_ops",
    "model.constraints", "solver.nodes", "solver.propagations", "solver.leaves",
    "solver.enumerated", "leakage.assignments", "oracle.solutions",
)


def _sampling_kind(sampling) -> str:
    return "montecarlo" if hasattr(sampling, "samples") else "exhaustive"


def _assignments(harness, sampling) -> int:
    if hasattr(sampling, "samples"):
        return sampling.samples
    return (1 << harness.width) ** len(harness.random_inputs())


def _count(span_name, args, kwargs, result, counts, tags) -> None:
    """Read a call's counters from its arguments and result."""
    if span_name == "ir.parse_program":
        counts["ir.ops"] += len(result.body)
    elif span_name == "typeinf.infer_types":
        counts["typeinf.temps"] += len(result.classes)
    elif span_name == "secsets.compute_sets":
        counts["secsets.calls"] += 1
        counts["secsets.pairs"] += (len(result.rpairs) + len(result.spairs)
                                    + len(result.mmpairs) + len(result.mspairs))
    elif span_name == "model.elaborate":
        counts["model.elab_ops"] += len(result.ops)
    elif span_name == "solver.solve":
        counts["model.constraints"] += len(args[0].constraints)
        counts["solver.nodes"] += result.stats.nodes
        counts["solver.propagations"] += result.stats.propagations
        counts["solver.leaves"] += result.stats.leaves
    elif span_name == "solver.enumerate_solutions":
        counts["solver.enumerated"] += len(result[0])
    elif span_name == "leakage.check_equivalence":
        tags["sampling"] = _sampling_kind(args[3] if len(args) > 3 else kwargs.get("sampling"))
    elif span_name == "leakage.leak_stats":
        sampling = args[2] if len(args) > 2 else kwargs.get("sampling")
        tags["sampling"] = _sampling_kind(sampling)
        counts["leakage.assignments"] += _assignments(args[0], sampling)
    elif span_name == "oracle.enumerate_all":
        counts["oracle.solutions"] += len(result)


class Tracer:
    """Context manager: wraps the traced functions while active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, kernel, tags]
        self.counts: dict[str, int] = defaultdict(int)
        self.kernel: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [span_name, time.perf_counter(), None, parent, self.kernel, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            _count(span_name, args, kwargs, result, self.counts, span[5])
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"maskcc.{layer}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "maskcc" and not modname.startswith("maskcc."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, val in self._undo:
            setattr(mod, attr, val)
        self._undo.clear()
        return False

    def self_times(self) -> list[tuple[str, str | None, float, dict]]:
        """(span name, kernel, self seconds, tags) per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, kernel, tags in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, kernel, (end - start) - child[i], tags)
            for i, (name, start, end, parent, kernel, tags) in enumerate(self.spans)
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics for everything recorded so far."""
        selfs = self.self_times()
        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(s for n, _, s, _ in selfs if n in names)
        for kind in ("exhaustive", "montecarlo"):
            out[f"leakage.verify_{kind}_s"] = sum(
                s for n, _, s, tags in selfs
                if n in SELF_TIME["leakage.verify_s"] and tags.get("sampling") == kind
            )
        for name in COUNTS:
            out[name] = self.counts[name]
        nodes = out["solver.nodes"]
        out["solver.nodes_per_s"] = nodes / out["solver.solve_s"] if out["solver.solve_s"] else 0.0
        out["solver.leaf_ratio"] = out["solver.leaves"] / nodes if nodes else 0.0
        out["leakage.assignments_per_s"] = (
            out["leakage.assignments"] / out["leakage.verify_s"] if out["leakage.verify_s"] else 0.0
        )
        return out

    def kernel_times(self) -> dict[str, dict[str, float]]:
        """Self seconds per kernel and layer metric."""
        rows: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        lookup = {n: metric for metric, names in SELF_TIME.items() for n in names}
        for name, kernel, s, _ in self.self_times():
            rows[kernel][lookup[name]] += s
        return {k: dict(v) for k, v in rows.items()}
