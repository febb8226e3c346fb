"""Span recorder for the traced run.

The recorder wraps the public functions of each ergmart layer from outside the
library: every module binding that holds one of the target functions (the
name as its caller looks it up, e.g. `runner.sup_field`,
`inequalities.sup_field`, `fuzz.sup_field`) is replaced by one wrapper, and
every binding is restored on exit. Spans (name, start, end, parent) and
counters are kept in memory; `layer_metrics` turns them into per-layer self
times, counts and sizes.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); several functions may share a span name
TARGETS = (
    ("config", "build_experiment", "config.build"),
    ("operators", "cycles", "operators.cycles"),
    ("operators", "averaging_matrix", "operators.dense"),
    ("operators", "cond_expect", "operators.cond_expect"),
    ("averages", "composite_cond_expect", "averages.composite"),
    ("averages", "ergodic_average", "averages.eval"),
    ("averages", "weighted_average", "averages.eval"),
    ("averages", "running_weighted_averages", "averages.stack"),
    ("processes", "convergence_trace", "processes.trace"),
    ("processes", "evaluate", "processes.evaluate"),
    ("processes", "limit_target", "processes.reference"),
    ("processes", "stabilized_reference", "processes.reference"),
    ("inequalities", "sup_field", "inequalities.sup"),
    ("inequalities", "dominant_check", "inequalities.dominant"),
    ("inequalities", "epsilon_sweep", "inequalities.maximal"),
    ("inequalities", "orlicz_class_report", "inequalities.orlicz"),
    ("generators", "random_process_instance", "generators.instance"),
    ("fuzz", "run_inequality_fuzz", "fuzz.run"),
    ("fuzz", "_check_instance", "fuzz.instance"),
    ("runner", "execute_plan", "runner.execute"),
    ("selfcheck", "run_selfcheck", "selfcheck.run"),
)

FAMILIES = ("single_me", "single_em", "weighted_me", "weighted_em", "multi_me", "multi_em")
SECTIONS = ("partition lattice", "norms", "operator algebra", "averaging laws",
            "process convergence", "weighted stabilization", "constant catalog",
            "canonical regression")

# name -> (unit, better); the order is the order of the per-layer output
PER_LAYER = {
    "config.build_s": ("s", "lower"),
    "operators.cycles_calls": ("count", "lower"),
    "operators.cycles_s": ("s", "lower"),
    "operators.dense_matrices": ("count", "lower"),
    "operators.dense_bytes": ("bytes", "lower"),
    "operators.dense_s": ("s", "lower"),
    "operators.cond_expect_calls": ("count", "lower"),
    "operators.cond_expect_s": ("s", "lower"),
    "averages.composite_s": ("s", "lower"),
    "averages.evals": ("count", "lower"),
    "averages.steps": ("count", "lower"),
    "averages.eval_s": ("s", "lower"),
    "averages.stack_calls": ("count", "lower"),
    "averages.stack_bytes": ("bytes", "lower"),
    "averages.stack_s": ("s", "lower"),
    "processes.trace_s": ("s", "lower"),
    "processes.trace_rows": ("count", "lower"),
    "processes.evaluate_calls": ("count", "lower"),
    "processes.evaluate_s": ("s", "lower"),
    "processes.reference_s": ("s", "lower"),
    "inequalities.sup_builds": ("count", "lower"),
    "inequalities.table_cells": ("count", "lower"),
    "inequalities.sup_s": ("s", "lower"),
    "inequalities.distinct_sup_frac": ("fraction", "higher"),
    "inequalities.dominant_s": ("s", "lower"),
    "inequalities.maximal_s": ("s", "lower"),
    "inequalities.orlicz_s": ("s", "lower"),
    "generators.instances": ("count", "higher"),
    "generators.instance_s": ("s", "lower"),
    "fuzz.instances": ("count", "higher"),
    "fuzz.failed": ("count", "lower"),
    "fuzz.instance_s.p50": ("s", "lower"),
    "fuzz.instance_s.p99": ("s", "lower"),
    **{f"fuzz.{fam}.s": ("s", "lower") for fam in FAMILIES},
    **{f"invariants.{sec.replace(' ', '_')}.s": ("s", "lower") for sec in SECTIONS},
    "runner.self_s": ("s", "lower"),
    "runner.bytes_written": ("bytes", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def _percentile(xs: list[float], p: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def _stage_combinations(box) -> int:
    out = 1
    for stages in box.stage_sets:
        out *= len(stages)
    return out


class Recorder:
    """Installs the wrappers on enter and restores every binding on exit; it
    may be entered again, and spans accumulate across entries."""

    def __init__(self, package: str = "ergmart"):
        self.package = package
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.instances: list[tuple[str, float]] = []  # (family, seconds)
        self.sup_keys: set = set()
        self._keep: list = []           # specs stay alive so their ids stay unique
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pass = 0
        self.missing: list[str] = []    # targets this version of the library lacks

    # ------------------------------------------------------------ patching
    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _rebind(self, original, replacement):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self):
        self.missing = []
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(f"{self.package}.{mod_name}")
            original = getattr(mod, attr, None)
            if original is None:  # removed by a later version: its metrics read 0
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._rebind(original, self._wrap(span, original))
        inv = importlib.import_module(f"{self.package}.invariants")
        sections = [(name, self._wrap("invariants." + name.replace(" ", "_"), fn))
                    for name, fn in inv.SECTIONS]
        self._rebind(inv.SECTIONS, sections)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def next_pass(self):
        """Marks the start of a new solve; sup builds are deduplicated per solve."""
        self._pass += 1
        self._keep.clear()

    # ------------------------------------------------------------ spans
    def _wrap(self, name, fn):
        # counters: the method _on_<span name, '.' as '_'>, run after the call
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return wrapper

    def _on_operators_dense(self, span, args, kwargs, result):
        n = args[0].space.size
        self.counts["operators.dense_bytes"] += 8 * n * n

    def _on_averages_eval(self, span, args, kwargs, result):
        n = kwargs["n"] if "n" in kwargs else args[-1]
        self.counts["averages.steps"] += n * args[0].values.size

    def _on_averages_stack(self, span, args, kwargs, result):
        self.counts["averages.stack_bytes"] += result.nbytes

    def _on_processes_trace(self, span, args, kwargs, result):
        self.counts["processes.trace_rows"] += len(result.rows)

    def _on_inequalities_sup(self, span, args, kwargs, result):
        spec = args[0]
        box = args[1] if len(args) > 1 else kwargs.get("box")
        self._keep.append(spec)
        key = (self._pass, id(spec)) + ((box.n_max, box.stage_sets) if box else ())
        self.sup_keys.add(key)
        if box is not None:
            cells = _stage_combinations(box) * spec.f.values.size
            for n in box.n_max:
                cells *= n
            self.counts["inequalities.table_cells"] += cells

    def _on_fuzz_instance(self, span, args, kwargs, result):
        inst, stats = args[0], args[1]
        self.instances.append((inst.family, span[2] - span[1]))
        if stats.failures and stats.failures[-1][0] == inst.seed:
            self.counts["fuzz.failed"] += 1

    def _on_runner_execute(self, span, args, kwargs, result):
        out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
        self.counts["runner.bytes_written"] += sum((out / f).stat().st_size
                                                   for f in result.files)

    # ------------------------------------------------------------ metrics
    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(self seconds, inclusive seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), c in zip(self.spans, child):
            self_s[name] += end - start - c
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def layer_metrics(self, passes: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics for one solve: totals divided by the solve count."""
        self_s, total_s, calls = self.self_times()
        per = 1.0 / max(passes, 1)
        inst = [s for _, s in self.instances]
        sup_builds = calls["inequalities.sup"]
        out = {
            "config.build_s": self_s["config.build"],
            "operators.cycles_calls": calls["operators.cycles"],
            "operators.cycles_s": self_s["operators.cycles"],
            "operators.dense_matrices": calls["operators.dense"],
            "operators.dense_bytes": self.counts["operators.dense_bytes"],
            "operators.dense_s": self_s["operators.dense"],
            "operators.cond_expect_calls": calls["operators.cond_expect"],
            "operators.cond_expect_s": self_s["operators.cond_expect"],
            "averages.composite_s": self_s["averages.composite"],
            "averages.evals": calls["averages.eval"],
            "averages.steps": self.counts["averages.steps"],
            "averages.eval_s": self_s["averages.eval"],
            "averages.stack_calls": calls["averages.stack"],
            "averages.stack_bytes": self.counts["averages.stack_bytes"],
            "averages.stack_s": self_s["averages.stack"],
            "processes.trace_s": self_s["processes.trace"],
            "processes.trace_rows": self.counts["processes.trace_rows"],
            "processes.evaluate_calls": calls["processes.evaluate"],
            "processes.evaluate_s": self_s["processes.evaluate"],
            # inclusive: a reference is evaluations, which would take all its self time
            "processes.reference_s": total_s["processes.reference"],
            "inequalities.sup_builds": sup_builds,
            "inequalities.table_cells": self.counts["inequalities.table_cells"],
            "inequalities.sup_s": self_s["inequalities.sup"],
            "inequalities.dominant_s": self_s["inequalities.dominant"],
            "inequalities.maximal_s": self_s["inequalities.maximal"],
            "inequalities.orlicz_s": self_s["inequalities.orlicz"],
            "generators.instances": calls["generators.instance"],
            "generators.instance_s": self_s["generators.instance"],
            "fuzz.instances": len(inst),
            "fuzz.failed": self.counts["fuzz.failed"],
            "runner.self_s": self_s["runner.execute"],
            "runner.bytes_written": self.counts["runner.bytes_written"],
        }
        for fam in FAMILIES:
            out[f"fuzz.{fam}.s"] = sum(s for f, s in self.instances if f == fam)
        for sec in SECTIONS:
            key = "invariants." + sec.replace(" ", "_")
            out[key + ".s"] = total_s[key]
        out = {k: v * per for k, v in out.items()}
        # ratios and distributions are not per-solve totals
        out["inequalities.distinct_sup_frac"] = (len(self.sup_keys) / sup_builds
                                                 if sup_builds else 0.0)
        out["fuzz.instance_s.p50"] = _percentile(inst, 50)
        out["fuzz.instance_s.p99"] = _percentile(inst, 99)
        out["trace.overhead_frac"] = overhead_frac
        return {name: float(out[name]) for name in PER_LAYER}

    def dump(self, path) -> None:
        """Writes every span and counter as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
