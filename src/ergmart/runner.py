"""Executes a validated experiment plan and persists its artifacts.

Outputs are byte-deterministic for a fixed config+seed: trace.csv (decimal
text, 17 significant digits), reports.json (every inequality/orlicz report),
and manifest.json (config echo + seed + library version). All content is
assembled in memory before anything is written, so a failing run leaves no
partial files.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .config import CheckSpec, ConfigError, ExperimentPlan
from .inequalities import (
    InequalityReport,
    auto_epsilons,
    default_box,
    dominant_check,
    epsilon_sweep,
    orlicz_class_report,
    sup_field,
)
from .observables import linf_norm
from .processes import convergence_trace

__all__ = ["RunResult", "execute_plan", "render_trace_csv"]


@dataclass(frozen=True)
class RunResult:
    any_check_failed: bool
    files: tuple[str, ...]


def _report_dict(rep: InequalityReport) -> dict:
    return {
        "theorem": rep.theorem_tag,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "constant": rep.constant,
        "p": rep.p,
        "epsilon": rep.epsilon,
        "satisfied": rep.satisfied,
        "margin": rep.margin,
        "alpha": rep.alpha,
        "truncation": rep.truncation.describe(),
    }


def render_trace_csv(trace) -> str:
    lines = ["n1,n2,lp_error,sup_error"]
    for row in trace.rows:
        lines.append(f"{row.n1},{row.n2},{row.lp_error:.17g},{row.sup_error:.17g}")
    return "\n".join(lines) + "\n"


_NUMBERS = {int, float}
_ROWS = {list, tuple}


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n",
    byte for byte. With an indent, json uses its pure-Python encoder, which
    spends most of a manifest's time on the config echo's long lists of
    numbers and builds an encoder for every call; so lists of numbers are
    joined here directly, and strings (keys too), ints, finite floats,
    booleans and None are written here as json writes them (_json_scalar).
    Only other values go through json."""
    return _json_block(obj, "\n") + "\n"


def _json_block(obj, newline: str) -> str:
    """The indented JSON text of obj, whose lines after the first start with
    `newline` (a line break and the indent of obj's own line)."""
    inner = newline + "  "
    if isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        # int and float reprs are json's own number texts
        if kinds <= _NUMBERS:
            body = ("," + inner).join(map(repr, obj))
        elif (kinds <= _ROWS and all(obj)
              and set(map(type, itertools.chain.from_iterable(obj))) <= _NUMBERS):
            deeper = inner + "  "
            body = ("," + inner).join(["[" + deeper + ("," + deeper).join(map(repr, row))
                                       + inner + "]" for row in obj])
        else:
            return "[" + inner + ("," + inner).join(
                [_json_block(v, inner) for v in obj]) + newline + "]"
        if "n" in body:  # inf or nan, which json refuses
            json.dumps(obj, allow_nan=False)
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_block(obj[k], inner) for k in sorted(obj)]
        ) + newline + "}"
    if isinstance(obj, (list, tuple, dict)):
        # empty, or a dict whose keys json must convert before it sorts them
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False).replace("\n", newline)
    return _json_scalar(obj)


def _json_scalar(obj) -> str:
    """json.dumps(obj, allow_nan=False) of a scalar. A str goes through
    json's own ASCII escaper, an int or finite float through its repr (json's
    number text), a bool or None is its literal; any other value (a subclass,
    a non-finite float) goes to json."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int or (kind is float and math.isfinite(obj)):
        return repr(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    return json.dumps(obj, allow_nan=False)


def _epsilons(plan: ExperimentPlan, chk: CheckSpec) -> tuple[float, ...]:
    """The levels of a maximal check: its own, or "autoK" spread over the sup field."""
    if not isinstance(chk.epsilons, str):
        return chk.epsilons
    box = default_box(plan.spec, n_factor=chk.box_factor)
    top = linf_norm(sup_field(plan.spec, box), plan.spec.norm)
    return auto_epsilons(top, int(chk.epsilons[4:]))


def _check_reports(plan: ExperimentPlan, chk: CheckSpec) -> list[dict]:
    box = default_box(plan.spec, n_factor=chk.box_factor)
    if chk.type == "dominant":
        return [_report_dict(dominant_check(plan.spec, chk.p, box))]
    if chk.type == "maximal":
        return [_report_dict(r) for r in
                epsilon_sweep(plan.spec, chk.p, _epsilons(plan, chk), box)]
    rep = orlicz_class_report(plan.spec, chk.m, box)
    return [{
        "theorem": "orlicz-class",
        "m": rep.m,
        "input_functional": rep.input_functional,
        "sup_functional": rep.sup_functional,
        "both_finite": rep.both_finite,
        "satisfied": rep.both_finite,
        "truncation": rep.truncation.describe(),
    }]


def _run_checks(plan: ExperimentPlan) -> list[dict]:
    """Every check's reports; a bound that leaves the float range is a
    ConfigError naming an Orlicz check's m, else the check (a huge p, a tiny
    epsilon)."""
    out: list[dict] = []
    for k, chk in enumerate(plan.checks):
        try:
            reports = _check_reports(plan, chk)
            finite = all(math.isfinite(v) for rep in reports
                         for v in rep.values() if isinstance(v, float))
        except OverflowError:
            finite = False
        if not finite and chk.type == "orlicz":
            raise ConfigError(f"checks[{k}].m", "the Orlicz functionals are not finite "
                              "floats at this m; use a smaller m")
        if not finite:
            raise ConfigError(f"checks[{k}]", "the bound is not a finite float; "
                              "use a smaller p or larger epsilons")
        out.extend(reports)
    return out


def execute_plan(plan: ExperimentPlan, out_dir: str | Path) -> RunResult:
    """Computes the trace and all checks, then writes the three artifacts;
    raises ConfigError, before writing anything, when a bound overflows."""
    trace = convergence_trace(plan.spec, plan.n1_grid, plan.n2_grid, plan.trace_p)
    reports = _run_checks(plan)
    manifest = {
        "config": plan.config_echo,
        "seed": plan.seed,
        "version": __version__,
        "target": trace.target_description,
    }
    trace_text = render_trace_csv(trace)
    reports_text = _json_text(reports)
    manifest_text = _json_text(manifest)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.csv").write_text(trace_text)
    (out / "reports.json").write_text(reports_text)
    (out / "manifest.json").write_text(manifest_text)
    return RunResult(any_check_failed=any(not r.get("satisfied", True) for r in reports),
                     files=("trace.csv", "reports.json", "manifest.json"))
