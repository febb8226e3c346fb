"""The two unified double-index processes and their convergence diagnostics.

A martingale-ergodic evaluation conditions an ergodic (possibly weighted,
possibly multiparameter) average on a filtration stage; an ergodic-martingale
evaluation averages a conditioned observable. Both share one limit object in
the unweighted case: the orbit average conditioned on the stabilized stage.
On a finite space pointwise-everywhere convergence coincides with a.e.
convergence, so the sup-norm error column of a trace witnesses the pointwise
claims and the L_p column the norm claims.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .averages import (
    BesicovitchWeights,
    composite_cond_expect,
    ergodic_average,
    ergodic_limit,
    weighted_average,
)
from .measure import Filtration
from .observables import NormSpec, VectorObservable, linf_norm, lp_norm, mean
from .operators import Endomorphism, orbit_lcm

__all__ = [
    "MARTINGALE_ERGODIC",
    "ERGODIC_MARTINGALE",
    "ProcessSpec",
    "TraceRow",
    "ConvergenceTrace",
    "MeanIdentityReport",
    "evaluate",
    "limit_target",
    "convergence_trace",
    "mean_identity_check",
    "stabilization_periods",
    "stabilized_reference",
    "tail_variation",
    "default_n1_grid",
]

MARTINGALE_ERGODIC = "martingale_ergodic"
ERGODIC_MARTINGALE = "ergodic_martingale"

_TOL = 1e-12


@dataclass(frozen=True, eq=False, repr=False)
class ProcessSpec:
    """One process instance: observable, maps, filtrations, optional weights
    (one weight sequence or None per map; None entries become the constant
    sequence 1 unless all are None, which leaves the spec unweighted)."""

    kind: str
    f: VectorObservable
    maps: tuple[Endomorphism, ...]
    filtrations: tuple[Filtration, ...]
    weights: tuple[BesicovitchWeights | None, ...] | None = None
    norm: NormSpec = NormSpec()

    def __post_init__(self):
        if self.kind not in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
            raise ValueError(f"unknown process kind {self.kind!r}")
        maps = tuple(self.maps)
        filts = tuple(self.filtrations)
        if not maps or not filts:
            raise ValueError("need at least one map and one filtration")
        space = self.f.space
        for t in maps:
            if t.space != space:
                raise ValueError("maps must share the observable's space")
        for fl in filts:
            if fl.space != space:
                raise ValueError("filtrations must share the observable's space")
        if self.weights is not None:
            weights = tuple(self.weights)
            if len(weights) != len(maps):
                raise ValueError("one weight sequence (or None) per map")
            if all(w is None for w in weights):
                weights = None
            else:
                weights = tuple(BesicovitchWeights.constant(1.0) if w is None else w
                                for w in weights)
            object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "filtrations", filts)

    @classmethod
    def single(cls, kind: str, f: VectorObservable, t: Endomorphism, fl: Filtration,
               weights: BesicovitchWeights | None = None,
               norm: NormSpec = NormSpec()) -> "ProcessSpec":
        return cls(kind, f, (t,), (fl,), (weights,), norm)

    @property
    def space(self):
        return self.f.space

    @property
    def d_maps(self) -> int:
        return len(self.maps)

    @property
    def m_filtrations(self) -> int:
        return len(self.filtrations)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def is_multi(self) -> bool:
        return self.d_maps > 1 or self.m_filtrations > 1

    @property
    def last_stages(self) -> tuple[int, ...]:
        """Index of the stabilized (last) stage of every filtration."""
        return tuple(len(fl.stages) - 1 for fl in self.filtrations)

    def orbit_lcms(self) -> tuple[int, ...]:
        return tuple(orbit_lcm(t) for t in self.maps)

    @functools.cached_property
    def sup_fields(self) -> dict:
        """Sup fields of this spec by box, filled by inequalities.sup_field;
        they live as long as the spec."""
        return {}

    def __repr__(self):
        return (f"ProcessSpec({self.kind}, maps={self.d_maps}, "
                f"filtrations={self.m_filtrations}, weighted={self.is_weighted})")


def _per_axis(value, count: int, message: str) -> tuple[int, ...]:
    """An integer broadcast to `count` axes, or a sequence of `count` entries."""
    if isinstance(value, (int, np.integer)):
        return (int(value),) * count
    out = tuple(int(v) for v in value)
    if len(out) != count:
        raise ValueError(message)
    return out


def _apply_averages(spec: ProcessSpec, g: VectorObservable,
                    n_vec: tuple[int, ...] | None) -> VectorObservable:
    """Multiparameter weighted average over the product index box, or its
    limit for n_vec None.

    The written operator order T_1^{k_1} ... T_d^{k_d} applies T_d first; by
    linearity the box sum factors into nested one-parameter averages, which
    is what is computed (one cycle kernel call per map).
    """
    weights = spec.weights or (None,) * spec.d_maps
    for j in reversed(range(spec.d_maps)):
        t, w = spec.maps[j], weights[j]
        if n_vec is None:
            g = ergodic_limit(g, t, w)
        elif w is None:
            g = ergodic_average(g, t, n_vec[j])
        else:
            g = weighted_average(g, t, w, n_vec[j])
    return g


def _process(spec: ProcessSpec, n_vec: tuple[int, ...] | None,
             s_vec: tuple[int, ...]) -> VectorObservable:
    if spec.kind == MARTINGALE_ERGODIC:
        avg = _apply_averages(spec, spec.f, n_vec)
        return composite_cond_expect(avg, spec.filtrations, s_vec)
    g = composite_cond_expect(spec.f, spec.filtrations, s_vec)
    return _apply_averages(spec, g, n_vec)


def evaluate(spec: ProcessSpec, n1, n2) -> VectorObservable:
    """Process value at averaging length(s) n1 and filtration stage(s) n2.

    Integers broadcast across all maps / filtrations; sequences address the
    axes individually.
    """
    n_vec = _per_axis(n1, spec.d_maps, "n1 must give one count per map")
    s_vec = _per_axis(n2, spec.m_filtrations,
                      "n2 must give one stage index per filtration")
    return _process(spec, n_vec, s_vec)


def limit_target(spec: ProcessSpec) -> VectorObservable:
    """Closed-form limit of the process, weighted or not.

    The two kinds genuinely have different limits whenever orbit averaging and
    conditioning fail to commute: averaging first and conditioning last
    converges to the conditioned orbit average, while conditioning first
    converges to the orbit average of the conditioned observable. The target
    composes the exact limit of each map's average (averages.ergodic_limit)
    with the last stage of every filtration, in the same order as the process.
    """
    return _process(spec, None, spec.last_stages)


@dataclass(frozen=True)
class TraceRow:
    n1: int
    n2: int
    lp_error: float
    sup_error: float


@dataclass(frozen=True, eq=False, repr=False)
class ConvergenceTrace:
    """Double-index error grid against a fixed target observable."""

    rows: tuple[TraceRow, ...]
    n1_grid: tuple[int, ...]
    n2_grid: tuple[int, ...]
    p: float
    target_description: str

    def __post_init__(self):
        for name, grid in (("n1_grid", self.n1_grid), ("n2_grid", self.n2_grid)):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        for row in self.rows:
            if row.lp_error < 0 or row.sup_error < 0:
                raise ValueError("errors must be nonnegative")

    def final_row(self) -> TraceRow:
        return self.rows[-1]

    def __repr__(self):
        return f"ConvergenceTrace(rows={len(self.rows)}, target={self.target_description!r})"


def convergence_trace(spec: ProcessSpec, n1_grid: Sequence[int], n2_grid: Sequence[int],
                      p: float = 2.0, reference: VectorObservable | None = None,
                      ) -> ConvergenceTrace:
    """Errors of evaluate(spec, n1, n2) against the limit (or a supplied
    reference) over the rectangular grid; n1-major row order."""
    n1_grid = tuple(int(v) for v in n1_grid)
    n2_grid = tuple(int(v) for v in n2_grid)
    if reference is None:
        target = limit_target(spec)
        desc = "closed-form limit (conditioned orbit average)"
    else:
        target = reference
        desc = "caller-supplied reference"
    rows = []
    for n1 in n1_grid:
        for n2 in n2_grid:
            diff = evaluate(spec, n1, n2) - target
            rows.append(TraceRow(
                n1=n1, n2=n2,
                lp_error=lp_norm(diff, p, spec.norm),
                sup_error=linf_norm(diff, spec.norm),
            ))
    return ConvergenceTrace(tuple(rows), n1_grid, n2_grid, p, desc)


@dataclass(frozen=True)
class MeanIdentityReport:
    mean_input: tuple[float, ...]
    mean_target: tuple[float, ...]
    max_mean_gap: float
    norm_rows: tuple[tuple[float, float, float, bool], ...]  # (p, lhs, rhs, ok)
    passed: bool


def mean_identity_check(spec: ProcessSpec) -> MeanIdentityReport:
    """Checks that the limit keeps the expectation of f and contracts |.|_p
    for p in {1, 2, 3}."""
    target = limit_target(spec)
    m_in = mean(spec.f)
    m_out = mean(target)
    gap = float(np.max(np.abs(m_in - m_out)))
    norm_rows = []
    for p in (1.0, 2.0, 3.0):
        lhs = lp_norm(target, p, spec.norm)
        rhs = lp_norm(spec.f, p, spec.norm)
        norm_rows.append((p, lhs, rhs, lhs <= rhs + _TOL))
    passed = gap <= _TOL and all(r[3] for r in norm_rows)
    return MeanIdentityReport(
        mean_input=tuple(float(x) for x in m_in),
        mean_target=tuple(float(x) for x in m_out),
        max_mean_gap=gap,
        norm_rows=tuple(norm_rows),
        passed=passed,
    )


def stabilization_periods(spec: ProcessSpec) -> tuple[int, ...]:
    """Per-map period P_j after which the weighted Cesaro average repeats
    exactly: lcm of the orbit order and the weight period.

    Raises when some weight frequency is not recognizably rational.
    """
    periods = []
    for j, t in enumerate(spec.maps):
        base = orbit_lcm(t)
        if spec.weights is None:
            periods.append(base)
            continue
        wp = spec.weights[j].period
        if wp is None:
            raise ValueError("weight sequence has an irrational frequency; "
                             "no exact period is available")
        periods.append(math.lcm(base, wp))
    return tuple(periods)


def stabilized_reference(spec: ProcessSpec) -> VectorObservable:
    """Exact limit for rational-frequency weights: one full period of the
    weighted average (evaluated at the last stage of every filtration)."""
    periods = stabilization_periods(spec)
    return evaluate(spec, periods, spec.last_stages)


def tail_variation(spec: ProcessSpec, p: float = 2.0, n_periods: int = 8,
                   n2=None) -> float:
    """Max pairwise L_p distance between evaluations at period multiples in the
    final quarter of the grid k*P, k = 1..n_periods."""
    if n_periods < 4:
        raise ValueError("need at least 4 periods to form a tail")
    periods = stabilization_periods(spec)
    if n2 is None:
        n2 = spec.last_stages
    tail_start = n_periods - max(1, n_periods // 4) + 1
    evals = []
    for k in range(tail_start, n_periods + 1):
        n_vec = tuple(k * pj for pj in periods)
        evals.append(evaluate(spec, n_vec, n2))
    worst = 0.0
    for a in range(len(evals)):
        for b in range(a + 1, len(evals)):
            worst = max(worst, lp_norm(evals[a] - evals[b], p, spec.norm))
    return worst


def default_n1_grid(order: int, factor: int = 4) -> tuple[int, ...]:
    """Doubling grid 1, 2, 4, ... capped by factor*order, plus the multiples
    of the order itself so the exact points are always present."""
    top = factor * order
    grid = {1}
    v = 1
    while v < top:
        v *= 2
        grid.add(min(v, top))
    grid.update(k * order for k in range(1, factor + 1))
    return tuple(sorted(grid))
