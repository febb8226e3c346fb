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
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .averages import _CHUNK_FLOATS, BesicovitchWeights, CesaroKernel, check_stages, conditioned
from .measure import Filtration
from .observables import NormSpec, VectorObservable, lp_norm, lp_of_norms, mean, point_norms
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
    "tail_variation",
    "default_n1_grid",
]

MARTINGALE_ERGODIC = "martingale_ergodic"
ERGODIC_MARTINGALE = "ergodic_martingale"

_TOL = 1e-12
# the automatic n1 grid runs up to this many times the map order
_N1_FACTOR = 4


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

    def periods(self) -> tuple[int | None, ...]:
        """Per-map period P_j after which the weighted Cesaro sum repeats
        exactly: lcm of the orbit order and the weight period; None for a map
        whose weights have an irrational frequency. Kept under "periods"."""
        return self.keep("periods", lambda: self.orbit_lcms() if self.weights is None else tuple(
            None if w.period is None else math.lcm(base, w.period)
            for base, w in zip(self.orbit_lcms(), self.weights)))

    @functools.cached_property
    def kept(self) -> dict:
        """Everything this spec builds once, by key (see keep)."""
        return {}

    def keep(self, key, build):
        """The value kept under `key`, built by build() on first use and kept
        for the life of the spec. The keys: "periods"; "limit", the limit
        of the process; ("kernel", None) the innermost map's Cesaro kernel of
        f, ("kernel", stage vectors) that of f conditioned at each of them;
        ("cut", box) a sup box checked and cut to the periods, ("sup", box)
        the sup field of a cut box and ("norm", p) |f|_p, for the inequality
        checks; and the early-stop certificate of a martingale-ergodic sup
        pass: "points", ("limit_bound", s), ("bound", s) and ("period", s)."""
        kept = self.kept
        if key not in kept:
            kept[key] = build()
        return kept[key]

    @property
    def limit(self) -> VectorObservable:
        """limit_target of this spec: kept under "limit" by the first grid
        read that reaches it (_cells), which this runs if none has."""
        if "limit" not in self.kept:
            for _ in _cells(self, [None], [self.last_stages]):
                pass
        return self.kept["limit"]

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


def _cells(spec: ProcessSpec, n_vecs: Sequence[tuple[int, ...] | None],
           s_vecs: Sequence[tuple[int, ...]]) -> Iterator[np.ndarray]:
    """Process values at every cell (n_vec, s_vec) of the grid, in chunks of
    consecutive n_vecs: arrays of shape (k, len(s_vecs), N, dim). An n_vec of
    None gives the limit of the averages, in the same pass as the lengths
    beside it; read at the last stages, it is kept as the spec's limit.

    Every index is checked here, before any kernel is built; the values are
    computed chunk by chunk as they are read. The written operator order
    T_1^{k_1} ... T_d^{k_d} applies T_d first, and by linearity the box sum
    factors into nested one-parameter averages. The innermost map's kernel
    does not depend on n, so it is built once and kept by the spec
    (_kernel): martingale-ergodic over f, read once per chunk at all its
    n_vecs and conditioned once per s_vec over the whole stack;
    ergodic-martingale over the stack of f conditioned at every s_vec, once
    per list of s_vecs, and read once per chunk. The outer maps' inputs
    depend on n, so their kernels are built per n_vec.
    """
    for n_vec in n_vecs:
        if n_vec is not None and min(n_vec) < 1:
            raise ValueError("n must be positive")
    s_vecs = [check_stages(spec.filtrations, s_vec) for s_vec in s_vecs]
    return _grid_values(spec, n_vecs, s_vecs)


def _grid_values(spec: ProcessSpec, n_vecs, s_vecs) -> Iterator[np.ndarray]:
    """The chunks of `_cells`, on indices it has checked. A chunk holds as
    many n_vecs as keep its stack, the innermost read's complex terms
    included, under _CHUNK_FLOATS floats."""
    weights = spec.weights or (None,) * spec.d_maps
    me = spec.kind == MARTINGALE_ERGODIC
    kernel = _kernel(spec, None if me else tuple(s_vecs))
    # floats per n_vec: the values at every s_vec, and the innermost read of
    # each kernel entry (f, or f at every s_vec), complex per term if weighted
    read = 1 if weights[-1] is None else 2 * len(weights[-1].terms)
    entries = 1 if me else len(s_vecs)
    rows = max(1, _CHUNK_FLOATS // (spec.f.values.size * (len(s_vecs) + entries * read)))
    for start in range(0, len(n_vecs), rows):
        chunk = n_vecs[start:start + rows]
        # every row is the float of its own read, so a None row is read at
        # length 1 and then overwritten by the limit
        stack = kernel.average(np.array([1 if n_vec is None else n_vec[-1] for n_vec in chunk]))
        if None in chunk:
            stack[[k for k, n_vec in enumerate(chunk) if n_vec is None]] = kernel.average(None)
        if spec.d_maps > 1:
            outer = []
            for n_vec, values in zip(chunk, stack):
                for j in reversed(range(spec.d_maps - 1)):
                    values = CesaroKernel(values, spec.maps[j], weights[j]).average(
                        None if n_vec is None else n_vec[j])
                outer.append(values)
            stack = np.stack(outer)
        if me:
            stack = _conditioned(spec, stack, s_vecs)
        if None in chunk and spec.last_stages in s_vecs:
            spec.keep("limit", lambda: VectorObservable(
                spec.space, stack[chunk.index(None), s_vecs.index(spec.last_stages)]))
        yield stack
        stack = outer = values = None  # the next chunk is built without this one


def _kernel(spec: ProcessSpec, s_vecs: tuple | None = None) -> CesaroKernel:
    """The innermost map's Cesaro kernel of f (s_vecs None), or of the stack
    of f conditioned at each stage vector of s_vecs, kept by the spec."""
    w = None if spec.weights is None else spec.weights[-1]
    return spec.keep(("kernel", s_vecs), lambda: CesaroKernel(
        spec.f.values if s_vecs is None else _conditioned(spec, spec.f.values, s_vecs),
        spec.maps[-1], w))


def _conditioned(spec: ProcessSpec, values: np.ndarray, s_vecs) -> np.ndarray:
    """A stack (..., N, dim) conditioned at every s_vec (the composition of
    averages.composite_cond_expect), on a new stage axis before (N, dim).
    With one filtration every stage is one conditioning of the stack, whose
    mass-weighted product all stages read, so one call gives them all."""
    if spec.m_filtrations == 1:
        return conditioned(values, spec.filtrations, [[s for (s,) in s_vecs]])
    return np.stack([conditioned(values, spec.filtrations, [(s,) for s in s_vec]).reshape(
        values.shape) for s_vec in s_vecs], axis=values.ndim - 2)


def evaluate(spec: ProcessSpec, n1, n2) -> VectorObservable:
    """Process value at averaging length(s) n1 and filtration stage(s) n2.

    Integers broadcast across all maps / filtrations; sequences address the
    axes individually. This is the one-cell case of the grid evaluation.
    """
    n_vec = _per_axis(n1, spec.d_maps, "n1 must give one count per map")
    s_vec = _per_axis(n2, spec.m_filtrations,
                      "n2 must give one stage index per filtration")
    [values] = _cells(spec, [n_vec], [s_vec])
    return VectorObservable(spec.space, values[0, 0])


def limit_target(spec: ProcessSpec) -> VectorObservable:
    """Closed-form limit of the process, weighted or not.

    The two kinds genuinely have different limits whenever orbit averaging and
    conditioning fail to commute: averaging first and conditioning last
    converges to the conditioned orbit average, while conditioning first
    converges to the orbit average of the conditioned observable. The target
    composes the exact limit of each map's average (averages.CesaroKernel at
    n None) with the last stage of every filtration, in the same order as the
    process. It is computed once per spec and kept by it (ProcessSpec.limit).
    """
    return spec.limit


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
        _check_increasing(self.n1_grid, self.n2_grid)
        for row in self.rows:
            if row.lp_error < 0 or row.sup_error < 0:
                raise ValueError("errors must be nonnegative")

    def __repr__(self):
        return f"ConvergenceTrace(rows={len(self.rows)}, target={self.target_description!r})"


def _check_increasing(n1_grid: Sequence[int], n2_grid: Sequence[int]):
    for name, grid in (("n1_grid", n1_grid), ("n2_grid", n2_grid)):
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"{name} must be strictly increasing")


def convergence_trace(spec: ProcessSpec, n1_grid: Sequence[int], n2_grid: Sequence[int],
                      p: float = 2.0, reference: VectorObservable | None = None,
                      ) -> ConvergenceTrace:
    """Errors of evaluate(spec, n1, n2) against the limit (or a supplied
    reference) over the rectangular grid; n1-major row order. Both grids
    are checked before any evaluation. An ergodic-martingale limit not yet
    kept by the spec is read in the grid's own pass, with the grid's kernel,
    as a first row that the trace drops, when the grid holds the last
    stages."""
    n1_grid = tuple(int(v) for v in n1_grid)
    n2_grid = tuple(int(v) for v in n2_grid)
    _check_increasing(n1_grid, n2_grid)
    s_vecs = [(n2,) * spec.m_filtrations for n2 in n2_grid]
    # martingale-ergodic conditions after the kernel read, so a limit row in
    # the grid's pass would be conditioned at every stage, not at the last only
    lead = [None] if (reference is None and spec.kind == ERGODIC_MARTINGALE
                      and "limit" not in spec.kept and spec.last_stages in s_vecs) else []
    cells = _cells(spec, lead + [(n1,) * spec.d_maps for n1 in n1_grid], s_vecs)
    if reference is None:
        target = None if lead else limit_target(spec)
        desc = "closed-form limit (conditioned orbit average)"
    else:
        target = reference
        desc = "caller-supplied reference"
    rows = []
    cell = itertools.product(n1_grid, n2_grid)
    for values in cells:
        if target is None:  # the limit's row, which _cells keeps as spec.limit
            values, target = values[1:], limit_target(spec)
        errors = values - target.values
        if not np.isfinite(errors).all():
            raise ValueError("values must be finite")
        # one row of point norms per cell, in grid order
        norms = point_norms(errors, spec.norm.q).reshape(-1, spec.space.size)
        # the grid's cells last: zip stops at the chunk's end without taking one
        for lp_error, sup_error, (n1, n2) in zip(
                lp_of_norms(norms, spec.space.weights, p), norms.max(axis=-1), cell):
            rows.append(TraceRow(n1, n2, float(lp_error), float(sup_error)))
        values = errors = norms = None  # free this chunk before the next is built
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
    # each observable's point norms once, read at every p
    mu, q = spec.space.weights, spec.norm.q
    norms_target, norms_f = point_norms(target.values, q), point_norms(spec.f.values, q)
    for p in (1.0, 2.0, 3.0):
        lhs, rhs = lp_of_norms(norms_target, mu, p), lp_of_norms(norms_f, mu, p)
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
    periods = spec.periods()
    if None in periods:
        raise ValueError("weight sequence has an irrational frequency; "
                         "no exact period is available")
    return periods


def tail_variation(spec: ProcessSpec, p: float = 2.0, n_periods: int = 8,
                   n2=None) -> float:
    """Max pairwise L_p distance between evaluations at period multiples in the
    final quarter of the grid k*P, k = 1..n_periods."""
    if n_periods < 4:
        raise ValueError("need at least 4 periods to form a tail")
    periods = stabilization_periods(spec)
    if n2 is None:
        n2 = spec.last_stages
    s_vec = _per_axis(n2, spec.m_filtrations, "n2 must give one stage index per filtration")
    tail_start = n_periods - max(1, n_periods // 4) + 1
    n_vecs = [tuple(k * pj for pj in periods) for k in range(tail_start, n_periods + 1)]
    evals = [VectorObservable(spec.space, values[0])
             for chunk in _cells(spec, n_vecs, [s_vec]) for values in chunk]
    worst = 0.0
    for a in range(len(evals)):
        for b in range(a + 1, len(evals)):
            worst = max(worst, lp_norm(evals[a] - evals[b], p, spec.norm))
    return worst


def default_n1_grid(order: int) -> tuple[int, ...]:
    """Doubling grid 1, 2, 4, ... capped by _N1_FACTOR*order, plus the multiples
    of `order`, a period of the averages, so the exact points are always present."""
    top = _N1_FACTOR * order
    grid = {1}
    v = 1
    while v < top:
        v *= 2
        grid.add(min(v, top))
    grid.update(k * order for k in range(1, _N1_FACTOR + 1))
    return tuple(sorted(grid))
