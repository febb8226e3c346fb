"""Dominant and maximal inequality evaluation over truncated index boxes.

Every bound compares the L_p norm (or a level-set mass) of the pointwise sup
of a process over a finite index box against an explicit constant times
|f|_p. Truncating the sup never raises the left side, and a box with n_max_j
>= P_j on every averaging axis (P_j the stabilization period of map j) gives
the exact untruncated sup: with n = qP + r the weighted sum of the first n
terms is q times that of the first P plus that of the first r, so at a fixed
stage the process value A_n = lam A_P + (1 - lam) A_r, lam = qP/n, lies on a
segment whose norm is largest at an end. Each report is therefore a sound
check of the corresponding infinite-index bound, and an exact one once the
box reaches the periods.

The same segment argument holds point by point when the conditioning comes
first (ergodic-martingale). Fix the stages and the inner lengths n_2, ...:
the value at x is then a weighted Cesaro average of one fixed field along
the tau_1-orbit of x, whose terms repeat with period H_x = lcm(L_x, weight
period of map 1), L_x the length of that orbit. So n_1 <= H_x already gives
the sup at x, and the sup pass builds each point's outermost axis only up to
min(n_max_1, H_x); with an irrational frequency H_x is n_max_1. Only that
outermost axis is cut when there are several maps: an inner A_{n_j} is a
convex combination of A_{P_j} and A_r at every point, and the outer
averages are linear, so the inner axes keep the cut to P_j. When the
averaging comes first (martingale-ergodic), the outer conditioning mixes the
points of a block, so every point runs to n_max_1.

Constant catalog (see the README table):
  Thm2.4 / Thm3.4   dominant, single parameter       (p/(p-1))^2
  Thm2.5 / Thm3.5   maximal,  single parameter       (p/(p-1))^p
  Thm4.1 / Thm4.2   dominant, weighted               alpha (p/(p-1))^2
  Thm4.1 / Thm4.2   maximal,  weighted               alpha (p/(p-1))^p
  Thm4.3 / Thm4.4   dominant, multiparameter         alpha (p/(p-1))^(d+p+1)
  Thm4.3            maximal,  multiparameter         alpha^p (p/(p-1))^(p d)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .averages import (_CHUNK_FLOATS, check_stages, composite_block_means, conditioned,
                       running_weighted_averages)
from .measure import DECREASING
from .observables import VectorObservable, llog_norm, lp_norm, point_norms
from .operators import Endomorphism
from .processes import MARTINGALE_ERGODIC, ProcessSpec

__all__ = [
    "SupBox",
    "default_box",
    "shrink_box",
    "InequalityReport",
    "OrliczReport",
    "APPLICABILITY_RULES",
    "broken_rule",
    "sup_field",
    "dominant_check",
    "epsilon_sweep",
    "auto_epsilons",
    "dominant_constant",
    "maximal_constant",
    "effective_weight_bound",
    "orlicz_class_report",
]

_TOL = 1e-12


@dataclass(frozen=True)
class SupBox:
    """Finite truncation of the index set: per-map averaging lengths 1..n_max
    and an explicit ascending stage subset per filtration."""

    n_max: tuple[int, ...]
    stage_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n_max = tuple(int(v) for v in self.n_max)
        if not n_max or any(v < 1 for v in n_max):
            raise ValueError("n_max entries must be positive")
        sets = tuple(tuple(int(s) for s in ss) for ss in self.stage_sets)
        if not sets:
            raise ValueError("at least one stage set is required")
        for ss in sets:
            if not ss or any(b <= a for a, b in zip(ss, ss[1:])):
                raise ValueError("stage sets must be nonempty and strictly ascending")
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "stage_sets", sets)

    def describe(self) -> dict:
        return {"n_max": list(self.n_max), "stages": [list(s) for s in self.stage_sets]}


def default_box(spec: ProcessSpec, n_factor: int = 4) -> SupBox:
    """n up to n_factor times each map's order, all stages of each filtration."""
    n_max = tuple(max(1, n_factor * L) for L in spec.orbit_lcms())
    stage_sets = tuple(tuple(range(len(fl.stages))) for fl in spec.filtrations)
    return SupBox(n_max, stage_sets)


def shrink_box(box: SupBox, factor: float) -> SupBox:
    """Prefix truncation: scales the n ranges and keeps a stage prefix."""
    if not 0 < factor <= 1:
        raise ValueError("factor must be in (0, 1]")
    n_max = tuple(max(1, int(math.ceil(v * factor))) for v in box.n_max)
    stage_sets = tuple(ss[: max(1, int(math.ceil(len(ss) * factor)))]
                       for ss in box.stage_sets)
    return SupBox(n_max, stage_sets)


def _period_box(spec: ProcessSpec, box: SupBox) -> SupBox:
    """The box, checked against the spec, with each averaging axis cut to
    min(n_max_j, P_j): no n past the period P_j raises the sup (see the
    module docstring), and the weights repeat with a period that divides P_j.
    A map without a period keeps its axis."""
    if len(box.n_max) != spec.d_maps:
        raise ValueError("box must give one n_max per map")
    if len(box.stage_sets) != spec.m_filtrations:
        raise ValueError("box must give one stage set per filtration")
    for end in (0, -1):  # the sets ascend, so their ends bound them
        check_stages(spec.filtrations, [ss[end] for ss in box.stage_sets])
    n_max = tuple(n if period is None else min(n, period)
                  for n, period in zip(box.n_max, spec.periods()))
    return box if n_max == box.n_max else SupBox(n_max, box.stage_sets)


def sup_field(spec: ProcessSpec, box: SupBox | None = None,
              prefixes: Sequence[SupBox] = ()) -> VectorObservable:
    """Pointwise max of the process norms over the box, monotone under box
    enlargement; the exact untruncated sup once n_max_j >= P_j on every
    averaging axis. Built over the box cut to the periods and kept by the spec
    under that cut box, so every check of a run, and every box that differs
    from another only past the periods, reads the same field. The same pass
    keeps the field of each of `prefixes` (no larger n_max, each stage set a
    prefix of the box's, as shrink_box gives): the max over the same floats
    as its own build, so bit for bit that field."""
    if box is None:
        box = default_box(spec)
    box = _period_box(spec, box)
    cut = {_period_box(spec, small) for small in prefixes}
    for small in cut:
        if (any(a > b for a, b in zip(small.n_max, box.n_max))
                or any(ss != big[:len(ss)] for ss, big in zip(small.stage_sets, box.stage_sets))):
            raise ValueError("every box must be a prefix of the full box")
    missing = [small for small in cut - {box} if small not in spec.sup_fields]
    if box not in spec.sup_fields or missing:
        spec.sup_fields[box] = _build_sup_field(spec, box, *missing)
    return spec.sup_fields[box]


def _horizon_classes(spec: ProcessSpec, n: int) -> list[tuple[int, np.ndarray]]:
    """The points of a build up to n, grouped by their last row H on the
    outermost averaging axis (see the module docstring): (H, points) pairs,
    H ascending, the points of each class ascending. Condition-then-average:
    H_x = min(n, lcm(L_x, weight period)) with L_x the length of x's cycle
    under the first map, or n when that map's weights have no period.
    Average-then-condition: n, as its outermost conditioning mixes the
    points of a block. A uniform build is one class of every point."""
    lay = spec.maps[0].cycle_layout
    period = 1 if spec.weights is None else spec.weights[0].period
    if spec.kind == MARTINGALE_ERGODIC or period is None:
        ends = np.full(spec.space.size, n)
    else:
        ends = np.array([min(n, math.lcm(int(length), period))
                         for length in lay.distinct_lengths])[lay.length_class]
    order = np.argsort(ends, kind="stable")
    return [(int(ends[points[0]]), points)
            for points in np.split(order, np.flatnonzero(np.diff(ends[order])) + 1)]


def _outer_chunks(inner: np.ndarray, t: Endomorphism, alpha: np.ndarray | None,
                  end: int, points: np.ndarray,
                  copies: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, chunk) of the running averages of `inner` under the
    outermost map t at `points`, rows 0..end-1, in consecutive chunks along
    the averaging axis, each with `points` on its point axis. A chunk holds
    about _CHUNK_FLOATS floats, counting each float `copies` times for the
    stacks built from it, and each row's int64 gather index (one entry per
    point of every stack entry) as floats too."""
    per_point = (inner.size * copies + inner.size // inner.shape[-1]) // inner.shape[-2]
    rows, carry = max(1, _CHUNK_FLOATS // (per_point * len(points))), []
    for start in range(0, end, rows):
        yield start, running_weighted_averages(inner, t, alpha, min(end, start + rows),
                                               start, carry, points)


def _build_sup_field(spec: ProcessSpec, box: SupBox, *prefixes: SupBox) -> VectorObservable:
    """One streamed pass over the box as given (sup_field hands it the box
    cut to the periods): the inner maps' averaging axes are built whole, the
    outermost one chunk by chunk, one pass from row 0 per class of points
    that share a last row (one class, up to n_max_1, when the conditioning
    comes after the averaging), and each chunk's norms are folded into the
    running pointwise max of the box and of each prefix box, whose fields
    are kept on the spec."""
    me = spec.kind == MARTINGALE_ERGODIC
    classes = _horizon_classes(spec, box.n_max[0])
    # the weights up to the last row any point reads
    reads = (classes[-1][0],) + box.n_max[1:]
    alphas = ([None] * spec.d_maps if spec.weights is None
              else [w.values(k) for w, k in zip(spec.weights, reads)])
    q = spec.norm.q
    boxes = [box, *prefixes]
    fields = [np.zeros(spec.space.size) for _ in boxes]
    if me:
        inner = spec.f.values
        # each inner filtration stacks one conditioned copy of a chunk per stage
        copies = math.prod(len(ss) for ss in box.stage_sets[1:])
    else:
        # condition first, then average the whole stack
        inner, copies = conditioned(spec.f.values, spec.filtrations, box.stage_sets), 1
    for j in reversed(range(1, spec.d_maps)):
        inner = running_weighted_averages(inner, spec.maps[j], alphas[j], box.n_max[j])
    for end, points in classes:
        for start, chunk in _outer_chunks(inner, spec.maps[0], alphas[0], end, points, copies):
            if me:
                # the outermost conditioning is constant on its blocks, so its
                # max is taken per block and only then spread to the points
                for k, (part, means) in enumerate(
                        composite_block_means(chunk, spec.filtrations, box.stage_sets)):
                    _fold(boxes, fields, point_norms(means, q), start, points, (k, part))
            else:
                _fold(boxes, fields, point_norms(chunk, q), start, points, None)
    for small, field in zip(prefixes, fields[1:]):
        spec.sup_fields[small] = VectorObservable(spec.space, field)
    return VectorObservable(spec.space, fields[0])


def _fold(boxes, fields, norms: np.ndarray, start: int, points: np.ndarray, outer) -> None:
    """Folds into each box's field, at `points`, the max of a chunk's norms
    inside it, axes (n_1 from row `start`, inner n..., stages..., points or
    blocks). `outer` is None, or the (position in the first stage set,
    partition) of the outermost conditioning, whose blocks the norms are
    over with no axis of the first filtration."""
    for box, field in zip(boxes, fields):
        sets = box.stage_sets if outer is None else box.stage_sets[1:]
        if start >= box.n_max[0] or (outer is not None and outer[0] >= len(box.stage_sets[0])):
            continue
        index = ([slice(box.n_max[0] - start)] + [slice(n) for n in box.n_max[1:]]
                 + [slice(len(ss)) for ss in sets])
        top = norms[tuple(index)].reshape(-1, norms.shape[-1]).max(axis=0)
        if outer is not None:
            top = top[outer[1].block_of]
        field[points] = np.maximum(field[points], top)


def effective_weight_bound(spec: ProcessSpec, box: SupBox) -> tuple[float, float]:
    """(observed, envelope) weight bound: observed sup |a_i| over the box
    horizon (read within one period, where the weights already repeat) and
    the analytic envelope sum |amp|; the larger goes into the constants so a
    bound is never understated."""
    if spec.weights is None:
        return 1.0, 1.0
    observed = max(w.sup_abs(k) for w, k in zip(spec.weights, _period_box(spec, box).n_max))
    envelope = max(w.amplitude_bound for w in spec.weights)
    return observed, envelope


# when a dominant or maximal bound applies, as (config field blamed below
# checks[k], message, test of (spec, check type, p) that breaks the rule);
# config validation, the checks and the fuzz all read this table
APPLICABILITY_RULES = (
    ("", "martingale-ergodic bounds require decreasing filtrations",
     lambda spec, check, p: spec.kind == MARTINGALE_ERGODIC
     and any(fl.direction != DECREASING for fl in spec.filtrations)),
    (".p", "multiparameter bounds require integer p",
     lambda spec, check, p: spec.is_multi and not float(p).is_integer()),
    (".type", "no maximal bound is available for the multiparameter "
     "ergodic-martingale process",
     lambda spec, check, p: check == "maximal" and spec.is_multi
     and spec.kind != MARTINGALE_ERGODIC),
)


def broken_rule(spec: ProcessSpec, check: str, p: float) -> tuple[str, str] | None:
    """(field, message) of the first rule that a `check` ("dominant" or
    "maximal") at exponent p breaks on this spec; None when the bound applies."""
    for field, message, breaks in APPLICABILITY_RULES:
        if breaks(spec, check, p):
            return field, message
    return None


def dominant_constant(p: float, *, weighted: bool = False, multi: bool = False,
                      alpha: float = 1.0, d_maps: int = 1) -> float:
    """Catalog constant for the dominant (L_p of the sup) bound."""
    if p <= 1.0:
        raise ValueError("dominant bounds need p > 1")
    base = p / (p - 1.0)
    if multi:
        if p != int(p):
            raise ValueError("the multiparameter dominant bound requires integer p")
        return alpha * base ** (d_maps + p + 1)
    return (alpha if weighted else 1.0) * base * base


def maximal_constant(p: float, *, weighted: bool = False, multi: bool = False,
                     alpha: float = 1.0, d_maps: int = 1) -> float:
    """Catalog constant for the maximal (level-set mass) bound."""
    if p <= 1.0:
        raise ValueError("maximal bounds need p > 1")
    base = p / (p - 1.0)
    if multi:
        if p != int(p):
            raise ValueError("the multiparameter maximal bound requires integer p")
        return alpha**p * base ** (p * d_maps)
    return (alpha if weighted else 1.0) * base**p


@dataclass(frozen=True)
class InequalityReport:
    theorem_tag: str
    lhs: float
    rhs: float
    constant: float
    p: float
    epsilon: float | None
    satisfied: bool
    margin: float
    truncation: SupBox
    alpha: float

    def __post_init__(self):
        if self.constant <= 0:
            raise ValueError("constant must be positive")
        if self.satisfied != (self.lhs <= self.rhs + _TOL):
            raise ValueError("satisfied flag inconsistent with lhs/rhs")


def _theorem_tag(spec: ProcessSpec, flavor: str) -> str:
    me = spec.kind == MARTINGALE_ERGODIC
    if spec.is_multi:
        tag = "Thm4.3" if me else "Thm4.4"
    elif spec.is_weighted:
        tag = "Thm4.1" if me else "Thm4.2"
    else:
        if flavor == "dominant":
            return "Thm2.4" if me else "Thm3.4"
        return "Thm2.5" if me else "Thm3.5"
    return tag if flavor == "dominant" else f"{tag}-maximal"


def _check_setup(spec: ProcessSpec, check: str, p: float,
                 box: SupBox | None) -> tuple[SupBox, float]:
    """Validates a dominant or maximal check (sup_field validates the box);
    returns the box and the weight bound alpha that goes into the constants."""
    if not p > 1.0:
        raise ValueError("p must be > 1")
    broken = broken_rule(spec, check, p)
    if broken is not None:
        raise ValueError(broken[1])
    if box is None:
        box = default_box(spec)
    return box, max(effective_weight_bound(spec, box))


def dominant_check(spec: ProcessSpec, p: float, box: SupBox | None = None) -> InequalityReport:
    """|  sup-of-process-norms  |_p <= C(p, variant) |f|_p over the box."""
    box, alpha = _check_setup(spec, "dominant", p, box)
    const = dominant_constant(p, weighted=spec.is_weighted, multi=spec.is_multi,
                              alpha=alpha, d_maps=spec.d_maps)
    field = sup_field(spec, box)
    lhs = lp_norm(field, p, spec.norm)
    rhs = const * lp_norm(spec.f, p, spec.norm)
    return InequalityReport(
        theorem_tag=_theorem_tag(spec, "dominant"),
        lhs=lhs, rhs=rhs, constant=const, p=p, epsilon=None,
        satisfied=lhs <= rhs + _TOL, margin=rhs - lhs,
        truncation=box, alpha=alpha,
    )


def epsilon_sweep(spec: ProcessSpec, p: float, eps_grid: Sequence[float],
                  box: SupBox | None = None) -> list[InequalityReport]:
    """mu{ sup >= eps } <= C(p, variant) |f|_p^p / eps^p over the box, one report
    per eps of the ascending grid; the sup field is computed once."""
    box, alpha = _check_setup(spec, "maximal", p, box)
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValueError("epsilon grid must be nonempty and positive")
    if any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    const = maximal_constant(p, weighted=spec.is_weighted, multi=spec.is_multi,
                             alpha=alpha, d_maps=spec.d_maps)
    field = sup_field(spec, box).values[:, 0]
    mu = spec.space.weights
    fnorm_p = lp_norm(spec.f, p, spec.norm) ** p
    tag = _theorem_tag(spec, "maximal")
    out = []
    for eps in eps_grid:
        lhs = float(mu[field >= eps].sum())
        rhs = const * fnorm_p / eps**p
        out.append(InequalityReport(
            theorem_tag=tag, lhs=lhs, rhs=rhs, constant=const, p=p, epsilon=eps,
            satisfied=lhs <= rhs + _TOL, margin=rhs - lhs,
            truncation=box, alpha=alpha,
        ))
    return out


def auto_epsilons(top: float, count: int) -> tuple[float, ...]:
    """Ascending grid of `count` levels from 5% to 120% of the sup-field
    maximum `top`; a fixed grid on [1e-6, 1] when the sup field vanishes."""
    if top <= 0.0:
        return tuple(float(v) for v in np.geomspace(1e-6, 1.0, count))
    return tuple(float(v) for v in np.geomspace(0.05 * top, 1.2 * top, count))


@dataclass(frozen=True)
class OrliczReport:
    """Log-regularized functionals on both sides of the integrability claim.

    On a finite space both functionals are always finite, so this is recorded
    for visibility and never asserted as a discriminating test.
    """

    m: int
    input_functional: float     # of f, with exponent m + 2
    sup_functional: float       # of the sup field, with exponent m
    both_finite: bool
    truncation: SupBox


def orlicz_class_report(spec: ProcessSpec, m: int, box: SupBox | None = None) -> OrliczReport:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if box is None:
        box = default_box(spec)
    fin = llog_norm(spec.f, m + 2, spec.norm)
    fsup = llog_norm(sup_field(spec, box), m, spec.norm)
    return OrliczReport(
        m=m, input_functional=fin, sup_functional=fsup,
        both_finite=bool(np.isfinite(fin) and np.isfinite(fsup)),
        truncation=box,
    )
