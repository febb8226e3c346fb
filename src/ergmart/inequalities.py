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
averages are linear, so the inner axes keep the cut to P_j.

When the averaging comes first (martingale-ergodic), the outer conditioning
mixes the points of a block, so all points share the outermost axis. With
one map and one filtration that axis is read in rounds of 64, 128, 256, ...
rows and stops after the first round n_0 at which an exact certificate
shows that no later row raises the field. With S_n(y) = sum_{i<n} a_i
f(T^i y) and l(y) = S_{H_y}(y) / H_y the limit, S_n - n l has period H_y,
so |A_n f(y) - l(y)|_q <= R_y / n with R_y = max_{r <= H_y} |S_r - r l|_q.
A conditional expectation is a mean, so |E h|_q <= E|h|_q, and

    |E[A_n f | B] - E[l | B]|_q <= R_B / n   for every n,

R_B the mu-mean of R_y over B. A block is closed once |E[l | B]|_q
+ R_B / n_0, plus the float margin of _row_error, lies below the field at
each of its points, so no computed row past n_0 raises the field, which is
the full pass's bit for bit. Where the bound leaves a block open, it is
also closed once n_0 reaches H_B, the lcm of the weight period and of
H_y on the cycles that B cuts: E[A_n f | B] - E[l | B] is then V(n) / n
with V of period H_B and V(H_B) = 0, so each later row lies on a segment
from E[l | B] to a row at n <= H_B, as above, and the field falls short of
the full pass's by at most the rounding of the rows it skips. R_y comes
from one unconditioned pass of each point to H_y <= n_max_1, once per pass.
Irrational frequencies, weights whose period passes n_max_1, several maps
or filtrations, and a box that ends inside the first round run every point
to n_max_1.

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
from typing import Sequence

import numpy as np

from .averages import (_CHUNK_FLOATS, BesicovitchWeights, check_stages, composite_block_means,
                       conditioned, running_rows)
from .measure import DECREASING
from .observables import VectorObservable, llog_norm, lp_norm, point_norms
from .operators import block_means
from .processes import MARTINGALE_ERGODIC, ProcessSpec, _kernel

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
    "orlicz_class_report",
]

_TOL = 1e-12
# rows of the first round of a martingale-ergodic pass that may stop early;
# each later round ends where the rows read so far double
_FIRST_ROUND = 64
_U = np.finfo(float).eps / 2  # the unit roundoff


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


def _cut(spec: ProcessSpec, box: SupBox) -> SupBox:
    """_period_box of the box, kept by the spec for every later check."""
    return spec.keep(("cut", box), lambda: _period_box(spec, box))


def sup_field(spec: ProcessSpec, box: SupBox | None = None,
              prefixes: Sequence[SupBox] = ()) -> VectorObservable:
    """Pointwise max of the process norms over the box, monotone under box
    enlargement; the exact untruncated sup once n_max_j >= P_j on every
    averaging axis. Built over the box cut to the periods and kept by the spec
    under that cut box, so every check of a run, and every box that differs
    from another only past the periods, reads the same field. The same pass
    keeps the field of each of `prefixes` (no larger n_max, each stage set a
    prefix of the box's, as shrink_box gives): the max over the same floats
    as its own build, up to the rows that a certified stop skips."""
    if box is None:
        box = default_box(spec)
    box = _cut(spec, box)
    cut = {_cut(spec, small) for small in prefixes}
    for small in cut:
        if (any(a > b for a, b in zip(small.n_max, box.n_max))
                or any(ss != big[:len(ss)] for ss, big in zip(small.stage_sets, box.stage_sets))):
            raise ValueError("every box must be a prefix of the full box")
    missing = [small for small in cut - {box} if ("sup", small) not in spec.kept]
    if missing:  # only the box's pass builds them, so a kept box is built again
        spec.kept.pop(("sup", box), None)
    return spec.keep(("sup", box), lambda: _build_sup_field(spec, box, *missing))


def _horizons(spec: ProcessSpec) -> np.ndarray | None:
    """H_x = lcm(L_x, weight period) of every point x, with L_x the length
    of x's cycle under the first map: after H_x steps both the orbit and the
    weights repeat, so the Cesaro sum S_n(x) - n l(x) has period H_x. None
    when the first map's weights have no period."""
    lay = spec.maps[0].cycle_layout
    period = 1 if spec.weights is None else spec.weights[0].period
    if period is None:
        return None
    return np.array([math.lcm(int(length), period)
                     for length in lay.distinct_lengths])[lay.length_class]


def _horizon_classes(ends: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The points grouped by their last outermost row: (H, points) pairs, H
    ascending, the points of each class ascending. Condition-then-average
    builds each point x to min(n_max_1, H_x), n_max_1 when H_x is None (see
    the module docstring); the certificate of average-then-condition
    (_point_bounds) streams each point to H_x itself. Each class is one
    running_rows stream."""
    order = np.argsort(ends, kind="stable")
    return [(int(ends[points[0]]), points)
            for points in np.split(order, np.flatnonzero(np.diff(ends[order])) + 1)]


def _weights(w: BesicovitchWeights | None, n: int) -> np.ndarray | None:
    """The weights of a running_rows stream of n rows: at most one period,
    which the stream repeats; None unweighted."""
    return None if w is None else w.values(n if w.period is None else min(n, w.period))


def _chunk_rows(inner: np.ndarray, points: int, copies: int) -> int:
    """Rows of a chunk of an outermost running_rows pass over `points`
    points: about _CHUNK_FLOATS floats, counting each float `copies` times
    for the stacks built from it, and each row's int64 gather index (one
    entry per point of every stack entry) as floats too."""
    per_point = (inner.size * copies + inner.size // inner.shape[-1]) // inner.shape[-2]
    return max(1, _CHUNK_FLOATS // (per_point * points))


def _rounds(spec: ProcessSpec, box: SupBox, rows: int) -> tuple[int, ...]:
    """The row ends at which a sup pass over the box, in chunks of `rows`
    rows, may stop: after about _FIRST_ROUND rows and then each time the
    rows read so far double, in whole chunks once a round holds one, for a
    martingale-ergodic spec of one map and one filtration whose weights
    repeat within n_max_1 rows; (n_max_1,) for any other pass, and for a box
    that ends inside the first round."""
    end = box.n_max[0]
    if spec.kind != MARTINGALE_ERGODIC or spec.is_multi:
        return (end,)
    period = 1 if spec.weights is None else spec.weights[0].period
    if period is None or period > end:
        return (end,)
    stops = [_FIRST_ROUND if rows > _FIRST_ROUND else _FIRST_ROUND // rows * rows]
    while stops[-1] < end:
        stops.append(stops[-1] * 2 if stops[-1] < rows else stops[-1] + stops[-1] // rows * rows)
    return (*stops[:-1], end)


def _build_sup_field(spec: ProcessSpec, box: SupBox, *prefixes: SupBox) -> VectorObservable:
    """One streamed pass over the box as given (sup_field hands it the box
    cut to the periods): the inner maps' averaging axes are built whole, the
    outermost one chunk by chunk, and each chunk's norms are folded into the
    running pointwise max of the box and of each prefix box, whose fields
    are kept on the spec.

    Condition-then-average: one pass from row 0 per class of points that
    share a last row min(n_max_1, H_x). Average-then-condition: one pass of
    every point, in the rounds of _rounds. It stops at the end of the first
    round n_0 after which the certificate (_certified) shows that no later
    row raises any box's field; else it runs to n_max_1. Either way each
    field is a max over a prefix of the full pass's floats. Every pass,
    the inner axes' too, is a running_rows stream that reads one weight
    period at most (_weights), once for all of its classes or rounds."""
    me = spec.kind == MARTINGALE_ERGODIC
    end = box.n_max[0]
    ends = None if me else _horizons(spec)
    classes = _horizon_classes(np.full(spec.space.size, end) if ends is None
                               else np.minimum(ends, end))
    weights = spec.weights or (None,) * spec.d_maps
    w, q = weights[0], spec.norm.q
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
        n = box.n_max[j]
        _, inner = next(running_rows(inner, spec.maps[j], _weights(weights[j], n), (n,), n))
    rounds = _rounds(spec, box, _chunk_rows(inner, spec.space.size, copies))
    # the longest class holds the last row of any pass (martingale-ergodic
    # has one class of every point)
    alphas = _weights(w, classes[-1][0])
    cert: dict = {}  # this pass's certificate, built at its first round end
    for last, points in classes:
        for start, chunk in running_rows(inner, spec.maps[0], alphas, rounds if me else (last,),
                                         _chunk_rows(inner, len(points), copies), points):
            if me:
                # the outermost conditioning is constant on its blocks, so its
                # max is taken per block and only then spread to the points
                for k, (part, means) in enumerate(
                        composite_block_means(chunk, spec.filtrations, box.stage_sets)):
                    _fold(boxes, fields, point_norms(means, q), start, points, (k, part))
            else:
                _fold(boxes, fields, point_norms(chunk, q), start, points, None)
            row = start + len(chunk)
            if row in rounds[:-1] and _certified(spec, cert, boxes, fields, row, end):
                break
    for small, field in zip(prefixes, fields[1:]):
        spec.kept["sup", small] = VectorObservable(spec.space, field)
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


def _certified(spec: ProcessSpec, cert: dict, boxes, fields, row: int, end: int) -> bool:
    """Whether no row past `row` of a martingale-ergodic pass up to `end`
    raises any box's field: every block of every stage of each box that runs
    past `row` is closed, by its bound or by its period (see the module
    docstring). `cert` is the pass's own certificate, filled on first use:
    the margin, the point bounds up to `end`, and per stage s its block
    bounds and, once they leave a block open, its block periods."""
    asked = [(field, s) for box, field in zip(boxes, fields) if box.n_max[0] > row
             for s in box.stage_sets[0]]
    if not cert:
        slope, offset = _row_error(spec)
        # the rows of this pass and of the certificate's, both up to `end`
        cert["margin"] = 2 * (slope * end + offset)
        cert["points"] = _point_bounds(spec, end, slope, offset)
    for field, s in asked:
        if ("bound", s) not in cert:
            cert["bound", s] = _stage_bound(spec, cert["points"], s)
        block_of, limit, spread = cert["bound", s]
        closed = (limit + spread / row)[block_of] * (1 + 4 * _U) + cert["margin"] < field
        if closed.all():
            continue
        if ("period", s) not in cert:
            cert["period", s] = _stage_period(spec, s, end)
        period = cert["period", s]
        closed |= ((period > 0) & (period <= row))[block_of]
        if not closed.all():
            return False
    return True


def _row_error(spec: ProcessSpec) -> tuple[float, float]:
    """(a, b) such that a n + b bounds the rounding of any conditioned row
    norm |E[A_m f | B]|_q, m <= n, of the martingale-ergodic pass: first
    order in the unit roundoff u, doubled to cover the higher orders. With
    K = max |a_i| (1 unweighted), F = max |f| over the components, N points
    and d components: the running sum of m products, and the division by m,
    are off by at most (m + 1) u K F per component; the block mean adds
    (2N + 3) u K F (the mass products, a sum of at most N of them, a block
    mass summed from at most N masses, and the division); a componentwise
    error e moves the l^q norm by |e|_q <= d max |e|, and the norm itself
    is off by (d + 4) u |v|_q, with |v|_q <= d K F. In all
    2 u K F d (n + 2N + d + 8)."""
    w = None if spec.weights is None else spec.weights[0]
    size, dim = spec.space.size, spec.f.dim
    slope = 2 * _U * dim * float(np.abs(spec.f.values).max()) * (
        1.0 if w is None else w.sup_abs(w.period))
    return slope, slope * (2 * size + dim + 8)


def _point_bounds(spec: ProcessSpec, cap: int, slope: float, offset: float) -> tuple:
    """(l, R) per point: l(y) the pass's own row at H_y and R_y, for
    H_y <= cap (inf past it), with (slope, offset) of _row_error.

    Each class of points that share H_y <= cap streams f through
    running_rows to row H_y, all of them reading one weight period, and
    folds r |A_r - g|_q into R_y, g the limit of the spec's Cesaro kernel
    of f (one map, so its innermost). Any g serves: |S_r - r l|_q
    <= r |A_r - g|_q + r |g - l|_q, and |g - l|_q is read at the class's last
    row. Each A_r is a row of the kind _row_error bounds, and the 2 (d + 8) u
    of the final factor covers the differences, norms and products after
    them."""
    w = None if spec.weights is None else spec.weights[0]
    guess, values, q = _kernel(spec).average(None), spec.f.values, spec.norm.q
    limit, bound = np.zeros_like(values), np.full(spec.space.size, math.inf)
    alphas = _weights(w, cap)
    for end, points in _horizon_classes(_horizons(spec)):
        if end > cap:
            break
        top = np.zeros(len(points))
        for start, chunk in running_rows(values, spec.maps[0], alphas, (end,),
                                         _chunk_rows(values, len(points), 1), points):
            rows = np.arange(start + 1, start + len(chunk) + 1, dtype=float)[:, None]
            deviation = point_norms(chunk - guess[points], q) * rows
            np.maximum(top, deviation.max(axis=0), out=top)
        limit[points] = chunk[-1]
        miss = point_norms(chunk[-1] - guess[points], q) + 2 * (slope * end + offset)
        bound[points] = (top + end * miss) * (1 + 2 * (spec.f.dim + 8) * _U)
    return limit, bound


def _stage_bound(spec: ProcessSpec, points: tuple, s: int):
    """(block_of, |E[l | B]|_q, R_B) of stage s of the first filtration,
    per block, from the point bounds (l, R) of _point_bounds. The
    (2N + 8) u of R_B covers the block means."""
    limit, bound = points
    part = spec.filtrations[0].stages[s]
    means = block_means(np.hstack([limit, bound[:, None]]), part)
    return (part.block_of, point_norms(means[:, :-1], spec.norm.q),
            means[:, -1] * (1 + (2 * spec.space.size + 8) * _U))


def _stage_period(spec: ProcessSpec, s: int, cap: int) -> np.ndarray:
    """H_B per block of stage s: the lcm of the weight period and of H_y on
    the cycles that B cuts, 0 past the cap, read class by class so that no
    product overflows."""
    part = spec.filtrations[0].stages[s]
    lay, block_of = spec.maps[0].cycle_layout, part.block_of
    # a cycle is cut when one of its steps y -> T y leaves y's block
    cycle, leaves = lay.slot - lay.position, block_of != block_of[spec.maps[0].map]
    cut = np.bincount(cycle, leaves, 2 * spec.space.size)[cycle] > 0
    ends = _horizons(spec)
    period = np.full(part.block_count, 1 if spec.weights is None else spec.weights[0].period)
    for end in set(ends[cut].tolist()):
        has = np.bincount(block_of[cut & (ends == end)], minlength=part.block_count) > 0
        step = period // np.gcd(period, end)
        period = np.where(has, np.where(step > cap // end, 0, step * end), period)
    return period


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
    truncation: SupBox
    alpha: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + _TOL

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


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
                 box: SupBox | None) -> tuple[SupBox, float, float, float]:
    """Validates a dominant or maximal check (sup_field validates the box);
    returns the box, the weight bound alpha (the largest envelope sum |amp_k|,
    which bounds every computed a_i; 1 unweighted), the constant and |f|_p.
    Raises OverflowError for a constant outside the positive floats, as
    alpha^p of a tiny alpha underflows to 0."""
    if not p > 1.0:
        raise ValueError("p must be > 1")
    broken = broken_rule(spec, check, p)
    if broken is not None:
        raise ValueError(broken[1])
    if box is None:
        box = default_box(spec)
    alpha = 1.0 if spec.weights is None else max(w.amplitude_bound for w in spec.weights)
    constant = dominant_constant if check == "dominant" else maximal_constant
    const = constant(p, weighted=spec.is_weighted, multi=spec.is_multi, alpha=alpha,
                     d_maps=spec.d_maps)
    if not 0 < const < math.inf:
        raise OverflowError("the catalog constant is not a positive float")
    norm = spec.keep(("norm", p), lambda: lp_norm(spec.f, p, spec.norm))
    return box, alpha, const, norm


def dominant_check(spec: ProcessSpec, p: float, box: SupBox | None = None) -> InequalityReport:
    """|  sup-of-process-norms  |_p <= C(p, variant) |f|_p over the box."""
    box, alpha, const, f_norm = _check_setup(spec, "dominant", p, box)
    field = sup_field(spec, box)
    lhs = lp_norm(field, p, spec.norm)
    rhs = const * f_norm
    return InequalityReport(
        theorem_tag=_theorem_tag(spec, "dominant"),
        lhs=lhs, rhs=rhs, constant=const, p=p, epsilon=None, truncation=box, alpha=alpha,
    )


def epsilon_sweep(spec: ProcessSpec, p: float, eps_grid: Sequence[float],
                  box: SupBox | None = None) -> list[InequalityReport]:
    """mu{ sup >= eps } <= C(p, variant) |f|_p^p / eps^p over the box, one report
    per eps of the ascending grid; the sup field is computed once."""
    box, alpha, const, f_norm = _check_setup(spec, "maximal", p, box)
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or not all(e > 0 for e in eps_grid):
        raise ValueError("epsilon grid must be nonempty and positive")
    if any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    field = sup_field(spec, box).values[:, 0]
    mu = spec.space.weights
    tag = _theorem_tag(spec, "maximal")
    out = []
    for eps in eps_grid:
        lhs = float(mu[field >= eps].sum())
        # the ratio first: C |f|_p^p / eps^p does not change when f and eps
        # are scaled together, while |f|_p^p alone may leave the float range
        rhs = const * (f_norm / eps) ** p
        out.append(InequalityReport(
            theorem_tag=tag, lhs=lhs, rhs=rhs, constant=const, p=p, epsilon=eps,
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
