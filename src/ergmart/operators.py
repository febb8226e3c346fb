"""Measure-preserving maps, composition operators, and conditional expectation.

On a fully supported finite space a measure-preserving self-map is forced to
be a permutation whose preimage masses match exactly; the constructor checks
mu(preimage of y) = mu(y) directly and rejects anything else. Conditional
expectation with respect to a partition is block averaging, which is exact up
to float rounding.

A map's cycle structure (its order and the doubled-cycle layout the Cesaro
kernel reads) is built once, on first use, and kept on the map; a partition
keeps its block masses and bincount bins the same way.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measure import MeasureSpace, Partition
from .observables import NormSpec, VectorObservable, lp_norm, linf_norm, point_norm_field

__all__ = [
    "CycleLayout",
    "Endomorphism",
    "identity_map",
    "cycle_map",
    "power",
    "cycles",
    "orbit_lcm",
    "koopman",
    "block_means",
    "cond_expect",
    "DominationReport",
    "ContractionReport",
    "check_positive_domination",
    "check_L1_Linf_contraction",
]

_TOL = 1e-12


@dataclass(frozen=True, eq=False, repr=False)
class CycleLayout:
    """Cycle structure of a permutation, laid out for prefix sums.

    Every cycle, starting at its smallest point, is written out twice, back
    to back, in one flat array, so the first L images of any point on a cycle
    of length L are consecutive slots.
    """

    order: int            # lcm of the cycle lengths
    flat: np.ndarray      # (2N,) point at each slot
    step: np.ndarray      # (2N,) index of each slot along its doubled cycle
    length: np.ndarray    # (N,) cycle length L of each point
    position: np.ndarray  # (N,) position j of each point on its cycle
    slot: np.ndarray      # (N,) slot of each point's first copy
    distinct_lengths: np.ndarray  # the distinct cycle lengths, ascending
    length_class: np.ndarray      # (N,) index of each point's L in distinct_lengths


def _cycle_layout(perm: list[int]) -> CycleLayout:
    n = len(perm)
    seen = [False] * n
    flat: list[int] = []
    step: list[int] = []
    length, position, slot = [0] * n, [0] * n, [0] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        size, base = len(cyc), len(flat)
        for j, x in enumerate(cyc):
            length[x], position[x], slot[x] = size, j, base + j
        flat += cyc + cyc
        step += range(2 * size)
        sizes.append(size)
    distinct = sorted(set(sizes))
    klass = {size: k for k, size in enumerate(distinct)}
    length_class = [klass[size] for size in length]
    arrays = [np.array(a, dtype=np.int64)
              for a in (flat, step, length, position, slot, distinct, length_class)]
    for arr in arrays:
        arr.setflags(write=False)
    return CycleLayout(math.lcm(*sizes), *arrays)


@dataclass(frozen=True, eq=False, repr=False)
class Endomorphism:
    """Measure-preserving self-map tau, stored as map[i] = tau(i)."""

    space: MeasureSpace
    map: np.ndarray

    def __post_init__(self):
        arr = np.array(self.map, dtype=np.int64, copy=True).reshape(-1)
        n = self.space.size
        if arr.size != n:
            raise ValueError("map must assign an image to every point")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("map images must be points of the space")
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError("map is not a permutation; a measure-preserving "
                             "map on a fully supported finite space must be one")
        mu = self.space.weights
        preimage_mass = np.bincount(arr, weights=mu, minlength=n)
        # relative to each mass, so that masses far below 1 are compared too
        gap = np.max(np.abs(preimage_mass - mu) / mu)
        if gap > _TOL:
            raise ValueError(f"map does not preserve the measure (mass gap {gap:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "map", arr)

    @functools.cached_property
    def cycle_layout(self) -> CycleLayout:
        """Order and prefix-sum layout of the cycles, built on first use."""
        return _cycle_layout(self.map.tolist())

    def __repr__(self):
        return f"Endomorphism(size={self.space.size})"


def identity_map(space: MeasureSpace) -> Endomorphism:
    return Endomorphism(space, np.arange(space.size))


def cycle_map(space: MeasureSpace) -> Endomorphism:
    """The full shift i -> i+1 mod N; needs orbit-constant masses."""
    n = space.size
    return Endomorphism(space, (np.arange(n) + 1) % n)


def power(t: Endomorphism, k: int) -> Endomorphism:
    """tau composed with itself k times (k >= 0), by repeated squaring."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = np.arange(t.space.size)
    base = t.map
    while k:
        if k & 1:
            out = base[out]
        base = base[base]
        k >>= 1
    return Endomorphism(t.space, out)


def cycles(t: Endomorphism) -> list[np.ndarray]:
    """Orbit decomposition of the permutation, each orbit starting at its
    smallest point."""
    lay = t.cycle_layout
    return [lay.flat[s:s + lay.length[lay.flat[s]]] for s in np.flatnonzero(lay.step == 0)]


def orbit_lcm(t: Endomorphism) -> int:
    """Least common multiple of the cycle lengths (the order of tau)."""
    return t.cycle_layout.order


def koopman(f: VectorObservable, t: Endomorphism) -> VectorObservable:
    """Composition operator: output(w) = f(tau(w))."""
    if f.space != t.space:
        raise ValueError("observable and map live on different spaces")
    return VectorObservable(f.space, f.values[t.map])


def block_means(values: np.ndarray, part: Partition) -> np.ndarray:
    """Mass-weighted block means of point values: shape (..., N, dim) in,
    (..., block_count, dim) out, leading axes kept.

    The values are multiplied by the point masses once, then summed per
    block in one bincount pass over the whole stack; each bin adds its
    values in point order, so every column of every slice comes out bit for
    bit as its own one-column bincount would. The bins of one slice are the
    partition's (Partition.bin_layout), built once per dim. A partition of
    single points needs no bincount (see _weighted_block_means).
    """
    vals = np.asarray(values, dtype=float)
    return _weighted_block_means(vals * part.space.weights[:, None], part)


def _weighted_block_means(weighted: np.ndarray, part: Partition) -> np.ndarray:
    """block_means of values already multiplied by the point masses, so one
    product serves every partition of a stack. On single points each bin
    would add one term to 0.0, which keeps it, so the product divided by
    the masses is the same float (an input -0.0 stays -0.0)."""
    if part.block_count == part.space.size:
        return weighted / part.block_masses[:, None]
    *lead, n, dim = weighted.shape
    rows = math.prod(lead)
    width = part.block_count * dim
    bins = part.bin_layout(dim)
    if rows > 1:
        bins = np.add.outer(np.arange(0, rows * width, width), bins).reshape(-1)
    sums = np.bincount(bins, weights=weighted.reshape(-1), minlength=rows * width)
    return sums.reshape(*lead, part.block_count, dim) / part.block_masses[:, None]


def cond_expect(f: VectorObservable, part: Partition) -> VectorObservable:
    """Blockwise weighted average; constant on each block of the partition."""
    if f.space != part.space:
        raise ValueError("observable and partition live on different spaces")
    return VectorObservable(f.space, block_means(f.values, part)[part.block_of])


@dataclass(frozen=True)
class DominationReport:
    """Per-sample slack of |T f|_X <= T'(|f|_X) plus positivity/L1 checks on T'."""

    passed: bool
    max_slack: float
    rows: tuple[dict, ...]


@dataclass(frozen=True)
class ContractionReport:
    passed: bool
    rows: tuple[dict, ...]


def check_positive_domination(
    apply_T: Callable[[VectorObservable], VectorObservable],
    apply_Tdom: Callable[[VectorObservable], VectorObservable],
    samples: Sequence[VectorObservable],
    ns: NormSpec = NormSpec(),
) -> DominationReport:
    """Sample-based necessary-condition check that T' positively dominates T.

    For each sample f it records max_w (|Tf(w)|_X - T'(|f|_X)(w)), verifies
    that T' keeps nonnegative scalar fields nonnegative, and that T'
    contracts the L1 norm.
    """
    rows = []
    worst = -math.inf
    for f in samples:
        tf = apply_T(f)
        norm_f = point_norm_field(f, ns)
        dom = apply_Tdom(norm_f)
        slack = float((point_norm_field(tf, ns).values[:, 0] - dom.values[:, 0]).max())
        positive = bool(dom.values.min() >= -_TOL)
        l1_in = lp_norm(norm_f, 1.0, ns)
        l1_out = lp_norm(dom, 1.0, ns)
        contracts = l1_out <= l1_in + _TOL
        ok = slack <= _TOL and positive and contracts
        rows.append({
            "max_slack": slack,
            "dominant_positive": positive,
            "dominant_l1_contracts": contracts,
            "ok": ok,
        })
        worst = max(worst, slack)
    return DominationReport(
        passed=all(r["ok"] for r in rows),
        max_slack=worst if rows else 0.0,
        rows=tuple(rows),
    )


def check_L1_Linf_contraction(
    apply_T: Callable[[VectorObservable], VectorObservable],
    samples: Sequence[VectorObservable],
    ns: NormSpec = NormSpec(),
) -> ContractionReport:
    """Checks |Tf|_1 <= |f|_1 and |Tf|_inf <= |f|_inf on each sample."""
    rows = []
    for f in samples:
        tf = apply_T(f)
        l1_in, l1_out = lp_norm(f, 1.0, ns), lp_norm(tf, 1.0, ns)
        li_in, li_out = linf_norm(f, ns), linf_norm(tf, ns)
        ok = l1_out <= l1_in + _TOL and li_out <= li_in + _TOL
        rows.append({
            "l1_in": l1_in, "l1_out": l1_out,
            "linf_in": li_in, "linf_out": li_out,
            "ok": ok,
        })
    return ContractionReport(passed=all(r["ok"] for r in rows), rows=tuple(rows))
