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

import numpy as np

from .measure import MeasureSpace, Partition
from .observables import VectorObservable

__all__ = [
    "CycleLayout",
    "Endomorphism",
    "identity_map",
    "cycle_map",
    "power",
    "koopman",
    "block_means",
    "cond_expect",
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
