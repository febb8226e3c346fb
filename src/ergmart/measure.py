"""Finite measure spaces, partitions, and monotone filtrations.

On a finite point set every sigma-subalgebra is generated by a partition, so
partitions stand in for subalgebras throughout. A filtration is a monotone
chain of partitions; chains on N points stabilize after at most N-1 strict
steps, which makes the limit stage an exact, computable object.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

INCREASING = "increasing"
DECREASING = "decreasing"
# labels below this many times the point count are renumbered by a table
_DENSE_LABELS = 4
# up to this many points, labels are renumbered in Python
_SMALL_N = 64

__all__ = [
    "MeasureSpace",
    "Partition",
    "Filtration",
    "INCREASING",
    "DECREASING",
    "uniform_space",
    "refines",
    "partition_join",
    "partition_meet",
]


@dataclass(frozen=True, eq=False, repr=False)
class MeasureSpace:
    """Points 0..N-1 carrying strictly positive masses."""

    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        arr = np.array(self.weights, dtype=float, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a measure space needs at least one point")
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(arr.sum())
        # a finite sum of positive masses passes every check below, so they
        # run, in order, only to name the fault (np.min is nan on a nan)
        if not (math.isfinite(total) and arr.min() > 0.0):
            if not np.isfinite(arr).all():
                raise ValueError("weights must be finite")
            if np.any(arr <= 0.0):
                raise ValueError("weights must be strictly positive")
            raise ValueError("weights must have a finite sum")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "total_mass", total)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def __eq__(self, other):
        if self is other:  # weights are finite, so a space always equals itself
            return True
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    def __repr__(self):
        return f"MeasureSpace(size={self.size}, total_mass={self.total_mass:g})"


def uniform_space(n: int) -> MeasureSpace:
    """N points of equal mass summing to 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return MeasureSpace(np.full(n, 1.0 / n))


def _canonical_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Nonnegative labels renumbered by first occurrence, so equal partitions
    share one representation, and the number of blocks. Up to _SMALL_N
    points a dict numbers them, which costs less than the numpy calls;
    above, labels below _DENSE_LABELS times the point count are renumbered
    through a table of first positions in O(N), sparser ones through
    np.unique."""
    n = labels.size
    if n <= _SMALL_N:
        first: dict[int, int] = {}
        canon = [first.setdefault(x, len(first)) for x in labels.tolist()]
        return np.array(canon, dtype=np.int64), len(first)
    top = int(labels.max())
    if top >= _DENSE_LABELS * n:
        uniq, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
        rank = np.empty(uniq.size, dtype=np.int64)
        rank[np.argsort(first_idx, kind="stable")] = np.arange(uniq.size)
        return rank[inverse].astype(np.int64), int(uniq.size)
    positions = np.arange(n)
    first = np.empty(top + 1, dtype=np.int64)
    first[labels[::-1]] = positions[::-1]  # reversed write keeps the first
    first_of_point = first[labels]
    # a block's new label counts the blocks that start before it
    rank = np.cumsum(first_of_point == positions) - 1
    return rank[first_of_point], int(rank[-1]) + 1


@dataclass(frozen=True, eq=False, repr=False)
class Partition:
    """Block labeling of a space; generates the corresponding subalgebra.

    Labels are canonicalized by first occurrence, so two partitions are equal
    exactly when they induce the same blocks, whatever the incoming labels.
    """

    space: MeasureSpace
    block_of: np.ndarray
    block_count: int = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.block_of).reshape(-1)
        if labels.size != self.space.size:
            raise ValueError("block labeling must cover every point exactly once")
        if labels.dtype.kind not in "iu":
            raise ValueError(f"block labels must be integers, not {labels.dtype}")
        # the canonical labels are a new array, so the input is never kept
        labels = labels.astype(np.int64, copy=False)
        if labels.min() < 0:
            raise ValueError("block labels must be nonnegative")
        canon, count = _canonical_labels(labels)
        canon.setflags(write=False)
        object.__setattr__(self, "block_of", canon)
        object.__setattr__(self, "block_count", count)

    @classmethod
    def singletons(cls, space: MeasureSpace) -> "Partition":
        return cls(space, np.arange(space.size))

    @classmethod
    def whole(cls, space: MeasureSpace) -> "Partition":
        return cls(space, np.zeros(space.size, dtype=np.int64))

    @classmethod
    def from_blocks(cls, space: MeasureSpace, blocks: Iterable[Iterable[int]]) -> "Partition":
        labels = np.full(space.size, -1, dtype=np.int64)
        for k, block in enumerate(blocks):
            for i in block:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"point {i!r} is not an integer")
                if not 0 <= i < space.size:
                    raise ValueError(f"point {i} outside the space")
                if labels[i] != -1:
                    raise ValueError(f"point {i} assigned to two blocks")
                labels[i] = k
        if np.any(labels < 0):
            raise ValueError("blocks must cover every point")
        return cls(space, labels)

    @functools.cached_property
    def block_masses(self) -> np.ndarray:
        masses = np.bincount(self.block_of, weights=self.space.weights, minlength=self.block_count)
        masses.setflags(write=False)
        return masses

    @functools.cached_property
    def _bin_layouts(self) -> dict:
        return {}

    def bin_layout(self, dim: int) -> np.ndarray:
        """The bincount bin block * dim + component of every (point,
        component) slot of an (N, dim) array, shape (N * dim,). Built once
        per dim and kept by the partition."""
        bins = self._bin_layouts.get(dim)
        if bins is None:
            bins = ((self.block_of * dim)[:, None] + np.arange(dim)).reshape(-1)
            bins.setflags(write=False)
            self._bin_layouts[dim] = bins
        return bins

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.block_of, other.block_of)

    def __repr__(self):
        return f"Partition(blocks={self.block_count}, size={self.space.size})"


def _require_same_space(a: Partition, b: Partition, what: str):
    if a.space != b.space:
        raise ValueError(f"{what} requires partitions on the same space")


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of `fine` sits inside a single block of `coarse`."""
    _require_same_space(fine, coarse, "refines")
    # representative coarse label per fine block: reversed write keeps the first
    rep = np.empty(fine.block_count, dtype=np.int64)
    rep[fine.block_of[::-1]] = coarse.block_of[::-1]
    # one space, so both labelings have its N points
    return not np.count_nonzero(rep[fine.block_of] != coarse.block_of)


def partition_join(a: Partition, b: Partition) -> Partition:
    """Coarsest common refinement: blocks are nonempty pairwise intersections."""
    _require_same_space(a, b, "partition_join")
    keys = a.block_of * np.int64(b.block_count) + b.block_of
    return Partition(a.space, keys)


def partition_meet(a: Partition, b: Partition) -> Partition:
    """Finest common coarsening: connected components of overlapping blocks."""
    _require_same_space(a, b, "partition_meet")
    n = a.space.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (a, b):
        first_of_block: dict[int, int] = {}
        for i, lbl in enumerate(part.block_of):
            j = first_of_block.setdefault(int(lbl), i)
            if j != i:
                union(j, i)
    return Partition(a.space, np.array([find(i) for i in range(n)]))


@dataclass(frozen=True, eq=False, repr=False)
class Filtration:
    """Monotone chain of partitions; the last stage is the stabilized limit.

    `increasing` means later stages refine earlier ones (subalgebras grow);
    `decreasing` is the reverse. The constructor rejects chains that break
    the declared direction, naming the first offending stage.
    """

    space: MeasureSpace
    direction: str
    stages: tuple[Partition, ...]

    def __post_init__(self):
        if self.direction not in (INCREASING, DECREASING):
            raise ValueError(f"direction must be '{INCREASING}' or '{DECREASING}'")
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("a filtration needs at least one stage")
        for k, st in enumerate(stages):
            if st.space != self.space:
                raise ValueError(f"stage {k} lives on a different space")
        for k in range(len(stages) - 1):
            if self.direction == INCREASING:
                ok = refines(stages[k + 1], stages[k])
            else:
                ok = refines(stages[k], stages[k + 1])
            if not ok:
                raise ValueError(
                    f"stage {k + 1} breaks {self.direction} monotonicity "
                    f"(first offending index {k + 1})"
                )
        object.__setattr__(self, "stages", stages)

    def __repr__(self):
        return f"Filtration({self.direction}, stages={len(self.stages)})"
