"""Cesaro averages, orbit limits, cosine weight sequences, and composite
conditional expectations.

Weight sequences are real cosine polynomials a_i = sum_k amp_k *
cos(2 pi freq_k i + phase_k). When a frequency is rational a/b (given as a
Fraction, or recognized from a float) the term is evaluated through the
reduced index i mod b, which makes the sequence exactly periodic in floating
point as well; the stabilization criteria downstream rely on that.

Every Cesaro average and its limit comes from one cycle kernel
(`CesaroKernel`): a map is a permutation, so the average at any length n is
exact arithmetic on its cycles. The kernel is built once per stack of values,
map and weights (the gather onto the doubled cycles, the prefix sum and the
per-cycle sums do not depend on n) and is then read at any n, or at the
limit, at a cost that does not grow with n.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .measure import Filtration, Partition
from .observables import VectorObservable
from .operators import Endomorphism, _weighted_block_means

__all__ = [
    "BesicovitchWeights",
    "CesaroKernel",
    "composite_block_means",
    "composite_cond_expect",
    "conditioned",
]

_RATIONAL_TOL = 1e-12
_MAX_DENOM = 4096
# keeps num * (m mod den) below 2**62, so the exact phase reduction stays in int64
_MAX_EXACT_DENOM = 2**31
# floats per chunk of a stacked pass (a sup pass along its outermost averaging
# axis, a trace along its n grid), so its memory grows with neither
_CHUNK_FLOATS = 2**17
# rows of at least this many floats are summed with one add per row: numpy's
# accumulate along the outer axis is faster on narrower rows, slower on wider
_ROW_ADD_FLOATS = 256


def _reduce_frequency(freq: float | Fraction) -> tuple[int, int] | None:
    """(numerator, denominator) of a Fraction, or of a float that is
    recognizably rational; None for any other float."""
    if isinstance(freq, Fraction):
        return freq.numerator, freq.denominator
    fr = Fraction(freq).limit_denominator(_MAX_DENOM)
    if abs(float(fr) - freq) <= _RATIONAL_TOL:
        return fr.numerator % fr.denominator if fr.denominator > 1 else 0, fr.denominator
    return None


@dataclass(frozen=True, eq=False, repr=False)
class BesicovitchWeights:
    """Bounded weight sequence generated by a cosine polynomial.

    A frequency given as a `fractions.Fraction` is kept exact; a float one is
    read as rational when a denominator up to 4096 matches it.
    """

    terms: tuple[tuple[float, float, float], ...]
    amplitude_bound: float = field(init=False)

    def __post_init__(self):
        raw = tuple(self.terms)
        terms = tuple((float(a), float(fq), float(ph)) for a, fq, ph in raw)
        if not terms:
            raise ValueError("at least one (amplitude, frequency, phase) term is required")
        if not all(math.isfinite(v) for term in terms for v in term):
            raise ValueError("amplitudes, frequencies and phases must be finite")
        if all(a == 0.0 for a, _, _ in terms):
            raise ValueError("at least one amplitude must be nonzero")
        for _, fq, _ in raw:
            if not 0 <= fq < 1:
                raise ValueError("frequencies must lie in [0, 1)")
        reduced = tuple(_reduce_frequency(fq) for _, fq, _ in raw)
        if any(red is not None and red[1] > _MAX_EXACT_DENOM for red in reduced):
            raise ValueError("frequency denominators must be at most 2**31")
        object.__setattr__(self, "terms", terms)
        # added as `values` adds the terms, uncompensated (sum() compensates
        # from Python 3.12 on): by monotone rounding no computed |a_i| passes it
        object.__setattr__(self, "amplitude_bound",
                           functools.reduce(lambda s, t: s + abs(t[0]), terms, 0.0))
        # the kernel's view: a_i = Re sum_k coef_k * exp(i * angle_k(i))
        object.__setattr__(self, "_coef", np.array([a * complex(math.cos(ph), math.sin(ph))
                                                    for a, _, ph in terms]))
        # one column per term of two tables, shape (terms, 1)
        ratios = np.array([red or (0, 1) for red in reduced])
        columns = np.array(terms)
        object.__setattr__(self, "_exact", np.array([[red is not None] for red in reduced]))
        object.__setattr__(self, "_num", ratios[:, :1])
        object.__setattr__(self, "_den", ratios[:, 1:])
        object.__setattr__(self, "_amp", columns[:, :1])
        object.__setattr__(self, "_freq", columns[:, 1:2])
        object.__setattr__(self, "_phase", columns[:, 2:])

    @classmethod
    def constant(cls, value: float = 1.0) -> "BesicovitchWeights":
        return cls(((value, 0.0, 0.0),))

    @classmethod
    def single_cosine(cls, amplitude: float, numer: int, denom: int,
                      phase: float = 0.0) -> "BesicovitchWeights":
        """One cosine term with exactly rational frequency numer/denom."""
        if denom < 1 or not 0 <= numer < denom:
            raise ValueError("need 0 <= numer < denom")
        return cls(((amplitude, Fraction(numer, denom), phase),))

    def _angles(self, m: np.ndarray) -> np.ndarray:
        """2 pi (freq_k m mod 1) reduced to [-pi, pi], shape (terms, len(m)),
        for integer steps m. Rational frequencies use integer arithmetic, so
        the angle depends on m mod den only and is 0 exactly when den | m."""
        k = self._num * (m % self._den) % self._den
        exact = (k - self._den * (2 * k >= self._den)) / self._den
        x = self._freq * m
        return 2.0 * math.pi * np.where(self._exact, exact, x - np.rint(x))

    def values(self, n: int) -> np.ndarray:
        """First n weights, amp_k cos(angle_k(i) + phase_k) at the angles of
        `_angles` that the Cesaro kernel reads, added one term at a time in
        term order at every n (numpy's sum adds a single column pairwise)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        angles = self._angles(np.arange(n, dtype=np.int64)) + self._phase
        return functools.reduce(np.add, self._amp * np.cos(angles))

    def sup_abs(self, horizon: int) -> float:
        """Observed sup of |a_i| over i < horizon."""
        if horizon < 1:
            raise ValueError("horizon must be positive")
        return float(np.abs(self.values(horizon)).max())

    @property
    def period(self) -> int | None:
        """Common period when every frequency is rational, else None."""
        return math.lcm(*self._den.ravel().tolist()) if self._exact.all() else None

    def __repr__(self):
        return f"BesicovitchWeights(terms={len(self.terms)}, bound={self.amplitude_bound:g})"


def running_rows(arr: np.ndarray, t: Endomorphism, alphas: np.ndarray | None,
                 rounds: Sequence[int], rows: int,
                 points: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, chunk) of the stack of weighted Cesaro averages along a new
    leading axis, rows 0..rounds[-1]-1, in consecutive chunks of at most
    `rows` rows, none of which crosses a round end (`rounds` ascend).

    `arr` has shape (..., N, dim); row k is (1/(k+1)) sum_{i<=k} a_i T^i arr,
    with a_i = alphas[i % len(alphas)], so one period of a periodic sequence
    gives all of it, and a_i = 1 for alphas None. Each chunk is one gather of
    its T^i arr, the point T^i x read off the doubled cycles (slot slot_x +
    (i mod L_x), see operators.CycleLayout), one multiply by the weights and
    one running sum that adds the terms in row order and is carried into the
    next chunk, so every float is the one of the step recurrence acc + a_i
    T^i arr. An index array `points` builds the rows at those points only,
    in that order, on the point axis; each point's floats are those of the
    whole stack.
    """
    if rows < 1 or not all(a < b for a, b in zip((0, *rounds), rounds)):
        raise ValueError("rows must be positive and rounds must ascend from 1")
    arr = np.asarray(arr, dtype=float)
    lay = t.cycle_layout
    size, dim = arr.shape[-2], arr.shape[-1]
    klass, slot = ((lay.length_class, lay.slot) if points is None
                   else (lay.length_class[points], lay.slot[points]))
    values = arr.reshape(-1, dim)
    copies = len(values) // size
    # the running sum's last row, carried into the next chunk; one buffer
    # per stream, read only by a chunk that does not start at row 0
    carry = np.empty(arr.shape[:-2] + (len(slot), dim))
    for start, stop in zip((0, *rounds), rounds):
        for first in range(start, stop, rows):
            steps = np.arange(first, min(stop, first + rows))
            count, shape = len(steps), (len(steps),) + (1,) * arr.ndim
            # i mod L once per distinct length, spread to the points by a
            # gather: an integer division per point costs more than the gather;
            # then the point T^i x, read off the doubled cycles
            image = lay.flat[np.take(steps[:, None] % lay.distinct_lengths, klass, axis=1) + slot]
            index = np.empty((count, copies, len(slot)), dtype=np.int64)
            np.add(image[:, None, :], size * np.arange(copies)[:, None], out=index)
            del image
            out = np.empty((count,) + arr.shape[:-2] + (len(slot), dim))
            # the indices are in range; any mode but "raise" writes out unbuffered
            np.take(values, index, axis=0, out=out.reshape(count, copies, len(slot), dim),
                    mode="clip")
            del index
            if alphas is not None:
                out *= alphas[steps % len(alphas)].reshape(shape)
            if first:
                out[0] += carry
            if out[0].size < _ROW_ADD_FLOATS:
                np.cumsum(out, axis=0, out=out)
            else:
                for prev, row in zip(out, out[1:]):
                    row += prev
            if steps[-1] + 1 < rounds[-1]:
                np.copyto(carry, out[-1])
            out /= (steps + 1.0).reshape(shape)
            yield first, out


def _prefix_sum(x: np.ndarray) -> np.ndarray:
    """Prefix sums along the point axis (-2), with a leading zero row."""
    out = np.zeros(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1]), dtype=x.dtype)
    x.cumsum(axis=-2, out=out[..., 1:, :])
    return out


def _per_term(a: np.ndarray, lead: int) -> np.ndarray:
    """(..., N) factors, whose leading axes (per length, per term) match the
    leading axes of a stack, shaped to broadcast against it: `lead` stack
    axes and (N, dim) follow."""
    return a.reshape(a.shape[:-1] + (1,) * lead + a.shape[-1:] + (1,))


class CesaroKernel:
    """(1/n) sum_{i<n} a_i values[tau^i] of a stack of point values, at any
    n, or its limit for n None, computed exactly on the cycles of tau.

    The constructor does every part that does not depend on n once, over the
    whole `values` stack of shape (..., N, dim): the gather onto the doubled
    cycles (operators.CycleLayout), one prefix sum, the per-cycle sums and,
    weighted, the phase factors. `average(n)` then costs O(N dim) per stack
    entry at any n, and reads a whole array of lengths in one pass.

    On a cycle of length L, n = qL + r steps are q full cycles plus a window
    of r steps; both are differences of the one prefix sum. Weighted, each
    term amp cos(2 pi freq i + phase) is Re(coef omega^i): the prefix sum runs
    over omega^u values at step u of the doubled cycle, omega^-j moves it
    back to a point at position j, and the q full cycles add up to the
    geometric sum sum_{m<q} omega^(mL), which is q exactly when den | L and
    otherwise the Dirichlet ratio exp(i(q-1)theta/2) sin(q theta/2) /
    sin(theta/2) of the reduced angle theta of omega^L. In the limit only the
    terms with theta = 0 survive (Wiener-Wintner on a finite cycle), each
    with its one-cycle mean.
    """

    def __init__(self, values: np.ndarray, t: Endomorphism,
                 w: BesicovitchWeights | None = None):
        lay = t.cycle_layout
        self.length, self.w = lay.length, w
        doubled = np.take(values, lay.flat, axis=-2)
        self.lead = doubled.ndim - 2
        if w is not None:
            # one angle table: _angles is elementwise, and a point's position
            # and its cycle length are the steps of two of its slots
            angles = w._angles(lay.step)
            doubled = _per_term(np.exp(1j * angles), self.lead) * doubled
        csum = _prefix_sum(doubled)
        # np.take, unlike indexing, gathers into a C-contiguous array, and the
        # elementwise results of C-contiguous tables are C-contiguous too, so
        # every read runs numpy's fast loops and sums in one order
        self.base = np.take(csum, lay.slot, axis=-2)
        if w is None:
            # one sum per cycle: the limit is exactly orbit-constant
            start = lay.slot - lay.position
            self.cycle = (np.take(csum, start + lay.length, axis=-2)
                          - np.take(csum, start, axis=-2))
        else:
            self.back = w._coef[:, None] * np.exp(-1j * np.take(angles, lay.slot, axis=1))
            self.cycle = _per_term(self.back, self.lead) * (
                np.take(csum, lay.slot + lay.length, axis=-2) - self.base)
            self.theta = np.take(angles, lay.slot - lay.position + lay.length, axis=1)
            self.whole = self.theta == 0.0
            # the n-independent half angle and Dirichlet denominator
            self.half = self.theta / 2
            self.sin_half = np.where(self.whole, 1.0, np.sin(self.half))
        # every (term and) stack entry's prefix sum as one run of rows, so a
        # read at any lengths is one gather at index + r
        rows = csum.shape[-2]
        self.csum = csum.reshape(-1, csum.shape[-1])
        self.index = np.add.outer(np.arange(0, len(self.csum), rows), lay.slot)
        # a kernel may be kept and shared (ProcessSpec.keep), so its tables
        # are read-only
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    def average(self, n) -> np.ndarray:
        """The average at length n, shape of the stack; the limit for n None.
        An integer array of lengths gives the averages at each of them, on
        new leading axes of its shape, every one the float of its own read."""
        length, lead = self.length, self.lead
        if n is None:
            if self.w is None:
                return self.cycle / length[:, None]
            whole = _per_term(self.whole, lead)
            return np.where(whole, self.cycle.real, 0.0).sum(axis=0) / length[:, None]
        n = np.asarray(n)
        if min(n.flat, default=1) < 1:
            raise ValueError("n must be positive")
        q, r = np.divmod(n[..., None], length)  # n's shape + (N,)
        window = self.csum.take(self.index + r[..., None, :], axis=0)
        window = window.reshape(n.shape + self.base.shape) - self.base
        scale = n.reshape(n.shape + (1,) * (lead + 2))
        if self.w is None:
            return (_per_term(q, lead) * self.cycle + window) / scale
        # per-term factors of shape n's shape + (terms, N)
        q = q[..., None, :]
        half = self.half
        dirichlet = np.exp(1j * (q - 1) * half) * np.sin(q * half) / self.sin_half
        geometric = _per_term(np.where(self.whole, q, dirichlet), lead)
        window = _per_term(self.back * np.exp(1j * q * self.theta), lead) * window
        return (geometric * self.cycle + window).real.sum(axis=n.ndim) / scale


def composite_block_means(values: np.ndarray, filtrations: Sequence[Filtration],
                          stage_sets: Sequence[Sequence[int]],
                          ) -> Iterator[tuple[Partition, np.ndarray]]:
    """Composed conditional expectations of point values (..., N, dim) at
    every combination of the given stages, one stage set per filtration.

    The first filtration is the outermost factor, so the last one is applied
    first; conditional expectations for different filtrations do not commute
    in general, so the order is fixed here and relied on everywhere else.
    The inner filtrations condition the whole stack first (`conditioned`),
    adding their stage axes right after the stack's own leading axes. Each
    filtration's pass weights the stack by the point masses once, and every
    stage's block sums read that one product. Yields, per stage of the first
    filtration, its partition and the block means, shape (..., S_2, ...,
    S_m, blocks, dim) with S_k the size of the k-th stage set.
    """
    if len(filtrations) > 1:
        values = conditioned(values, filtrations[1:], stage_sets[1:])
    weighted = values * filtrations[0].space.weights[:, None]
    for s in stage_sets[0]:
        part = filtrations[0].stages[s]
        yield part, _weighted_block_means(weighted, part)


def conditioned(values: np.ndarray, filtrations: Sequence[Filtration],
                stage_sets: Sequence[Sequence[int]]) -> np.ndarray:
    """The block means of composite_block_means spread back to the points:
    shape (..., S_1, ..., S_m, N, dim), the stage axes right after the
    stack's own axes, in the order of the filtrations."""
    return np.stack([np.take(means, part.block_of, axis=-2) for part, means
                     in composite_block_means(values, filtrations, stage_sets)],
                    axis=values.ndim - 2)


def check_stages(filtrations: Sequence[Filtration], s_vec: Sequence[int]) -> tuple[int, ...]:
    """The stage vector as a tuple of ints; raises unless it gives one valid
    stage index per filtration."""
    s_vec = tuple(int(s) for s in s_vec)
    if len(s_vec) != len(filtrations):
        raise ValueError("s_vec must supply one stage index per filtration")
    for k, (fl, s) in enumerate(zip(filtrations, s_vec)):
        if not 0 <= s < len(fl.stages):
            raise ValueError(f"stage index {s} out of range for filtration {k}")
    return s_vec


def composite_cond_expect(f: VectorObservable, filtrations: Sequence[Filtration],
                          s_vec: Sequence[int]) -> VectorObservable:
    """Composition of one conditional expectation per filtration, the first
    filtration outermost (see composite_block_means)."""
    filtrations = tuple(filtrations)
    s_vec = check_stages(filtrations, s_vec)
    if not filtrations:
        return f
    values = conditioned(f.values, filtrations, [(s,) for s in s_vec])
    return VectorObservable(f.space, values.reshape(f.values.shape))
