"""Seeded random instance construction for fuzzing and the CLI.

All randomness flows through numpy's 64-bit seeded Generator so every
instance is reproducible from its seed. Measure-preserving maps are built as
permutations with masses constant along each orbit (which is exactly what
measure preservation forces on a fully supported finite space). Filtrations
are merge chains: starting from singletons, two uniformly chosen blocks are
merged per step, and a few snapshots form the decreasing chain; the reversed
list is the increasing variant.

Weight sequences are normalized to amplitude envelope <= 1. The weighted
maximal bounds scale as alpha^p on the left but only alpha (or alpha^p vs
alpha^{pd}) on the right, so they can only be expected to hold for bounded
sequences with sup |a_i| <= 1; the corpus stays inside that regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .averages import BesicovitchWeights
from .measure import DECREASING, INCREASING, Filtration, MeasureSpace, Partition
from .observables import NormSpec, VectorObservable
from .operators import Endomorphism, power
from .processes import ERGODIC_MARTINGALE, MARTINGALE_ERGODIC, ProcessSpec

__all__ = [
    "random_cycle_system",
    "random_permutation",
    "random_partition",
    "random_filtration",
    "random_observable",
    "random_weights",
    "random_process_instance",
    "FAMILIES",
]

# cycle lengths with small pairwise lcm keep averaging horizons short
_CYCLE_LENGTHS = (1, 2, 3, 4, 6)
_SIGNS = np.array((-1.0, 1.0))
# cosine terms and frequency denominators of a random weight sequence
_MAX_TERMS = 3
_MAX_DENOM = 6
# space size and observable dim of a fuzz instance
_N_MAX = 64
_DIM_MAX = 4


def _pick(rng: np.random.Generator, options: tuple):
    """One uniform entry of `options`: the same draw as rng.choice(options),
    without turning the tuple into an array."""
    return options[rng.integers(0, len(options))]


def random_cycle_system(rng: np.random.Generator, n_max: int = 64,
                        uniform: bool = False, lcm_cap: int = 12,
                        ) -> tuple[MeasureSpace, Endomorphism, int]:
    """Space plus a measure-preserving permutation with bounded order.

    Returns (space, map, order). Orbit masses are constant by construction;
    `uniform` forces equal masses everywhere.
    """
    lengths: list[int] = []
    total = 0
    order = 1
    while True:
        ln = _pick(rng, _CYCLE_LENGTHS)
        if total + ln > n_max:
            if total >= 2:
                break
            continue
        if math.lcm(order, ln) > lcm_cap:
            continue
        lengths.append(ln)
        order = math.lcm(order, ln)
        total += ln
        if total >= n_max or (total >= 2 and rng.random() < 0.25):
            break
    n = total
    perm_points = rng.permutation(n)
    # the cycles are consecutive runs of perm_points; each point maps to the
    # next one of its run, the last one back to the first
    sizes = np.array(lengths)
    ends = np.cumsum(sizes)
    nxt = np.arange(1, n + 1)
    nxt[ends - 1] = ends - sizes
    mapping = np.empty(n, dtype=np.int64)
    mapping[perm_points] = perm_points[nxt]
    masses = np.full(len(lengths), 1.0) if uniform else rng.uniform(0.2, 2.0, len(lengths))
    weights = np.empty(n)
    weights[perm_points] = np.repeat(masses / n, sizes)
    space = MeasureSpace(weights)
    return space, Endomorphism(space, mapping), order


def random_permutation(rng: np.random.Generator, space: MeasureSpace) -> Endomorphism:
    """Uniform random permutation; valid only for uniform masses."""
    return Endomorphism(space, rng.permutation(space.size))


def random_partition(rng: np.random.Generator, space: MeasureSpace,
                     n_blocks: int) -> Partition:
    n = space.size
    n_blocks = max(1, min(n_blocks, n))
    labels = np.concatenate([np.arange(n_blocks), rng.integers(0, n_blocks, n - n_blocks)])
    return Partition(space, rng.permutation(labels))


def random_filtration(rng: np.random.Generator, space: MeasureSpace,
                      n_stages: int = 3, direction: str = DECREASING) -> Filtration:
    """Merge-chain filtration: singletons coarsened one uniform block pair at a
    time, snapshotted at n_stages distinct block counts.

    The singleton end and the one-block end each appear about half the time.
    """
    n = space.size
    n_stages = max(1, min(n_stages, n))
    counts: set[int] = set()
    if rng.random() < 0.5:
        counts.add(n)
    if rng.random() < 0.5 and len(counts) < n_stages:
        counts.add(1)
    while len(counts) < n_stages:
        counts.add(int(rng.integers(1, n + 1)))
    targets = sorted(counts, reverse=True)  # fine -> coarse
    # each of the n - 1 merge steps draws a pair of live blocks, whether or
    # not a snapshot is left to take, so one call makes all the draws
    highs = [h for blocks in range(n, 1, -1) for h in (blocks, blocks - 1)]
    draws = rng.integers(0, highs).tolist()
    labels = list(range(n))
    members = [[x] for x in range(n)]
    live = list(range(n))
    stages: list[Partition] = []
    for k, blocks in enumerate(range(n, 0, -1)):
        if blocks == targets[len(stages)]:
            stages.append(Partition(space, labels))
            if len(stages) == len(targets):
                break
        i, j = draws[2 * k], draws[2 * k + 1]
        if j >= i:
            j += 1
        a, b = live[i], live[j]
        for x in members[b]:
            labels[x] = a
        members[a] += members[b]
        live[j] = live[-1]
        live.pop()
    if direction == DECREASING:
        return Filtration(space, DECREASING, tuple(stages))
    return Filtration(space, INCREASING, tuple(reversed(stages)))


def random_observable(rng: np.random.Generator, space: MeasureSpace, dim: int,
                      style: str = "normal", scale: float = 1.0) -> VectorObservable:
    n = space.size
    if style == "normal":
        vals = rng.normal(0.0, scale, size=(n, dim))
    elif style == "spiky":
        vals = rng.normal(0.0, 0.05 * scale, size=(n, dim))
        k = int(rng.integers(0, n))
        vals[k] += rng.choice((-1.0, 1.0), size=dim) * scale * 20.0
    elif style == "mixed":
        vals = rng.normal(0.0, scale, size=(n, dim))
        hot = rng.random(n) < 0.1
        vals[hot] *= 10.0
    else:
        raise ValueError(f"unknown observable style {style!r}")
    return VectorObservable(space, vals)


def random_weights(rng: np.random.Generator, envelope: float = 1.0) -> BesicovitchWeights:
    """Cosine polynomial with rational frequencies and sum |amp| <= envelope."""
    k = int(rng.integers(1, _MAX_TERMS + 1))
    raw = rng.uniform(0.2, 1.0, k) * _SIGNS[rng.integers(0, 2, k)]
    target = envelope * float(rng.uniform(0.3, 1.0))
    amps = raw * (target / np.abs(raw).sum())
    terms = []
    for amp in amps:
        den = int(rng.integers(1, _MAX_DENOM + 1))
        num = int(rng.integers(0, den)) if den > 1 else 0
        phase = _pick(rng, (0.0, 0.25, 0.5, 1.0)) * math.pi
        terms.append((float(amp), Fraction(num, den), phase))
    return BesicovitchWeights(tuple(terms))


FAMILIES = ("single_me", "single_em", "weighted_me", "weighted_em",
            "multi_me", "multi_em")

# multiparameter maximal bounds carry alpha^p against alpha^{pd} on the other
# side, so the corpus keeps those envelopes well below one
_MULTI_ENVELOPE = 0.5


@dataclass(frozen=True)
class ProcessInstance:
    spec: ProcessSpec
    p: float
    seed: int
    family: str


def _pick_p(rng: np.random.Generator, integer_only: bool) -> float:
    if integer_only:
        return _pick(rng, (2.0, 3.0, 4.0))
    return _pick(rng, (1.25, 1.5, 2.0, 3.0, 4.0))


def random_process_instance(seed: int, family: str) -> ProcessInstance:
    """One seeded instance of the given family, ready for inequality checks."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rng = np.random.default_rng(seed)
    multi = family.startswith("multi")
    weighted = family.startswith("weighted") or multi
    me = family.endswith("_me")
    kind = MARTINGALE_ERGODIC if me else ERGODIC_MARTINGALE

    space, tau, order = random_cycle_system(rng, n_max=_N_MAX,
                                            lcm_cap=8 if multi else 12)
    dim = int(rng.integers(1, _DIM_MAX + 1))
    style = "spiky" if rng.random() < 0.25 else ("mixed" if rng.random() < 0.3 else "normal")
    f = random_observable(rng, space, dim, style=style)
    q = _pick(rng, (1.0, 2.0, math.inf))
    norm = NormSpec(q)
    p = _pick_p(rng, integer_only=multi)
    # martingale-ergodic bounds require decreasing chains
    direction = DECREASING if me else (DECREASING if rng.random() < 0.5 else INCREASING)

    if multi:
        d = int(rng.integers(1, 3))
        maps = [tau] + [power(tau, int(rng.integers(1, max(2, order))))
                        for _ in range(d - 1)]
        m = int(p) + 1
        filts = tuple(random_filtration(rng, space, n_stages=2, direction=direction)
                      for _ in range(m))
        seqs = tuple(random_weights(rng, envelope=_MULTI_ENVELOPE) for _ in range(d))
        spec = ProcessSpec(kind, f, tuple(maps), filts, seqs, norm)
    else:
        filt = random_filtration(rng, space, n_stages=int(rng.integers(2, 5)),
                                 direction=direction)
        w = random_weights(rng, envelope=1.0) if weighted else None
        spec = ProcessSpec.single(kind, f, tau, filt, weights=w, norm=norm)
    return ProcessInstance(spec=spec, p=p, seed=seed, family=family)
