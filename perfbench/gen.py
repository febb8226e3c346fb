"""Seeded workload generator: explicit ergmart configs (or selfcheck calls).

Every input is fully explicit, so the library's own random generators play no
part and the cost of a solve does not depend on the luck of the seed:

- maps are permutations of a fixed cycle type whose points are shuffled by
  the seed, so the map's order (and with it every averaging horizon) is the
  same for every seed;
- weight frequencies have denominators that divide the order, so the exact
  stabilization period equals the order and lies on the trace grid;
- filtrations are nested block labelings with fixed block counts.

`solve_inputs(workload, seed, index, scale)` gives the inputs of solve number
`index` of a run with the given seed. Each solve gets fresh inputs, so no
result can be reused from an earlier solve of the same run.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("selfcheck", "wide_space", "long_orbit")
SCALES = ("full", "tiny")

# run_selfcheck budget per solve
SELFCHECK_BUDGET = {"full": 50, "tiny": 2}

# (space size, cycle type); lcm of the cycle type is the map's order
WIDE_SPACE = {
    "full": (1024, (12,) * 85 + (4,)),
    "tiny": (48, (12,) * 3 + (4,) * 3),
}
LONG_ORBIT = {
    "full": (64, (8, 7, 5, 3) * 2 + (8, 7, 3)),
    "tiny": (16, (5, 4, 3, 2, 1, 1)),
}
STAGE_DIVISORS = {"wide_space": 8, "long_orbit": 4}  # block-count ratio per stage
STAGES = 4
DIM = 2
CHECKS_P = (1.5, 2.0, 3.0)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _permutation(rng: random.Random, n: int, lengths) -> list[int]:
    if sum(lengths) != n:
        raise ValueError("cycle type must cover the space")
    points = list(range(n))
    rng.shuffle(points)
    perm = [0] * n
    start = 0
    for length in lengths:
        cyc = points[start:start + length]
        start += length
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return perm


def _decreasing_stages(rng: random.Random, n: int, ratio: int) -> list[list[int]]:
    """Finest stage first; each stage merges the blocks of the previous one
    into `ratio` times fewer blocks (at least one), balanced and shuffled."""
    labels = list(range(n))
    stages = [labels]
    blocks = n
    for _ in range(STAGES - 1):
        coarser = max(1, blocks // ratio)
        ids = list(range(blocks))
        rng.shuffle(ids)
        merge = {b: k % coarser for k, b in enumerate(ids)}
        labels = [merge[b] for b in labels]
        stages.append(labels)
        blocks = coarser
    return stages


def _weights(rng: random.Random, order: int) -> dict:
    """Two cosine terms with envelope 1 and denominators dividing the order."""
    divisors = [d for d in range(2, order + 1) if order % d == 0]
    terms = []
    amp = rng.uniform(0.3, 0.7)
    for a in (amp, 1.0 - amp):
        den = rng.choice(divisors)
        num = rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1])
        terms.append([a, [num, den], rng.uniform(0.0, 2.0 * math.pi)])
    return {"terms": terms}


def _config(rng: random.Random, kind: str, n: int, lengths, ratio: int,
            weighted: bool, seed: int) -> dict:
    order = math.lcm(*lengths)
    p = rng.choice(CHECKS_P)
    return {
        "seed": seed,
        "space": {"size": n, "weights": "uniform"},
        "maps": [{"kind": "explicit", "perm": _permutation(rng, n, lengths)}],
        "filtrations": [{"kind": "explicit", "direction": "decreasing",
                         "stages": _decreasing_stages(rng, n, ratio)}],
        "observable": {"kind": "explicit",
                       "values": [[rng.gauss(0.0, 1.0) for _ in range(DIM)]
                                  for _ in range(n)]},
        "weight_seqs": [_weights(rng, order)] if weighted else None,
        "process": kind,
        "norm_q": 2,
        "trace_p": 2.0,
        "grids": {"n1": "auto", "n2": "all"},
        "checks": [{"type": "dominant", "p": p},
                   {"type": "maximal", "p": p, "epsilons": "auto8"},
                   {"type": "orlicz", "m": 1}],
    }


def solve_inputs(workload: str, seed: int, index: int, scale: str = "full") -> list[dict]:
    """Inputs of one solve: selfcheck arguments, or one config per process kind."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = _rng(workload, seed, index)
    if workload == "selfcheck":
        return [{"budget": SELFCHECK_BUDGET[scale], "seed": rng.randrange(2**31)}]
    n, lengths = (WIDE_SPACE if workload == "wide_space" else LONG_ORBIT)[scale]
    weighted = workload == "long_orbit"
    return [_config(rng, kind, n, lengths, STAGE_DIVISORS[workload], weighted, seed)
            for kind in ("martingale_ergodic", "ergodic_martingale")]
