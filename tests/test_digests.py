"""Identical-output gate for the selfcheck, the inequality fuzz, the
instance generator and the configs' random fragments.

Speed-ups of these paths must keep every random draw and every printed
figure. The sha256 digests below were frozen from the library before the
per-object table caches and the batched generator draws, the configs digest
before a config's generator was made at its first random fragment; a change
that moves any of them must say so and refreeze them on purpose.
"""
import hashlib
import re

import numpy as np

from ergmart.config import ConfigError, build_experiment
from ergmart.fuzz import run_inequality_fuzz
from ergmart.generators import FAMILIES, random_process_instance
from ergmart.selfcheck import run_selfcheck

FROZEN = {
    "selfcheck": "c97ea3508ffee7a25925be587aaf089967278d56190da0dca39f21d8f9686373",
    "fuzz": "d78cba27322f5603baa3e885dd21007ddeb91b36616483a29c1ea8912ec34112",
    "instances": "a18244e4fefa8e67c8faf8719bec89bc9635948c536fe6e9fc52b03289e32aed",
    "configs": "b68555b8abe91c24a5f2979c52b1a724f89617eb5950d48475681304994fafbd",
}

_ELAPSED = re.compile(r"selfcheck (PASSED|FAILED) in ")


def _text_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def selfcheck_digest() -> str:
    """run_selfcheck(budget=100) lines, without the elapsed-time line."""
    lines = run_selfcheck(budget=100).lines
    return _text_digest(line for line in lines if not _ELAPSED.match(line))


def fuzz_digest() -> str:
    """Summary and failure lines of the 300-instance fuzz."""
    report = run_inequality_fuzz(budget=300)
    return _text_digest(report.summary_lines() + ["--"] + report.failure_lines())


def _update(h, arr):
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def _update_spec(h, spec):
    _update(h, spec.space.weights)
    _update(h, spec.f.values)
    for t in spec.maps:
        _update(h, t.map)
    for fl in spec.filtrations:
        h.update(fl.direction.encode())
        for stage in fl.stages:
            _update(h, stage.block_of)
    for w in spec.weights or ():
        h.update(f"{w.terms!r} {w.period!r}".encode())


def instances_digest(seeds: int = 60) -> str:
    """Every array and parameter of random_process_instance over the seeds
    and the six families."""
    h = hashlib.sha256()
    for seed in range(seeds):
        for family in FAMILIES:
            inst = random_process_instance(seed, family)
            spec = inst.spec
            h.update(f"{family} {seed} {spec.kind} {inst.p!r} {spec.norm.q!r}".encode())
            _update_spec(h, spec)
    return h.hexdigest()


_RANDOM_FILTRATION = {"kind": "random", "direction": "increasing", "stages": 4}
_RANDOM_WEIGHTS = {"kind": "random", "envelope": 0.75}

# Every fragment random: a random permutation keeps only uniform masses, so
# on a random space the map is refused, with a mass gap that both draws
# set; the random maps are also read on a uniform space, and the random
# space under identity maps.
DIGEST_CONFIGS = {
    "all random": {
        "space": {"kind": "random", "max_size": 12},
        "maps": [{"kind": "random"}],
        "filtrations": [_RANDOM_FILTRATION],
        "observable": {"kind": "random", "dim": 2, "style": "mixed"},
        "weight_seqs": [_RANDOM_WEIGHTS],
    },
    "random maps": {
        "space": {"size": 24, "weights": "uniform"},
        "maps": [{"kind": "random"}, {"kind": "random"}],
        "filtrations": [_RANDOM_FILTRATION, {"kind": "random", "stages": 2}],
        "observable": {"kind": "random", "dim": 3, "style": "spiky"},
        "weight_seqs": [_RANDOM_WEIGHTS, _RANDOM_WEIGHTS],
        "process": "ergodic_martingale",
    },
    "random space": {
        "space": {"kind": "random", "max_size": 20},
        "maps": [{"kind": "identity"}, {"kind": "identity"}],
        "filtrations": [_RANDOM_FILTRATION],
        "observable": {"kind": "random", "dim": 2, "scale": 3.0},
        "weight_seqs": [_RANDOM_WEIGHTS, None],
    },
    "explicit and random": {
        "space": {"size": 6, "weights": "uniform"},
        "maps": [{"kind": "cycle"}, {"kind": "random"}, {"kind": "power", "of": 1}],
        "filtrations": [{"stages": [[0, 1, 2, 3, 4, 5], [0, 0, 1, 1, 2, 2]]},
                        {"kind": "random", "stages": 3}],
        "observable": {"values": [1.0, -2.0, 0.5, 4.0, 3.0, -1.0]},
        "weight_seqs": [None, _RANDOM_WEIGHTS, {"terms": [[0.5, [1, 3], 0.0]]}],
    },
}


def configs_digest(seeds: int = 20) -> str:
    """Every array and parameter that build_experiment makes of the
    DIGEST_CONFIGS over the seeds, or the refusal's message; this pins the
    order of the draws from the config's one generator."""
    h = hashlib.sha256()
    for seed in range(seeds):
        for name, config in DIGEST_CONFIGS.items():
            h.update(f"{name} {seed}".encode())
            try:
                plan = build_experiment(dict(config, seed=seed))
            except ConfigError as exc:
                h.update(str(exc).encode())
                continue
            spec = plan.spec
            h.update(f"{spec.kind} {plan.n1_grid} {plan.n2_grid} {plan.checks}".encode())
            _update_spec(h, spec)
    return h.hexdigest()


def test_selfcheck_lines_are_frozen():
    assert selfcheck_digest() == FROZEN["selfcheck"]


def test_fuzz_lines_are_frozen():
    assert fuzz_digest() == FROZEN["fuzz"]


def test_generated_instances_are_frozen():
    assert instances_digest() == FROZEN["instances"]


def test_configs_random_fragments_are_frozen():
    assert configs_digest() == FROZEN["configs"]
