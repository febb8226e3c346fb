"""Identical-output gate for the selfcheck, the inequality fuzz and the
instance generator.

Speed-ups of these paths must keep every random draw and every printed
figure. The sha256 digests below were frozen from the library before the
per-object table caches and the batched generator draws; a change that moves
any of them must say so and refreeze them on purpose.
"""
import hashlib
import re

import numpy as np

from ergmart.fuzz import run_inequality_fuzz
from ergmart.generators import FAMILIES, random_process_instance
from ergmart.selfcheck import run_selfcheck

FROZEN = {
    "selfcheck": "c97ea3508ffee7a25925be587aaf089967278d56190da0dca39f21d8f9686373",
    "fuzz": "d78cba27322f5603baa3e885dd21007ddeb91b36616483a29c1ea8912ec34112",
    "instances": "a18244e4fefa8e67c8faf8719bec89bc9635948c536fe6e9fc52b03289e32aed",
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


def instances_digest(seeds: int = 60) -> str:
    """Every array and parameter of random_process_instance over the seeds
    and the six families."""
    h = hashlib.sha256()
    for seed in range(seeds):
        for family in FAMILIES:
            inst = random_process_instance(seed, family)
            spec = inst.spec
            h.update(f"{family} {seed} {spec.kind} {inst.p!r} {spec.norm.q!r}".encode())
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
    return h.hexdigest()


def test_selfcheck_lines_are_frozen():
    assert selfcheck_digest() == FROZEN["selfcheck"]


def test_fuzz_lines_are_frozen():
    assert fuzz_digest() == FROZEN["fuzz"]


def test_generated_instances_are_frozen():
    assert instances_digest() == FROZEN["instances"]
