"""Randomized inequality corpus: every generated instance must satisfy every
bound at every truncation, and the observed lhs/rhs ratios are tracked as a
sharpness diagnostic.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .generators import FAMILIES, random_process_instance
from .inequalities import (
    auto_epsilons,
    broken_rule,
    default_box,
    dominant_check,
    epsilon_sweep,
    shrink_box,
    sup_field,
)
from .observables import linf_norm

__all__ = ["FamilyStats", "FuzzReport", "broken_run_arg", "run_inequality_fuzz"]

_TOL = 1e-12

# relative weight of each family in the corpus
_FAMILY_SHARE = {
    "single_me": 0.25,
    "single_em": 0.25,
    "weighted_me": 0.20,
    "weighted_em": 0.15,
    "multi_me": 0.10,
    "multi_em": 0.05,
}
_TRUNCATION_FACTORS = (0.5, 0.25)
# levels of each maximal sweep
_EPS_COUNT = 8


@dataclass
class FamilyStats:
    instances: int = 0
    dominant_checks: int = 0
    maximal_checks: int = 0
    max_dominant_ratio: float = 0.0
    max_maximal_ratio: float = 0.0
    failures: list = field(default_factory=list)


@dataclass
class FuzzReport:
    budget: int
    seed: int
    elapsed: float
    stats: dict[str, FamilyStats]

    @property
    def ok(self) -> bool:
        return not any(st.failures for st in self.stats.values())

    def failure_lines(self) -> list[str]:
        out = []
        for fam, st in self.stats.items():
            for seed, detail in st.failures:
                out.append(f"{fam}: seed {seed}: {detail}")
        return out

    def summary_lines(self) -> list[str]:
        out = []
        for fam, st in self.stats.items():
            if st.instances == 0:
                continue
            status = "PASS" if not st.failures else "FAIL"
            out.append(
                f"[{status}] fuzz {fam}: {st.instances} instances, "
                f"{st.dominant_checks} dominant / {st.maximal_checks} maximal checks, "
                f"max ratios {st.max_dominant_ratio:.3f} / {st.max_maximal_ratio:.3f}"
            )
        return out


def _check_instance(inst, stats: FamilyStats):
    spec, p = inst.spec, inst.p
    box = default_box(spec, n_factor=2 if spec.d_maps > 1 else 4)
    smalls = [shrink_box(box, factor) for factor in _TRUNCATION_FACTORS]
    # one sup pass serves the box and its truncations
    sup_field(spec, box, smalls)

    full = dominant_check(spec, p, box)
    stats.dominant_checks += 1
    ratio = full.lhs / full.rhs if full.rhs > 0 else 0.0
    stats.max_dominant_ratio = max(stats.max_dominant_ratio, ratio)
    if not full.satisfied:
        stats.failures.append((inst.seed, f"{full.theorem_tag} dominant violated "
                               f"(lhs {full.lhs:.6g} > rhs {full.rhs:.6g}, p={p})"))
        return
    # truncating the sup box must keep the bound satisfied and never raise lhs
    for factor, small_box in zip(_TRUNCATION_FACTORS, smalls):
        small = dominant_check(spec, p, small_box)
        stats.dominant_checks += 1
        if not small.satisfied:
            stats.failures.append((inst.seed, f"{small.theorem_tag} dominant violated "
                                   f"at truncation {factor}"))
        if small.lhs > full.lhs + _TOL:
            stats.failures.append((inst.seed, "sup-box truncation raised the lhs"))

    if broken_rule(spec, "maximal", p) is not None:
        return
    top = linf_norm(sup_field(spec, box), spec.norm)
    if top <= 0.0:
        return
    reports = epsilon_sweep(spec, p, auto_epsilons(top, _EPS_COUNT), box)
    stats.maximal_checks += len(reports)
    prev_lhs = None
    for rep in reports:
        ratio = rep.lhs / rep.rhs if rep.rhs > 0 else 0.0
        stats.max_maximal_ratio = max(stats.max_maximal_ratio, ratio)
        if not rep.satisfied:
            stats.failures.append((inst.seed, f"{rep.theorem_tag} maximal violated "
                                   f"(eps {rep.epsilon:.6g}, lhs {rep.lhs:.6g} > "
                                   f"rhs {rep.rhs:.6g}, p={p})"))
        if prev_lhs is not None and rep.lhs > prev_lhs + _TOL:
            stats.failures.append((inst.seed, "level-set mass increased along the "
                                   "epsilon grid"))
        prev_lhs = rep.lhs


def broken_run_arg(budget: int, seed: int) -> tuple[str, str] | None:
    """(argument, message) of the first of budget and seed that a run
    refuses; None when both hold. A budget below 1 would cut families from
    the plan, and a negative seed seeds no generator."""
    if budget < 1:
        return "budget", f"must be a positive integer, got {budget}"
    if seed < 0:
        return "seed", f"must be a nonnegative integer, got {seed}"
    return None


def _check_run_args(budget: int, seed: int) -> None:
    broken = broken_run_arg(budget, seed)
    if broken is not None:
        raise ValueError(" ".join(broken))


def run_inequality_fuzz(budget: int = 1000, seed: int = 20240801) -> FuzzReport:
    """Runs the whole corpus; any failed bound lands in the report with the
    instance seed that reproduces it. Raises ValueError for a budget below
    1 or a negative seed."""
    _check_run_args(budget, seed)
    start = time.perf_counter()
    stats = {fam: FamilyStats() for fam in FAMILIES}
    plan: list[str] = []
    for fam in FAMILIES:
        plan.extend([fam] * max(1, round(budget * _FAMILY_SHARE[fam])))
    plan = plan[:budget] if len(plan) >= budget else plan + ["single_me"] * (budget - len(plan))
    seeds = np.random.SeedSequence(seed).generate_state(len(plan), dtype=np.uint64)
    for fam, child in zip(plan, seeds):
        inst = random_process_instance(int(child), fam)
        st = stats[fam]
        st.instances += 1
        _check_instance(inst, st)
    return FuzzReport(budget=budget, seed=seed,
                      elapsed=time.perf_counter() - start, stats=stats)
