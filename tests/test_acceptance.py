"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are pinned here and nowhere else.
"""
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ergmart.inequalities as ineq
from ergmart.averages import BesicovitchWeights
from ergmart.fuzz import run_inequality_fuzz
from ergmart.generators import (
    random_cycle_system,
    random_filtration,
    random_observable,
)
from ergmart.measure import (
    DECREASING,
    INCREASING,
    Filtration,
    MeasureSpace,
    Partition,
    uniform_space,
)
from ergmart.observables import (
    NormSpec,
    VectorObservable,
    linf_norm,
    lp_norm,
    mean,
    point_norm_field,
)
from ergmart.operators import cond_expect, identity_map
from ergmart.averages import CesaroKernel
from ergmart.processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ProcessSpec,
    convergence_trace,
    evaluate,
    mean_identity_check,
    tail_variation,
)
from ergmart.selfcheck import run_selfcheck
from oracles import oracle_composite

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.json"


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------- criterion 1

def _coarsening_pair(rng, space):
    n = space.size
    fine = Partition(space, rng.integers(0, max(2, n // 3), n))
    relabel = rng.integers(0, max(1, fine.block_count // 2 + 1), fine.block_count)
    coarse = Partition(space, relabel[fine.block_of])
    return fine, coarse


def test_criterion_1_conditional_expectation_algebra():
    rng = np.random.default_rng(101)
    tol = 1e-12
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 1025))
        space = MeasureSpace(rng.uniform(0.2, 2.0, n) / n)
        d = int(rng.integers(1, 9))
        f = VectorObservable(space, rng.normal(0.0, 1.0, (n, d)))
        ns = NormSpec(2.0 if rng.random() < 0.5 else math.inf)
        fine, coarse = _coarsening_pair(rng, space)
        ef = cond_expect(f, fine)
        worst = max(worst, linf_norm(cond_expect(ef, fine) - ef, ns))
        worst = max(worst, linf_norm(cond_expect(ef, coarse) - cond_expect(f, coarse), ns))
        worst = max(worst, float(np.max(np.abs(mean(ef) - mean(f)))))
        for p in (1.0, 1.5, 2.0, 3.0):
            gap = lp_norm(ef, p, ns) - lp_norm(f, p, ns)
            worst = max(worst, gap)
        dom = cond_expect(point_norm_field(f, ns), fine)
        worst = max(worst, float(np.max(point_norm_field(ef, ns).values - dom.values)))
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 10.0
    _report(1, ok, f"conditional-expectation algebra: 500 instances, worst gap "
                   f"{worst:.2e} (tol {tol:g}), {elapsed:.1f}s (limit 10s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_process_convergence_both_kinds():
    rng = np.random.default_rng(202)
    worst_err = worst_norm = worst_mean = 0.0
    for _ in range(100):
        space, tau, order = random_cycle_system(rng, n_max=64)
        f = random_observable(rng, space, int(rng.integers(1, 5)))
        for direction in (DECREASING, INCREASING):
            filt = random_filtration(rng, space, int(rng.integers(2, 5)), direction)
            for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
                spec = ProcessSpec.single(kind, f, tau, filt)
                trace = convergence_trace(spec, (order,), (len(filt.stages) - 1,))
                row = trace.rows[-1]
                worst_err = max(worst_err, row.lp_error, row.sup_error)
                rep = mean_identity_check(spec)
                worst_mean = max(worst_mean, rep.max_mean_gap)
                worst_norm = max(worst_norm,
                                 max(lhs - rhs for _, lhs, rhs, _ in rep.norm_rows))
    ok = worst_err <= 1e-10 and worst_mean <= 1e-12 and worst_norm <= 1e-12
    _report(2, ok, "double-index convergence: 100 instances x 2 kinds x 2 "
                   f"directions, worst error at (order, last) {worst_err:.2e} "
                   f"(tol 1e-10), mean gap {worst_mean:.2e}, norm slack "
                   f"{worst_norm:.2e} (tol 1e-12)")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_degenerate_cases():
    rng = np.random.default_rng(303)
    worst_mart = 0.0
    for _ in range(50):
        space, _, _ = random_cycle_system(rng, n_max=48)
        f = random_observable(rng, space, int(rng.integers(1, 4)))
        filt = random_filtration(rng, space, 3, DECREASING)
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, f, identity_map(space), filt)
        for s in range(len(filt.stages)):
            pure = cond_expect(f, filt.stages[s])
            for n1 in (1, 3, 8):
                worst_mart = max(worst_mart, linf_norm(evaluate(spec, n1, s) - pure))
    worst_erg = 0.0
    for _ in range(50):
        space, tau, order = random_cycle_system(rng, n_max=48)
        f = random_observable(rng, space, int(rng.integers(1, 4)))
        sing = Filtration(space, DECREASING, (Partition.singletons(space),))
        spec = ProcessSpec.single(ERGODIC_MARTINGALE, f, tau, sing)
        for n1 in (1, 2, order, 2 * order):
            pure = VectorObservable(space, CesaroKernel(f.values, tau).average(n1))
            worst_erg = max(worst_erg, linf_norm(evaluate(spec, n1, 0) - pure))
    ok = worst_mart <= 1e-12 and worst_erg <= 1e-12
    _report(3, ok, f"degenerate cases: identity-map gap {worst_mart:.2e}, "
                   f"singleton-filtration gap {worst_erg:.2e} (tol 1e-12, "
                   "50 instances each)")


# ----------------------------------------------------- criteria 4 and 5

@pytest.fixture(scope="module")
def fuzz_report():
    start = time.perf_counter()
    rep = run_inequality_fuzz(budget=1000, seed=20240801)
    rep.wall = time.perf_counter() - start
    return rep


def test_criterion_4_dominant_inequalities(fuzz_report):
    rep = fuzz_report
    dominant_failures = [l for l in rep.failure_lines()
                         if "dominant" in l or "truncation" in l]
    n_checks = sum(st.dominant_checks for st in rep.stats.values())
    worst = max(st.max_dominant_ratio for st in rep.stats.values())
    ok = not dominant_failures and rep.wall < 60.0 and rep.budget >= 1000
    _report(4, ok, f"dominant bounds: {rep.budget} instances, {n_checks} checks "
                   f"incl. truncations, worst lhs/rhs {worst:.3f}, "
                   f"{rep.wall:.1f}s (limit 60s)"
                   + (f"; failures: {dominant_failures[:3]}" if dominant_failures else ""))


def test_criterion_5_maximal_inequalities(fuzz_report):
    rep = fuzz_report
    maximal_failures = [l for l in rep.failure_lines()
                        if "maximal" in l or "level-set" in l]
    n_checks = sum(st.maximal_checks for st in rep.stats.values())
    worst = max(st.max_maximal_ratio for st in rep.stats.values())
    ok = not maximal_failures and n_checks >= 8 * 500
    _report(5, ok, f"maximal bounds: {n_checks} level-set checks over 8-point "
                   f"epsilon grids, monotone lhs, worst lhs/rhs {worst:.3f}"
                   + (f"; failures: {maximal_failures[:3]}" if maximal_failures else ""))


# --------------------------------------------------------------- criterion 6

def test_criterion_6_composite_conditional_expectation():
    from ergmart.averages import composite_cond_expect

    space = uniform_space(4)
    f = VectorObservable(space, [1, 3, 5, 7])
    f1 = Filtration(space, DECREASING,
                    (Partition.from_blocks(space, [[0, 1], [2, 3]]),))
    f2 = Filtration(space, DECREASING,
                    (Partition.from_blocks(space, [[0, 2], [1, 3]]),))
    worked = composite_cond_expect(f, [f1, f2], [0, 0])
    worked_ok = bool(np.array_equal(worked.values[:, 0], [4.0, 4.0, 4.0, 4.0]))

    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 40))
        space = MeasureSpace(rng.uniform(0.1, 1.0, n))
        f = VectorObservable(space, rng.normal(0, 1.5, (n, int(rng.integers(1, 4)))))
        m = int(rng.choice((2, 3)))
        filts, labels = [], []
        for _ in range(m):
            part = Partition(space, rng.integers(0, max(2, n // 2), n))
            filts.append(Filtration(space, DECREASING, (part,)))
            labels.append(part.block_of)
        got = composite_cond_expect(f, filts, [0] * m)
        want = np.asarray(oracle_composite(space.weights, labels, f.values.tolist()))
        worst = max(worst, float(np.max(np.abs(got.values - want))))
    ok = worked_ok and worst <= 1e-12
    _report(6, ok, f"composite conditional expectation: worked example exact "
                   f"{worked_ok}, 100 random m=2,3 compositions vs sequential "
                   f"oracle, worst gap {worst:.2e} (tol 1e-12)")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_weighted_stabilization():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        space, tau, order = random_cycle_system(rng, n_max=24)
        f = random_observable(rng, space, int(rng.integers(1, 4)))
        filt = random_filtration(rng, space, 2, DECREASING)
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            den = int(rng.integers(2, 6))
            num = int(rng.integers(1, den))
            terms.append((float(rng.uniform(0.2, 0.8)), num / den,
                          float(rng.choice((0.0, 0.5)) * math.pi)))
        w = BesicovitchWeights(tuple(terms))
        kind = MARTINGALE_ERGODIC if rng.random() < 0.5 else ERGODIC_MARTINGALE
        spec = ProcessSpec.single(kind, f, tau, filt, weights=w)
        worst = max(worst, tail_variation(spec, p=2.0, n_periods=8))
    ok = worst <= 1e-9
    _report(7, ok, f"weighted-average stabilization: 100 instances, worst tail "
                   f"variation over the final period {worst:.2e} (tol 1e-9)")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_cli_determinism_and_mutation_sensitivity(tmp_path, monkeypatch):
    outs = []
    for sub in ("r1", "r2"):
        res = subprocess.run(
            [sys.executable, "-m", "ergmart.cli", "run", "--config", str(DEMO),
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append({name: (tmp_path / sub / name).read_bytes()
                     for name in ("trace.csv", "reports.json", "manifest.json")})
    identical = outs[0] == outs[1]

    detections = []
    orig_dom, orig_max, orig_sup = (ineq.dominant_constant, ineq.maximal_constant,
                                    ineq.sup_field)
    mutations = [
        ("dominant constant -10%",
         lambda: monkeypatch.setattr(ineq, "dominant_constant",
                                     lambda *a, **k: 0.9 * orig_dom(*a, **k))),
        ("maximal constant -10%",
         lambda: monkeypatch.setattr(ineq, "maximal_constant",
                                     lambda *a, **k: 0.9 * orig_max(*a, **k))),
        ("sup field +10%",
         lambda: monkeypatch.setattr(ineq, "sup_field",
                                     lambda spec, box=None: 1.1 * orig_sup(spec, box))),
    ]
    for name, apply_mutation in mutations:
        apply_mutation()
        caught = not run_selfcheck(budget=20).ok
        monkeypatch.undo()
        detections.append((name, caught))
    baseline_ok = run_selfcheck(budget=20).ok
    all_caught = all(c for _, c in detections)
    ok = identical and all_caught and baseline_ok
    _report(8, ok, f"CLI byte-determinism {identical}; 10% mutations detected: "
                   + ", ".join(f"{n}={c}" for n, c in detections)
                   + f"; clean selfcheck passes {baseline_ok}")
