"""Self-contained invariant suite behind the selfcheck command.

Each section runs seeded randomized checks of the algebraic laws the library
is built on and returns one line per property. The constant cross-check and
the canonical regression pin the inequality machinery against frozen
reference values, so a perturbation of either side of any bound (10 percent
or far less) trips the table even when every random instance still satisfies
the slackened inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inequalities
from .averages import BesicovitchWeights, CesaroKernel
from .generators import (
    random_cycle_system,
    random_filtration,
    random_observable,
    random_partition,
    random_weights,
)
from .measure import DECREASING, INCREASING, Filtration, Partition, partition_join, partition_meet, refines, uniform_space
from .observables import (NormSpec, VectorObservable, linf_norm, llog_norm, lp_norm,
                          lp_of_norms, mean, point_norm_field, point_norms)
from .operators import Endomorphism, cond_expect, cycle_map, identity_map, koopman, power
from .processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ProcessSpec,
    _cells,
    default_n1_grid,
    evaluate,
    mean_identity_check,
    tail_variation,
)

__all__ = ["CheckLine", "SECTIONS"]

_TOL = 1e-12


@dataclass(frozen=True)
class CheckLine:
    name: str
    ok: bool
    detail: str


def _line(name: str, ok: bool, detail: str = "") -> CheckLine:
    return CheckLine(name, bool(ok), detail)


# ---------------------------------------------------------------- sections

def partition_lattice(seed: int, budget: int) -> list[CheckLine]:
    rng = np.random.default_rng(seed)
    n_checks = max(20, budget // 2)
    order_ok = join_meet_ok = True
    for _ in range(n_checks):
        space = uniform_space(int(rng.integers(2, 24)))
        parts = [random_partition(rng, space, int(rng.integers(1, space.size + 1)))
                 for _ in range(3)]
        a, b, c = parts
        if not refines(a, a):
            order_ok = False
        if refines(a, b) and refines(b, a) and a != b:
            order_ok = False
        if refines(a, b) and refines(b, c) and not refines(a, c):
            order_ok = False
        j = partition_join(a, b)
        m = partition_meet(a, b)
        if not (refines(j, a) and refines(j, b) and refines(a, m) and refines(b, m)):
            join_meet_ok = False
    return [
        _line("partition refinement is a partial order", order_ok,
              f"{n_checks} random triples"),
        _line("join refines both arguments, both refine meet", join_meet_ok,
              f"{n_checks} random pairs"),
    ]


def norm_laws(seed: int, budget: int) -> list[CheckLine]:
    rng = np.random.default_rng(seed)
    n_checks = max(20, budget // 2)
    homo_ok = mono_ok = llog_ok = bound_ok = True
    for _ in range(n_checks):
        space = uniform_space(int(rng.integers(2, 32)))
        dim = int(rng.integers(1, 5))
        f = random_observable(rng, space, dim)
        ns = NormSpec(float(rng.choice((1.0, 2.0, math.inf))))
        c = float(rng.normal(0, 3))
        p1, p2 = sorted(rng.uniform(1.0, 4.0, 2))
        if abs(lp_norm(c * f, p1, ns) - abs(c) * lp_norm(f, p1, ns)) > 1e-12 * max(1, abs(c)):
            homo_ok = False
        if lp_norm(f, p1, ns) > lp_norm(f, p2, ns) + 1e-12:
            mono_ok = False
        small = VectorObservable(space, rng.uniform(-1, 1, (space.size, dim)) / max(1, dim))
        if point_norm_field(small, ns).values.max() <= 1.0 and llog_norm(small, 1, ns) != 0.0:
            llog_ok = False
        if llog_norm(f, int(rng.integers(0, 3)), ns) < 0.0:
            llog_ok = False
        if lp_norm(f, p1, ns) > linf_norm(f, ns) * space.total_mass ** (1 / p1) + 1e-12:
            bound_ok = False
    return [
        _line("L_p norm absolute homogeneity", homo_ok, f"{n_checks} samples"),
        _line("L_p monotone in p on probability spaces", mono_ok, f"{n_checks} samples"),
        _line("log-regularized functional vanishes on |f| <= 1", llog_ok, f"{n_checks} samples"),
        _line("L_p bounded by sup norm times mass^(1/p)", bound_ok, f"{n_checks} samples"),
    ]


def operator_algebra(seed: int, budget: int) -> list[CheckLine]:
    rng = np.random.default_rng(seed)
    n_checks = max(20, budget)
    names = ["conditional expectation idempotent", "tower property",
             "mean preservation", "L_p contraction", "pointwise domination",
             "composition operator is an L_p isometry"]
    oks = {n: True for n in names}
    for _ in range(n_checks):
        space, tau, _ = random_cycle_system(rng, n_max=48)
        dim = int(rng.integers(1, 5))
        f = random_observable(rng, space, dim)
        ns = NormSpec(float(rng.choice((2.0, math.inf))))
        fine = random_partition(rng, space, int(rng.integers(2, space.size + 1)))
        coarse_labels = rng.integers(0, max(1, fine.block_count // 2), fine.block_count)
        coarse = Partition(space, coarse_labels[fine.block_of])
        ef = cond_expect(f, fine)
        if linf_norm(cond_expect(ef, fine) - ef, ns) > _TOL:
            oks[names[0]] = False
        lhs = cond_expect(ef, coarse)
        rhs = cond_expect(f, coarse)
        if linf_norm(lhs - rhs, ns) > _TOL:
            oks[names[1]] = False
        if np.max(np.abs(mean(ef) - mean(f))) > _TOL:
            oks[names[2]] = False
        # the point norms of f, E f and f o tau once, read at every p
        mu = space.weights
        norms_f, norms_ef = point_norms(f.values, ns.q), point_norms(ef.values, ns.q)
        lp_f = {p: lp_of_norms(norms_f, mu, p) for p in (1.0, 1.5, 2.0, 3.0)}
        if any(lp_of_norms(norms_ef, mu, p) > lp_f[p] + _TOL for p in lp_f):
            oks[names[3]] = False
        dom = cond_expect(VectorObservable(space, norms_f), fine)
        if np.max(norms_ef - dom.values[:, 0]) > _TOL:
            oks[names[4]] = False
        norms_tf = point_norms(koopman(f, tau).values, ns.q)
        for p in (1.0, 2.0, 3.0):
            if abs(lp_of_norms(norms_tf, mu, p) - lp_f[p]) > 1e-12 * max(1.0, lp_f[p]):
                oks[names[5]] = False
    return [_line(n, oks[n], f"{n_checks} random instances") for n in names]


def _powers(t: Endomorphism, n: int) -> np.ndarray:
    """tau^k of every point for k < n, shape (n, N)."""
    rows = [np.arange(t.space.size)]
    for _ in range(1, n):
        rows.append(t.map[rows[-1]])
    return np.array(rows)


def _sup(values: np.ndarray) -> float:
    """linf_norm of point values, without building an observable."""
    return float(point_norms(values, 2.0).max())


def averaging_laws(seed: int, budget: int) -> list[CheckLine]:
    rng = np.random.default_rng(seed)
    n_checks = max(10, budget // 2)
    names = ["averaging is linear", "average equals limit at period multiples",
             "Cesaro error within 2|f|_inf L/n", "orbit limit is a projection",
             "multiparameter average matches the direct box sum",
             "weighted average dominated by |weights| scalar average"]
    oks = {n: True for n in names}
    for _ in range(n_checks):
        space, tau, order = random_cycle_system(rng, n_max=24)
        f = random_observable(rng, space, int(rng.integers(1, 4)))
        g = random_observable(rng, space, f.dim)
        a, b = rng.normal(0, 2, 2)
        n = int(rng.integers(1, 3 * order + 1))
        # one kernel over f, g and a f + b g, read at every length at once
        kernel = CesaroKernel(np.stack([f.values, g.values, (a * f + b * g).values]), tau)
        multiples = (order, 2 * order, 3 * order)
        uneven = (order, 2 * order + 1, 3 * order - 1)
        lengths = np.array((n,) + multiples + uneven)
        avg_f, avg_g, avg_ab = kernel.average(lengths).swapaxes(0, 1)
        if _sup(avg_ab[0] - (avg_f[0] * float(a) + avg_g[0] * float(b))) > 1e-10:
            oks[names[0]] = False
        star = kernel.average(None)[0]
        if any(_sup(avg - star) > _TOL for avg in avg_f[1:4]):
            oks[names[1]] = False
        for avg, n2 in zip(avg_f[4:], uneven):
            if _sup(avg - star) > 2 * _sup(f.values) * order / n2 + _TOL:
                oks[names[2]] = False
        again = CesaroKernel(star, tau).average(None)
        if _sup(again - star) > _TOL or _sup(star[tau.map] - star) > _TOL:
            oks[names[3]] = False
        # small commuting multiparameter instance against the direct sum
        maps = (tau, power(tau, 2))
        seqs = (random_weights(rng), random_weights(rng))
        sing = Filtration(space, DECREASING, (Partition.singletons(space),))
        spec = ProcessSpec(MARTINGALE_ERGODIC, f, maps, (sing,), seqs)
        n_vec = (int(rng.integers(1, 2 * order + 1)), int(rng.integers(1, order + 1)))
        got = evaluate(spec, n_vec, 0)
        alph = [s.values(n) for s, n in zip(seqs, n_vec)]
        # T_1^{k1} applied after T_2^{k2}: the term at x is f(tau_2^{k2}(tau_1^{k1}(x))),
        # every term in one gather through the powers of tau_2 and of tau_1
        terms = f.values[_powers(maps[1], n_vec[1])[:, _powers(maps[0], n_vec[0])]]
        direct = np.tensordot(np.outer(alph[1], alph[0]), terms, axes=2) / (n_vec[0] * n_vec[1])
        if np.max(np.abs(got.values - direct)) > 1e-10:
            oks[names[4]] = False
        w = seqs[0]
        n_w = int(rng.integers(1, 2 * order + 1))
        wa = point_norms(CesaroKernel(f.values, tau, w).average(n_w), 2.0)
        scal = point_norms(f.values, 2.0)
        acc = np.abs(w.values(n_w)) @ scal[_powers(tau, n_w)]
        if np.max(wa - acc / n_w) > _TOL:
            oks[names[5]] = False
    return [_line(n, oks[n], f"{n_checks} random instances") for n in names]


def process_convergence(seed: int, budget: int) -> list[CheckLine]:
    rng = np.random.default_rng(seed)
    n_checks = max(10, budget // 2)
    names = ["exact convergence at (order, last stage)",
             "limit norm bound and mean identity",
             "identity map degenerates to the pure martingale",
             "singleton filtration degenerates to the pure average",
             "errors vanish along monotone index paths",
             "both filtration directions converge"]
    oks = {n: True for n in names}
    for _ in range(n_checks):
        space, tau, order = random_cycle_system(rng, n_max=32)
        f = random_observable(rng, space, int(rng.integers(1, 4)))
        for direction in (DECREASING, INCREASING):
            filt = random_filtration(rng, space, 3, direction)
            for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
                spec = ProcessSpec.single(kind, f, tau, filt)
                # the exact cell and the limit in one pass, which keeps the limit
                exact, target = _grid(spec, (order, None), [len(filt.stages) - 1])[:, 0]
                gap = _sup(exact - target)
                key = names[0] if direction == DECREASING else names[5]
                if gap > 1e-10:
                    oks[key] = False
                if not mean_identity_check(spec).passed:
                    oks[names[1]] = False
        filt = random_filtration(rng, space, 3, DECREASING)
        last = len(filt.stages) - 1
        # the identity map's n x stage grid and the singleton filtration's n
        # column, each in one batched read
        spec_id = ProcessSpec.single(MARTINGALE_ERGODIC, f, identity_map(space), filt)
        grid_id = _grid(spec_id, (1, 2, 5), range(last + 1))
        for s, part in enumerate(filt.stages):
            want = cond_expect(f, part).values
            if any(_sup(values - want) > _TOL for values in grid_id[:, s]):
                oks[names[2]] = False
        sing = Filtration(space, DECREASING, (Partition.singletons(space),))
        spec_sing = ProcessSpec.single(ERGODIC_MARTINGALE, f, tau, sing)
        lengths = (1, 2, order, 2 * order)
        got = _grid(spec_sing, lengths, [0])[:, 0]
        plain = CesaroKernel(f.values, tau).average(np.array(lengths))
        if any(_sup(a - b) > _TOL for a, b in zip(got, plain)):
            oks[names[3]] = False
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, f, tau, filt)
        grid = default_n1_grid(order)
        # along the n grid at the last stage, where every monotone index path
        # ends, the process is exact at each multiple of the order; one read,
        # the limit's included
        *path, target = _grid(spec, grid + (None,), [last])[:, 0]
        if any(_sup(values - target) > 1e-9
               for n, values in zip(grid, path) if n % order == 0):
            oks[names[4]] = False
    return [_line(n, oks[n], f"{n_checks} random instances") for n in names]


def _grid(spec: ProcessSpec, n1s, n2s) -> np.ndarray:
    """The process at every (n1, n2) of the grid, shape (len(n1s), len(n2s),
    N, dim), from one batched evaluation; an n1 of None reads the limit."""
    n_vecs = [None if n1 is None else (n1,) for n1 in n1s]
    return np.concatenate(list(_cells(spec, n_vecs, [(n2,) for n2 in n2s])))


def weighted_stabilization(seed: int, budget: int) -> list[CheckLine]:
    rng = np.random.default_rng(seed)
    n_checks = max(10, budget // 2)
    ok = True
    worst = 0.0
    for _ in range(n_checks):
        space, tau, order = random_cycle_system(rng, n_max=24)
        f = random_observable(rng, space, int(rng.integers(1, 4)))
        filt = random_filtration(rng, space, 3, DECREASING)
        w = random_weights(rng)
        kind = MARTINGALE_ERGODIC if rng.random() < 0.5 else ERGODIC_MARTINGALE
        spec = ProcessSpec.single(kind, f, tau, filt, weights=w)
        tv = tail_variation(spec, p=2.0, n_periods=8)
        worst = max(worst, tv)
        if tv > 1e-9:
            ok = False
    # the passing figure is rounding residue, which moves with summation order
    worst_text = "below 1e-9" if ok else f"{worst:.2e}"
    return [_line("weighted traces stabilize over the final period", ok,
                  f"{n_checks} instances, worst tail variation {worst_text}")]


# frozen catalog values; an independent copy of the constant formulas so a
# mutated implementation cannot agree with this table
_CONSTANT_TABLE = [
    ("dominant", dict(p=1.25), 25.0),
    ("dominant", dict(p=2.0), 4.0),
    ("dominant", dict(p=4.0), 16.0 / 9.0),
    ("dominant", dict(p=2.0, weighted=True, alpha=0.5), 2.0),
    ("dominant", dict(p=2.0, multi=True, alpha=0.5, d_maps=2), 16.0),
    ("dominant", dict(p=3.0, multi=True, alpha=1.0, d_maps=1), 1.5**5),
    ("maximal", dict(p=1.25), 5.0**1.25),
    ("maximal", dict(p=2.0), 4.0),
    ("maximal", dict(p=3.0), 3.375),
    ("maximal", dict(p=2.0, weighted=True, alpha=0.5), 2.0),
    ("maximal", dict(p=2.0, multi=True, alpha=0.5, d_maps=2), 4.0),
    ("maximal", dict(p=4.0, multi=True, alpha=0.5, d_maps=1), (0.5**4) * (4.0 / 3.0) ** 4),
]


def constants_crosscheck(seed: int = 0, budget: int = 0) -> list[CheckLine]:
    ok = True
    bad = ""
    for flavor, kwargs, expected in _CONSTANT_TABLE:
        fn = inequalities.dominant_constant if flavor == "dominant" else inequalities.maximal_constant
        got = fn(**kwargs)
        if not math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0):
            ok = False
            bad = f"{flavor} {kwargs}: got {got!r}, expected {expected!r}"
            break
    return [_line("inequality constants match the frozen catalog", ok,
                  bad or f"{len(_CONSTANT_TABLE)} catalog entries")]


def _canonical_specs():
    space = uniform_space(4)
    f = VectorObservable(space, [1.0, 3.0, 7.0, -5.0])
    tau = cycle_map(space)
    pairs = Partition.from_blocks(space, [[0, 1], [2, 3]])
    cross = Partition.from_blocks(space, [[0, 2], [1, 3]])
    filt = Filtration(space, DECREASING,
                      (Partition.singletons(space), pairs, Partition.whole(space)))
    filt_coarse = Filtration(space, DECREASING, (pairs, Partition.whole(space)))
    me = ProcessSpec.single(MARTINGALE_ERGODIC, f, tau, filt)
    em = ProcessSpec.single(ERGODIC_MARTINGALE, f, tau, filt_coarse)
    w = BesicovitchWeights.single_cosine(0.5, 1, 2)
    wme = ProcessSpec.single(MARTINGALE_ERGODIC, f, tau, filt, weights=w)
    filt2 = Filtration(space, DECREASING, (cross, Partition.whole(space)))
    multi = ProcessSpec(MARTINGALE_ERGODIC, f, (tau, power(tau, 2)), (filt, filt2, filt2),
                        (w, BesicovitchWeights.constant(0.25)))
    return [("single-me", me, 2.0, 4.0), ("single-em", em, 2.0, 1.75),
            ("weighted-me", wme, 2.0, 1.75), ("multi-me", multi, 2.0, 0.4)]


# (lhs, rhs) per canonical instance, dominant then maximal; values frozen from
# the build that introduced them (rel tol 1e-9 on comparison)
_CANONICAL_EXPECTED = {
    "single-me": ((5.301991240195622, 18.33030277982336),
                  (0.75, 5.25)),
    "single-em": ((1.8047006523089764, 18.33030277982336),
                  (0.5, 27.428571428571427)),
    "weighted-me": ((2.361805453461398, 9.16515138991168),
                    (0.5, 13.714285714285714)),
    "multi-me": ((0.41692700200394794, 73.32121111929344),
                 (0.5, 524.9999999999999)),
}


def canonical_regression(seed: int = 0, budget: int = 0) -> list[CheckLine]:
    """Fixed tiny instances with frozen lhs/rhs for one dominant and one
    maximal check each; any drift in either side of any bound shows up here."""
    out = []
    for name, spec, p, eps in _canonical_specs():
        box = inequalities.default_box(spec, n_factor=2)
        dom = inequalities.dominant_check(spec, p, box)
        mx = inequalities.epsilon_sweep(spec, p, [eps], box)[0]
        exp_dom, exp_max = _CANONICAL_EXPECTED[name]
        ok = (math.isclose(dom.lhs, exp_dom[0], rel_tol=1e-9, abs_tol=1e-12)
              and math.isclose(dom.rhs, exp_dom[1], rel_tol=1e-9, abs_tol=1e-12)
              and math.isclose(mx.lhs, exp_max[0], rel_tol=1e-9, abs_tol=1e-12)
              and math.isclose(mx.rhs, exp_max[1], rel_tol=1e-9, abs_tol=1e-12))
        detail = (f"dominant {dom.lhs:.12g}/{dom.rhs:.12g}, "
                  f"maximal {mx.lhs:.12g}/{mx.rhs:.12g}")
        if not ok:
            detail += (f" (expected {exp_dom[0]:.12g}/{exp_dom[1]:.12g}, "
                       f"{exp_max[0]:.12g}/{exp_max[1]:.12g})")
        out.append(_line(f"canonical regression {name}", ok, detail))
    return out


SECTIONS = [
    ("partition lattice", partition_lattice),
    ("norms", norm_laws),
    ("operator algebra", operator_algebra),
    ("averaging laws", averaging_laws),
    ("process convergence", process_convergence),
    ("weighted stabilization", weighted_stabilization),
    ("constant catalog", constants_crosscheck),
    ("canonical regression", canonical_regression),
]
