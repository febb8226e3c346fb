import math
from fractions import Fraction

import numpy as np
import pytest

import ergmart.averages as averages_module
import ergmart.invariants as invariants
import ergmart.processes as processes_module
from ergmart.averages import (
    BesicovitchWeights,
    CesaroKernel,
    composite_cond_expect,
)
from ergmart.generators import (
    FAMILIES,
    random_cycle_system,
    random_filtration,
    random_observable,
    random_permutation,
    random_process_instance,
    random_weights,
)
from ergmart.inequalities import sup_field
from ergmart.measure import DECREASING, INCREASING, Filtration, Partition, uniform_space
from ergmart.observables import VectorObservable, linf_norm, lp_norm
from ergmart.operators import Endomorphism, cond_expect, cycle_map, identity_map, power
from ergmart.processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ProcessSpec,
    convergence_trace,
    default_n1_grid,
    evaluate,
    mean_identity_check,
    tail_variation,
)
from oracles import oracle_composite, oracle_ergodic_average

SP4 = uniform_space(4)
F1357 = VectorObservable(SP4, [1, 3, 5, 7])
CYC = cycle_map(SP4)
PAIRS = Partition.from_blocks(SP4, [[0, 1], [2, 3]])
FILT3 = Filtration(SP4, DECREASING,
                   (Partition.singletons(SP4), PAIRS, Partition.whole(SP4)))


def me_spec(f=F1357, t=CYC, filt=FILT3, weights=None):
    return ProcessSpec.single(MARTINGALE_ERGODIC, f, t, filt, weights=weights)


def em_spec(f=F1357, t=CYC, filt=FILT3, weights=None):
    return ProcessSpec.single(ERGODIC_MARTINGALE, f, t, filt, weights=weights)


class TestEvaluate:
    def test_identity_map_is_pure_martingale(self):
        spec = me_spec(t=identity_map(SP4))
        for s in range(3):
            for n1 in (1, 2, 7):
                got = evaluate(spec, n1, s)
                want = cond_expect(F1357, FILT3.stages[s])
                assert linf_norm(got - want) <= 1e-12

    def test_singleton_stage_is_pure_average(self):
        sing = Filtration(SP4, DECREASING, (Partition.singletons(SP4),))
        spec = em_spec(filt=sing)
        for n1 in (1, 2, 3, 4, 8):
            got = evaluate(spec, n1, 0)
            want = oracle_ergodic_average([[1], [3], [5], [7]], [1, 2, 3, 0], n1)
            assert got.values == pytest.approx(np.asarray(want), abs=1e-12)

    def test_worked_composition(self):
        got = evaluate(me_spec(), 2, 1)
        assert got.values[:, 0] == pytest.approx([3, 3, 5, 5])
        # oracle: average first, then block-average
        avg = oracle_ergodic_average([[1], [3], [5], [7]], [1, 2, 3, 0], 2)
        want = oracle_composite(SP4.weights, [PAIRS.block_of], avg)
        assert got.values == pytest.approx(np.asarray(want), abs=1e-14)

    def test_stage_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            evaluate(me_spec(), 1, 3)

    def test_order_matters_at_finite_indices(self):
        got_me = evaluate(me_spec(), 2, 1).values
        got_em = evaluate(em_spec(), 2, 1).values
        assert not np.allclose(got_me, got_em)


class TestLimitTarget:
    def test_cycle_collapses_to_global_mean(self):
        assert me_spec().limit.values[:, 0] == pytest.approx([4, 4, 4, 4])
        assert em_spec().limit.values[:, 0] == pytest.approx([4, 4, 4, 4])

    def test_identity_with_singleton_limit_returns_f(self):
        sing = Filtration(SP4, INCREASING, (Partition.whole(SP4),
                                            Partition.singletons(SP4)))
        spec = me_spec(t=identity_map(SP4), filt=sing)
        assert spec.limit.values == pytest.approx(F1357.values)

    def test_transpositions_conditioned_average(self):
        t = Endomorphism(SP4, [1, 0, 3, 2])
        filt = Filtration(SP4, DECREASING, (Partition.singletons(SP4), PAIRS))
        spec = me_spec(t=t, filt=filt)
        assert spec.limit.values[:, 0] == pytest.approx([2, 2, 6, 6])

    def test_kind_changes_composition_order(self):
        t = Endomorphism(SP4, [1, 0, 2, 3])
        cross = Partition.from_blocks(SP4, [[0, 2], [1, 3]])
        filt = Filtration(SP4, DECREASING, (Partition.singletons(SP4), cross))
        me_target = me_spec(t=t, filt=filt).limit
        em_target = em_spec(t=t, filt=filt).limit
        assert me_target.values[:, 0] == pytest.approx([3.5, 4.5, 3.5, 4.5])
        assert em_target.values[:, 0] == pytest.approx([4, 4, 3, 5])

    def test_limits_differ_exactly_where_averaging_and_conditioning_do_not_commute(self):
        t = Endomorphism(SP4, [1, 0, 3, 2])
        for stage, me_limit, em_limit in (
                ([0, 1, 1, 2], [2, 4, 4, 6], [2.5, 2.5, 5.5, 5.5]),  # cuts both cycles
                ([0, 0, 1, 1], [2, 2, 6, 6], [2, 2, 6, 6])):  # whole cycles
            filt = Filtration(SP4, DECREASING, (Partition(SP4, stage),))
            assert np.array_equal(me_spec(t=t, filt=filt).limit.values[:, 0], me_limit)
            assert np.array_equal(em_spec(t=t, filt=filt).limit.values[:, 0], em_limit)

    def test_weighted_closed_form_equals_stabilized_reference(self):
        rng = np.random.default_rng(79)
        for k in range(100):
            _, cycles, _ = random_cycle_system(rng, n_max=16)
            # equal masses, so that a random permutation preserves them too
            space = uniform_space(cycles.space.size)
            tau = Endomorphism(space, cycles.map)
            f = random_observable(rng, space, int(rng.integers(1, 4)))
            maps = (tau,) if k % 2 else (tau, random_permutation(rng, space))
            filts = tuple(random_filtration(rng, space, 2, DECREASING)
                          for _ in range(int(rng.integers(1, 3))))
            weights = tuple(random_weights(rng) for _ in maps)
            for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
                spec = ProcessSpec(kind, f, maps, filts, weights)
                ref = evaluate(spec, spec.periods(), spec.last_stages)
                gap = linf_norm(spec.limit - ref)
                assert gap <= 1e-12

    def test_constant_weights_scale_target(self):
        w = BesicovitchWeights.constant(0.5)
        assert me_spec(weights=w).limit.values[:, 0] == pytest.approx(
            [2, 2, 2, 2])


class TestConvergenceTrace:
    def test_exact_at_period_and_last_stage(self):
        trace = convergence_trace(me_spec(), (1, 2, 4, 8), (0, 1, 2), p=2.0)
        final = trace.rows[-1]
        assert final.n1 == 8 and final.n2 == 2
        assert final.lp_error <= 1e-12 and final.sup_error <= 1e-12
        by_idx = {(r.n1, r.n2): r for r in trace.rows}
        assert by_idx[(4, 2)].sup_error <= 1e-12
        assert by_idx[(8, 2)].sup_error <= 1e-12  # doubling keeps exactness

    def test_identity_errors_depend_only_on_stage(self):
        spec = me_spec(t=identity_map(SP4))
        trace = convergence_trace(spec, (1, 2, 4), (0, 1, 2), p=2.0)
        for n2 in (0, 1, 2):
            errs = {r.lp_error for r in trace.rows if r.n2 == n2}
            assert max(errs) - min(errs) <= 1e-12
        assert all(r.lp_error <= 1e-12 for r in trace.rows if r.n2 == 2)

    def test_grids_must_ascend(self):
        with pytest.raises(ValueError, match="increasing"):
            convergence_trace(me_spec(), (4, 2), (0, 1), p=2.0)

    def test_errors_are_taken_against_the_limit(self):
        spec = me_spec()
        trace = convergence_trace(spec, (3,), (1,), p=1.0)
        errors = evaluate(spec, 3, 1) - spec.limit
        assert trace.rows[0].lp_error == lp_norm(errors, 1.0, spec.norm)
        assert trace.rows[0].sup_error == linf_norm(errors, spec.norm)


class TestMeanIdentity:
    def test_cycle_instance(self):
        rep = mean_identity_check(me_spec())
        assert rep.passed
        assert rep.mean_input[0] == pytest.approx(4.0)
        assert rep.mean_target[0] == pytest.approx(4.0)

    def test_constant_observable(self):
        c = VectorObservable(SP4, [2.5, 2.5, 2.5, 2.5])
        rep = mean_identity_check(me_spec(f=c))
        assert rep.passed and rep.max_mean_gap <= 1e-15

    def test_shift_covariance(self):
        g = VectorObservable(SP4, [2, 4, 6, 8])
        r1 = mean_identity_check(me_spec())
        r2 = mean_identity_check(me_spec(f=g))
        assert r2.mean_input[0] - r1.mean_input[0] == pytest.approx(1.0)
        assert r2.mean_target[0] - r1.mean_target[0] == pytest.approx(1.0)


class TestRandomizedConvergence:
    def test_both_kinds_both_directions(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            space, tau, order = random_cycle_system(rng, n_max=24)
            f = random_observable(rng, space, int(rng.integers(1, 4)))
            for direction in (DECREASING, INCREASING):
                filt = random_filtration(rng, space, 3, direction)
                for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
                    spec = ProcessSpec.single(kind, f, tau, filt)
                    target = spec.limit
                    gap = linf_norm(evaluate(spec, order, len(filt.stages) - 1) - target)
                    assert gap <= 1e-10
                    assert mean_identity_check(spec).passed

    def test_monotone_paths_stabilize(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            space, tau, order = random_cycle_system(rng, n_max=16)
            f = random_observable(rng, space, 2)
            filt = random_filtration(rng, space, 3, DECREASING)
            spec = ProcessSpec.single(MARTINGALE_ERGODIC, f, tau, filt)
            target = spec.limit
            grid = default_n1_grid(order)
            n_stages = len(filt.stages)
            for _ in range(5):
                i = j = 0
                while i < len(grid) - 1 or j < n_stages - 1:
                    if i < len(grid) - 1 and (j == n_stages - 1 or rng.random() < 0.5):
                        i += 1
                    else:
                        j += 1
                gap = linf_norm(evaluate(spec, grid[i], j) - target)
                assert gap <= 1e-9

    def test_shared_limit_when_final_stage_trivial(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            space, tau, _ = random_cycle_system(rng, n_max=16)
            f = random_observable(rng, space, 2)
            fine = Partition(space, rng.integers(0, 4, space.size))
            filt = Filtration(space, DECREASING, (fine, Partition.whole(space)))
            t_me = ProcessSpec.single(MARTINGALE_ERGODIC, f, tau, filt).limit
            t_em = ProcessSpec.single(ERGODIC_MARTINGALE, f, tau, filt).limit
            assert linf_norm(t_me - t_em) <= 1e-12


class TestWeightedStabilization:
    def test_periods(self):
        w = BesicovitchWeights.single_cosine(0.8, 1, 3)
        spec = me_spec(weights=w)
        assert spec.periods() == (12,)  # lcm(4, 3)

    def test_exact_periodicity_of_trace(self):
        w = BesicovitchWeights.single_cosine(0.8, 1, 3)
        spec = me_spec(weights=w)
        (period,) = spec.periods()
        ref = evaluate(spec, period, spec.last_stages)
        for k in (2, 3, 5):
            assert linf_norm(evaluate(spec, k * period, 2) - ref) <= 1e-12

    def test_tail_variation_small(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            space, tau, order = random_cycle_system(rng, n_max=12)
            f = random_observable(rng, space, 2)
            filt = random_filtration(rng, space, 2, DECREASING)
            w = BesicovitchWeights.single_cosine(
                float(rng.uniform(0.2, 1.0)), 1, int(rng.integers(2, 5)))
            kind = MARTINGALE_ERGODIC if rng.random() < 0.5 else ERGODIC_MARTINGALE
            spec = ProcessSpec.single(kind, f, tau, filt, weights=w)
            assert tail_variation(spec, p=2.0, n_periods=8) <= 1e-9

    def test_irrational_frequency_rejected(self):
        w = BesicovitchWeights(((1.0, 1 / math.pi, 0.0),))
        spec = me_spec(weights=w)
        with pytest.raises(ValueError, match="period"):
            tail_variation(spec)


class TestWeightNormalization:
    def test_none_entry_becomes_constant_one(self):
        w = BesicovitchWeights.single_cosine(0.5, 1, 2)
        spec = ProcessSpec(MARTINGALE_ERGODIC, F1357, (CYC, power(CYC, 2)), (FILT3,),
                           (w, None))
        assert spec.is_weighted and spec.weights[0] is w
        assert spec.weights[1].terms == BesicovitchWeights.constant(1.0).terms

    def test_all_none_is_unweighted(self):
        spec = ProcessSpec(MARTINGALE_ERGODIC, F1357, (CYC, power(CYC, 2)), (FILT3,),
                           (None, None))
        assert spec.weights is None and not spec.is_weighted
        assert not ProcessSpec.single(MARTINGALE_ERGODIC, F1357, CYC, FILT3).is_weighted

    def test_one_entry_per_map(self):
        with pytest.raises(ValueError, match="per map"):
            ProcessSpec(MARTINGALE_ERGODIC, F1357, (CYC,), (FILT3,), (None, None))


class TestMultiparameterProcess:
    def build(self, kind):
        cross = Partition.from_blocks(SP4, [[0, 2], [1, 3]])
        f1 = Filtration(SP4, DECREASING, (PAIRS, Partition.whole(SP4)))
        f2 = Filtration(SP4, DECREASING, (cross, Partition.whole(SP4)))
        return ProcessSpec(kind, F1357, (CYC, power(CYC, 2)), (f1, f2), (None, None))

    def test_exact_limit_both_kinds(self):
        for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
            spec = self.build(kind)
            target = spec.limit
            got = evaluate(spec, (4, 2), (1, 1))
            assert linf_norm(got - target) <= 1e-12

    def test_broadcast_indices(self):
        spec = self.build(MARTINGALE_ERGODIC)
        assert evaluate(spec, 4, 1).values == pytest.approx(
            evaluate(spec, (4, 4), (1, 1)).values)


def test_default_grid_contains_period_multiples():
    grid = default_n1_grid(6)
    assert grid[0] == 1
    assert {6, 12, 18, 24}.issubset(set(grid))
    assert grid[-1] == 24


def _cell_by_one_map_kernels(spec, n_vec, s_vec):
    """One process value composed from one-map Cesaro kernels, each on its
    own (N, dim) input: the computation the grid path shares."""
    weights = spec.weights or (None,) * spec.d_maps

    def averages(g):
        for j in reversed(range(spec.d_maps)):
            g = VectorObservable(g.space, CesaroKernel(g.values, spec.maps[j],
                                                       weights[j]).average(n_vec[j]))
        return g

    if spec.kind == MARTINGALE_ERGODIC:
        return composite_cond_expect(averages(spec.f), spec.filtrations, s_vec)
    return averages(composite_cond_expect(spec.f, spec.filtrations, s_vec))


def _count_prefix_sums(monkeypatch):
    calls = []
    real = averages_module._prefix_sum
    monkeypatch.setattr(averages_module, "_prefix_sum",
                        lambda x: calls.append(x.shape) or real(x))
    return calls


class TestGridEvaluation:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_trace_matches_per_cell_evaluate_bit_for_bit(self, family):
        increasing_em = two_maps = 0
        for seed in range(12):
            inst = random_process_instance(seed, family)
            spec = inst.spec
            rng = np.random.default_rng(seed)
            period = max(spec.periods())
            # n1 crosses the period; n2 is a random subset of the common stages
            n1_grid = sorted({1, period, period + 1, 2 * period + 3}
                             | set(rng.integers(1, 3 * period + 2, 4).tolist()))
            stages = min(len(fl.stages) for fl in spec.filtrations)
            n2_grid = sorted(rng.choice(stages, int(rng.integers(1, stages + 1)),
                                        replace=False).tolist())
            target = spec.limit
            trace = convergence_trace(spec, n1_grid, n2_grid, inst.p)
            assert [(r.n1, r.n2) for r in trace.rows] == [
                (n1, n2) for n1 in n1_grid for n2 in n2_grid]
            for row in trace.rows:
                value = evaluate(spec, row.n1, row.n2)
                n_vec, s_vec = (row.n1,) * spec.d_maps, (row.n2,) * spec.m_filtrations
                assert value.values.tobytes() == _cell_by_one_map_kernels(
                    spec, n_vec, s_vec).values.tobytes()
                diff = value - target
                assert row.lp_error == lp_norm(diff, inst.p, spec.norm)
                assert row.sup_error == linf_norm(diff, spec.norm)
            increasing_em += (spec.kind == ERGODIC_MARTINGALE
                              and spec.filtrations[0].direction == INCREASING)
            two_maps += spec.d_maps == 2
            if family.startswith("multi"):
                assert spec.m_filtrations >= 3
        if family.endswith("_em"):
            assert increasing_em > 0
        if family.startswith("multi"):
            assert two_maps > 0

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    @pytest.mark.parametrize("weights", (None, BesicovitchWeights.single_cosine(0.8, 1, 3)))
    def test_single_map_trace_builds_one_prefix_sum(self, monkeypatch, kind, weights):
        calls = _count_prefix_sums(monkeypatch)
        # weighted, every sum has a leading axis of the one cosine term
        terms = () if weights is None else (1,)
        for n1_grid, n2_grid in (((5,), (1,)), ((1, 2, 3, 7, 12, 40), (0, 1, 2))):
            spec = ProcessSpec.single(kind, F1357, CYC, FILT3, weights=weights)
            calls.clear()
            convergence_trace(spec, n1_grid, n2_grid)
            # martingale-ergodic: one sum over f; ergodic-martingale: one over the
            # stage stack
            stack = () if kind == MARTINGALE_ERGODIC else (len(n2_grid),)
            # the limit target: martingale-ergodic reads the kept kernel of f;
            # ergodic-martingale reads the trace's kept kernel when the grid
            # holds the last stage, else first builds the one of its last stage
            limit = ([] if kind == MARTINGALE_ERGODIC or 2 in n2_grid
                     else [terms + (1, 2 * SP4.size, 1)])
            assert calls == limit + [terms + stack + (2 * SP4.size, 1)]
            calls.clear()
            convergence_trace(spec, n1_grid, n2_grid)
            assert calls == []  # a repeat call builds none

    @pytest.mark.parametrize("family", ("single_me", "single_em", "weighted_me", "weighted_em"))
    def test_a_trace_reads_its_limit_with_one_kernel(self, monkeypatch, family):
        # the limit is the first row of the trace's own pass: one kernel per
        # trace, where ergodic-martingale built a second one of its last stage
        builds = []
        real = processes_module.CesaroKernel

        class Counted(real):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        for seed in range(6):
            inst = random_process_instance(seed, family)
            period = max(inst.spec.periods())
            n1_grid = sorted({1, 2, period, period + 1})
            n2_grid = range(min(len(fl.stages) for fl in inst.spec.filtrations))
            limit_first = random_process_instance(seed, family).spec
            limit_first.limit
            want = convergence_trace(limit_first, n1_grid, n2_grid, inst.p).rows
            monkeypatch.setattr(processes_module, "CesaroKernel", Counted)
            builds.clear()
            assert convergence_trace(inst.spec, n1_grid, n2_grid, inst.p).rows == want
            assert len(builds) == 1
            assert inst.spec.limit.values.tobytes() == (
                limit_first.limit.values.tobytes())
            assert len(builds) == 1
            monkeypatch.undo()

    @pytest.mark.parametrize("n1_grid, n2_grid, message", [
        ((4, 2), (0, 1), "n1_grid must be strictly increasing"),
        ((1, 2), (1, 1), "n2_grid must be strictly increasing"),
        ((0, 2), (0, 1), "n must be positive"),
        ((1, 2), (0, 3), "stage index 3 out of range for filtration 0"),
        ((1, 2), (-1, 0), "stage index -1 out of range for filtration 0"),
    ])
    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    def test_bad_grid_is_refused_before_any_kernel(self, monkeypatch, n1_grid, n2_grid,
                                                   message, kind):
        spec = ProcessSpec.single(kind, F1357, CYC, FILT3)
        calls = _count_prefix_sums(monkeypatch)
        with pytest.raises(ValueError, match=message):
            convergence_trace(spec, n1_grid, n2_grid)
        assert calls == []

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    def test_tail_variation_builds_one_kernel(self, monkeypatch, kind):
        w = BesicovitchWeights.single_cosine(0.8, 1, 3)
        spec = ProcessSpec.single(kind, F1357, CYC, FILT3, weights=w)
        (period,) = spec.periods()
        evals = [evaluate(spec, k * period, 2) for k in (7, 8)]  # the final quarter
        want = lp_norm(evals[0] - evals[1], 2.0, spec.norm)
        calls = _count_prefix_sums(monkeypatch)
        fresh = ProcessSpec.single(kind, F1357, CYC, FILT3, weights=w)
        assert tail_variation(fresh, p=2.0, n_periods=8) == want
        assert len(calls) == 1
        # a repeat call, like the evaluations at the last stage above, reads
        # the kept kernel
        assert tail_variation(fresh, p=2.0, n_periods=8) == want
        assert tail_variation(spec, p=2.0, n_periods=8) == want
        assert len(calls) == 1


def _spy_kernel_reads(monkeypatch):
    reads = []
    real = averages_module.CesaroKernel.average
    monkeypatch.setattr(averages_module.CesaroKernel, "average",
                        lambda kernel, n: reads.append(n) or real(kernel, n))
    return reads


def _wide_spec(kind):
    """N = 1024, dim 4, four stages, two weight terms: one n of the trace
    stack takes a large share of the chunk budget."""
    rng = np.random.default_rng(5)
    sp = uniform_space(1024)
    f = VectorObservable(sp, rng.normal(size=(1024, 4)))
    filt = Filtration(sp, DECREASING, tuple(Partition(sp, np.arange(1024) % k)
                                            for k in (1024, 64, 8, 1)))
    w = BesicovitchWeights(((0.6, Fraction(1, 3), 0.2), (0.4, Fraction(1, 4), 1.0)))
    return ProcessSpec.single(kind, f, Endomorphism(sp, rng.permutation(1024)), filt, w)


class TestBatchedGrid:
    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    @pytest.mark.parametrize("weights", (None, BesicovitchWeights.single_cosine(0.8, 1, 3)))
    def test_single_map_trace_reads_the_kernel_once_per_chunk(self, monkeypatch, kind,
                                                             weights):
        n1_grid = (1, 2, 3, 5, 7, 12, 40, 41)
        spec = ProcessSpec.single(kind, F1357, CYC, FILT3, weights=weights)
        # the first trace keeps the limit, so the later ones read only their grid
        want = convergence_trace(spec, n1_grid, (0, 1, 2)).rows
        reads = _spy_kernel_reads(monkeypatch)
        assert convergence_trace(spec, n1_grid, (0, 1, 2)).rows == want
        assert [list(n) for n in reads] == [list(n1_grid)]
        # a budget of three n per chunk (three stages, and a read of one real
        # float or one complex term per kernel entry): three reads
        read = 1 if weights is None else 2
        entries = 1 if kind == MARTINGALE_ERGODIC else 3
        monkeypatch.setattr(processes_module, "_CHUNK_FLOATS",
                            3 * SP4.size * (3 + entries * read))
        reads.clear()
        assert convergence_trace(spec, n1_grid, (0, 1, 2)).rows == want
        assert [list(n) for n in reads] == [[1, 2, 3], [5, 7, 12], [40, 41]]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_n_per_chunk_gives_the_same_rows(self, monkeypatch, family):
        for seed in range(6):
            inst = random_process_instance(seed, family)
            period = max(inst.spec.periods())
            n1_grid = sorted({1, 2, period, period + 1, 2 * period + 3})
            n2_grid = range(min(len(fl.stages) for fl in inst.spec.filtrations))
            monkeypatch.undo()
            want = convergence_trace(inst.spec, n1_grid, n2_grid, inst.p).rows
            monkeypatch.setattr(processes_module, "_CHUNK_FLOATS", 1)
            fresh = random_process_instance(seed, family).spec
            assert convergence_trace(fresh, n1_grid, n2_grid, inst.p).rows == want

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    def test_trace_memory_does_not_grow_with_the_grid(self, kind):
        import tracemalloc

        def peak(n1_grid, limit_first=True):
            spec = _wide_spec(kind)
            if limit_first:  # the trace then reads no limit row
                spec.limit
            tracemalloc.start()
            try:
                convergence_trace(spec, n1_grid, (0, 1, 2, 3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one chunk at a time: 64 n values (16 chunks) peak within 10 % of 4
        # (one chunk); with the previous chunk alive while the next is built,
        # the martingale-ergodic peak was 1.4 times as high
        one_chunk = peak(range(1, 5))
        assert peak(range(1, 65)) <= 1.1 * one_chunk
        if kind == ERGODIC_MARTINGALE:
            # a limit read as the first chunk's lead row leaves each chunk as large
            assert peak(range(1, 65), limit_first=False) <= 1.1 * one_chunk


def _kept(spec, family):
    """What the spec keeps under the tuple keys of one family, by their
    second entry: ("kernel", stages) gives stages -> kernel."""
    return {key[1]: value for key, value in spec.kept.items()
            if isinstance(key, tuple) and key[0] == family}


def _spec_arrays(spec):
    """Every array a spec keeps: its kernels' tables, its limit, its sup
    fields, and the tables of its maps and partitions."""
    for kernel in _kept(spec, "kernel").values():
        yield from (v for v in vars(kernel).values() if isinstance(v, np.ndarray))
    yield spec.limit.values
    for field in _kept(spec, "sup").values():
        yield field.values
    for t in spec.maps:
        yield from (v for v in vars(t.cycle_layout).values() if isinstance(v, np.ndarray))
    for fl in spec.filtrations:
        for part in fl.stages:
            yield part.block_masses
            yield part.bin_layout(spec.f.dim)


class TestKeptTables:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_filled_cache_gives_the_fresh_values_bit_for_bit(self, family):
        for seed in range(8):
            filled = random_process_instance(seed, family).spec
            period = max(filled.periods())
            n1_grid = sorted({1, 2, period, period + 1})
            n2_grid = list(range(min(len(fl.stages) for fl in filled.filtrations)))

            def results(spec):
                trace = convergence_trace(spec, n1_grid, n2_grid, 3.0)
                return ([spec.limit.values]
                        + [evaluate(spec, n1, n2).values for n1 in n1_grid for n2 in n2_grid]
                        + [np.array([(r.lp_error, r.sup_error) for r in trace.rows])])

            first = results(filled)
            again = results(filled)  # every table now comes from the caches
            fresh = random_process_instance(seed, family).spec
            # the fresh spec fills its caches in another order: per cell first
            cells = [evaluate(fresh, n1, n2).values for n1 in n1_grid for n2 in n2_grid]
            assert all(np.array_equal(a, b) for a, b in zip(cells, first[1:-1]))
            for got in (again, results(fresh)):
                assert len(got) == len(first)
                assert all(np.array_equal(a, b) for a, b in zip(got, first))

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    @pytest.mark.parametrize("weights", (None, BesicovitchWeights.single_cosine(0.8, 1, 3)))
    def test_kept_arrays_are_read_only(self, kind, weights):
        spec = ProcessSpec.single(kind, F1357, CYC, FILT3, weights=weights)
        convergence_trace(spec, (1, 2, 5), (0, 1, 2))
        evaluate(spec, 3, 1)
        sup_field(spec)
        arrays = list(_spec_arrays(spec))
        # ergodic-martingale: the trace's stages, which gave the limit too, and stage 1
        assert len(_kept(spec, "kernel")) == (1 if kind == MARTINGALE_ERGODIC else 2)
        assert len(arrays) > 10
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1
        # every kernel read runs on C-contiguous tables
        for kernel in _kept(spec, "kernel").values():
            for name, table in vars(kernel).items():
                if isinstance(table, np.ndarray):
                    assert table.flags.c_contiguous, name

    def test_limit_is_kept(self):
        spec = em_spec()
        assert spec.limit is spec.limit


class TestConditioningPasses:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_limit_read_beside_lengths_is_the_limit_bit_for_bit(self, family):
        for seed in range(6):
            spec = random_process_instance(seed, family).spec
            period = max(spec.periods())
            n_vecs = [(1,) * spec.d_maps, None, (period + 1,) * spec.d_maps]
            s_vecs = [(0,) * spec.m_filtrations, spec.last_stages]
            values = np.concatenate(list(processes_module._cells(spec, n_vecs, s_vecs)))
            kept = spec.limit.values  # kept by the read, not computed again
            fresh = random_process_instance(seed, family).spec.limit.values
            assert kept.tobytes() == fresh.tobytes() == values[1, 1].tobytes()
            for k in (0, 2):
                for j, s_vec in enumerate(s_vecs):
                    cell = evaluate(spec, n_vecs[k], s_vec).values
                    assert cell.tobytes() == values[k, j].tobytes()

    def test_process_convergence_conditions_seven_times_per_instance(self, monkeypatch):
        # 25 instances: the limit came from a pass of its own three times per
        # instance, 10 passes where 7 do
        calls = []
        real = processes_module._conditioned
        monkeypatch.setattr(processes_module, "_conditioned",
                            lambda *args: calls.append(1) or real(*args))
        assert all(line.ok for line in invariants.process_convergence(5, 50))
        assert len(calls) == 175

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    def test_one_filtration_conditions_every_stage_in_one_call(self, monkeypatch, kind):
        passes, calls = [], []
        real_pass, real_call = processes_module._conditioned, processes_module.conditioned
        monkeypatch.setattr(processes_module, "_conditioned",
                            lambda *args: passes.append(1) or real_pass(*args))
        monkeypatch.setattr(processes_module, "conditioned",
                            lambda *args: calls.append(args[2]) or real_call(*args))
        spec = ProcessSpec.single(kind, F1357, CYC, FILT3)
        convergence_trace(spec, (1, 2, 5), (0, 1, 2))
        # martingale-ergodic: the limit's pass and the trace's; ergodic-martingale
        # reads its limit in the trace's pass
        assert len(passes) == len(calls) == (2 if kind == MARTINGALE_ERGODIC else 1)
        assert calls[-1] == [[0, 1, 2]]
