import itertools
from fractions import Fraction

import numpy as np
import pytest

from ergmart.averages import (
    BesicovitchWeights,
    CesaroKernel,
    composite_block_means,
    composite_cond_expect,
    conditioned,
    running_rows,
)
from ergmart.generators import random_cycle_system, random_filtration, random_weights
from ergmart.measure import DECREASING, Filtration, MeasureSpace, Partition, uniform_space
from ergmart.observables import VectorObservable, linf_norm, point_norm_field
from ergmart.operators import (
    Endomorphism,
    cycle_map,
    identity_map,
    koopman,
    power,
)
from ergmart.processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ProcessSpec,
    evaluate,
)
from oracles import (
    oracle_composite,
    oracle_composite_block_means_bincount,
    oracle_cycles,
    oracle_ergodic_average,
    oracle_ergodic_limit,
    oracle_multi_average,
    oracle_running_averages_steps,
    oracle_weighted_average,
)

SP4 = uniform_space(4)
F1357 = VectorObservable(SP4, [1, 3, 5, 7])
CYC = cycle_map(SP4)


def _average(f, t, n, w=None):
    """The (weighted) Cesaro average of f at length n, or its limit for n None."""
    return VectorObservable(f.space, CesaroKernel(f.values, t, w).average(n))


class TestErgodicAverage:
    def test_n1_is_identity(self):
        assert _average(F1357, CYC, 1).values == pytest.approx(F1357.values)

    def test_two_terms(self):
        got = _average(F1357, CYC, 2)
        assert got.values[:, 0] == pytest.approx([2, 4, 6, 4])
        assert got.values.tolist() == oracle_ergodic_average(
            [[1], [3], [5], [7]], [1, 2, 3, 0], 2)

    def test_full_cycle(self):
        got = _average(F1357, CYC, 4)
        assert got.values[:, 0] == pytest.approx([4, 4, 4, 4])

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            _average(F1357, CYC, 0)


class TestErgodicLimit:
    def test_identity_fixes_f(self):
        got = _average(F1357, identity_map(SP4), None)
        assert got.values == pytest.approx(F1357.values)

    def test_four_cycle(self):
        assert _average(F1357, CYC, None).values[:, 0] == pytest.approx([4, 4, 4, 4])

    def test_two_transpositions(self):
        t = Endomorphism(SP4, [1, 0, 3, 2])
        got = _average(F1357, t, None)
        assert got.values[:, 0] == pytest.approx([2, 2, 6, 6])
        assert got.values.tolist() == oracle_ergodic_limit(
            [[1], [3], [5], [7]], SP4.weights, [1, 0, 3, 2])

    def test_weighted_orbit_mean(self):
        sp = MeasureSpace([0.3, 0.3, 0.2, 0.2])
        f = VectorObservable(sp, [2.0, 6.0, 1.0, 5.0])
        t = Endomorphism(sp, [1, 0, 3, 2])
        got = _average(f, t, None)
        assert got.values[:, 0] == pytest.approx([4, 4, 3, 3])

    def test_exactness_at_period_multiples(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 24))
            sp = uniform_space(n)
            t = Endomorphism(sp, rng.permutation(n))
            f = VectorObservable(sp, rng.normal(0, 2, (n, 2)))
            L = t.cycle_layout.order
            star = _average(f, t, None)
            for k in (1, 2, 3):
                assert linf_norm(_average(f, t, k * L) - star) <= 1e-12

    def test_cesaro_rate(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            sp = uniform_space(n)
            t = Endomorphism(sp, rng.permutation(n))
            f = VectorObservable(sp, rng.normal(0, 2, (n, 1)))
            L = t.cycle_layout.order
            star = _average(f, t, None)
            for m in (L, L + 1, 2 * L + 3, 5 * L):
                gap = linf_norm(_average(f, t, m) - star)
                assert gap <= 2 * linf_norm(f) * L / m + 1e-12

    def test_projection_and_invariance(self):
        rng = np.random.default_rng(13)
        sp = uniform_space(12)
        t = Endomorphism(sp, rng.permutation(12))
        f = VectorObservable(sp, rng.normal(0, 1, (12, 3)))
        star = _average(f, t, None)
        assert linf_norm(_average(star, t, None) - star) <= 1e-12
        assert linf_norm(koopman(star, t) - star) <= 1e-12


def _weight_cases() -> list[BesicovitchWeights]:
    """Weights of 1 to 20 terms, each term's frequency rational, irrational
    or 0, and the same-sign frequency-0 sums of 14 terms whose pairwise sum
    of one column passes the envelope (seeds 1 and 17)."""
    rng = np.random.default_rng(29)
    cases = []
    for count in range(1, 21):
        for _ in range(8):
            terms = []
            for kind in rng.integers(3, size=count):
                den = int(rng.integers(2, 50))
                freq = (Fraction(int(rng.integers(den)), den), float(rng.uniform(0, 1)), 0.0)[kind]
                terms.append((float(rng.uniform(-1, 1)), freq, float(rng.uniform(-3, 3))))
            cases.append(BesicovitchWeights(tuple(terms)))
    for seed in (1, 17):
        amps = np.random.default_rng(seed).uniform(0.01, 1.0, 14)
        cases.append(BesicovitchWeights(tuple((float(a), 0.0, 0.0) for a in amps)))
    return cases


class TestWeights:
    def test_alternating_sequence(self):
        w = BesicovitchWeights.single_cosine(1.0, 1, 2)
        assert w.values(6) == pytest.approx([1, -1, 1, -1, 1, -1])
        assert w.period == 2
        assert w.amplitude_bound == 1.0

    def test_frequency_range_validated(self):
        with pytest.raises(ValueError):
            BesicovitchWeights(((1.0, 1.5, 0.0),))

    @pytest.mark.parametrize("term", [(float("nan"), 0.5, 0.0), (float("inf"), 0.5, 0.0),
                                      (1.0, 0.5, float("nan")), (1.0, 0.5, float("-inf"))])
    def test_non_finite_terms_rejected(self, term):
        with pytest.raises(ValueError, match="finite"):
            BesicovitchWeights((term,))

    def test_exact_periodicity_of_rational_terms(self):
        w = BesicovitchWeights(((0.7, 1 / 3, 0.4), (0.3, 2 / 5, 0.0)))
        assert w.period == 15
        vals = w.values(60)
        assert vals[:15] == pytest.approx(vals[15:30], abs=0.0)  # bitwise periodic
        # the sup pass reads one period and repeats it: values(n) must be
        # values(P) at i mod P, bit for bit, for any rational terms
        rng = np.random.default_rng(17)
        cases = [random_weights(rng, float(rng.uniform(0.1, 2.0))) for _ in range(300)]
        cases += [BesicovitchWeights.single_cosine(0.9, num, den, 0.3)
                  for num, den in ((1, 2), (3, 7), (5, 64), (1000, 4093), (4095, 4096))]
        cases += [BesicovitchWeights(((0.5, Fraction(1, 4096), 1.0), (-0.4, 2 / 63, 0.2),
                                      (0.1, Fraction(7, 4095), 0.0)))]
        for w in cases:
            period = w.period
            n = int(rng.integers(1, 3 * period + 2))
            assert np.array_equal(w.values(n), w.values(period)[np.arange(n) % period])

    def test_one_value_per_weight(self):
        # a_i is one float whatever the length read: numpy's sum over the
        # terms adds one column pairwise and a wider block row by row, which
        # from 8 terms on gives a_0 two values
        for w in _weight_cases():
            whole = w.values(12)
            for m in range(13):
                assert np.array_equal(whole[:m], w.values(m))

    def test_sup_abs_below_envelope(self):
        # exact: the terms and the envelope are added in one order
        cases = [BesicovitchWeights(((0.6, 1 / 4, 0.1), (0.4, 1 / 3, 1.0))), *_weight_cases()]
        for w in cases:
            for n in (1, 2, 12):
                assert np.abs(w.values(n)).max() <= w.amplitude_bound
            assert w.sup_abs(100) <= w.amplitude_bound


class TestWeightedAverage:
    def test_unit_weights_match_plain(self):
        w = BesicovitchWeights.constant(1.0)
        for n in (1, 2, 3, 7):
            assert _average(F1357, CYC, n, w).values == pytest.approx(
                _average(F1357, CYC, n).values)

    def test_alternating_two_terms(self):
        w = BesicovitchWeights.single_cosine(1.0, 1, 2)
        got = _average(F1357, CYC, 2, w)
        assert got.values[:, 0] == pytest.approx([-1, -1, -1, 3])

    def test_single_term_scales(self):
        w = BesicovitchWeights(((0.5, 1 / 3, 0.7),))
        a0 = w.values(1)[0]
        got = _average(F1357, CYC, 1, w)
        assert got.values == pytest.approx(a0 * F1357.values)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n_pts = int(rng.integers(2, 10))
            sp = uniform_space(n_pts)
            t = Endomorphism(sp, rng.permutation(n_pts))
            f = VectorObservable(sp, rng.normal(0, 1, (n_pts, 2)))
            w = BesicovitchWeights(((0.8, 1 / 4, 0.3), (0.2, 1 / 2, 0.0)))
            n = int(rng.integers(1, 9))
            want = oracle_weighted_average(f.values.tolist(), [int(i) for i in t.map],
                                           w.values(n).tolist(), n)
            assert _average(f, t, n, w).values == pytest.approx(
                np.asarray(want), abs=1e-12)

    def test_domination_by_abs_weights(self):
        rng = np.random.default_rng(23)
        w = BesicovitchWeights(((0.7, 1 / 3, 0.0), (0.3, 1 / 5, 0.5)))
        for _ in range(10):
            n_pts = int(rng.integers(2, 12))
            sp = uniform_space(n_pts)
            t = Endomorphism(sp, rng.permutation(n_pts))
            f = VectorObservable(sp, rng.normal(0, 2, (n_pts, 3)))
            n = int(rng.integers(1, 12))
            lhs = point_norm_field(_average(f, t, n, w)).values[:, 0]
            scal = point_norm_field(f).values[:, 0]
            acc = np.zeros(n_pts)
            cur = scal.copy()
            absal = np.abs(w.values(n))
            for i in range(n):
                if i:
                    cur = cur[t.map]
                acc += absal[i] * cur
            assert np.max(lhs - acc / n) <= 1e-12


class TestMultiAverage:
    """The multiparameter average is `evaluate` on a spec whose only
    filtration is the singletons, where conditioning is the identity."""

    def spec(self, maps, weights, f=F1357):
        singletons = Filtration(f.space, DECREASING, (Partition.singletons(f.space),))
        return ProcessSpec(MARTINGALE_ERGODIC, f, maps, (singletons,), weights)

    def test_d1_reduces_to_weighted(self):
        w = BesicovitchWeights(((0.9, 1 / 3, 0.1),))
        spec = self.spec((CYC,), (w,))
        for n in (1, 3, 5):
            assert evaluate(spec, [n], 0).values == pytest.approx(
                _average(F1357, CYC, n, w).values)

    def test_identity_maps_fix_f(self):
        ident = identity_map(SP4)
        spec = self.spec((ident, ident), (None, None))
        for n_vec in ((1, 1), (3, 2), (5, 5)):
            assert evaluate(spec, n_vec, 0).values == pytest.approx(F1357.values)

    def test_commuting_cycles_full_box(self):
        spec = self.spec((CYC, power(CYC, 2)), (None, None))
        got = evaluate(spec, (4, 4), 0)
        assert got.values[:, 0] == pytest.approx([4, 4, 4, 4])

    def test_matches_direct_box_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n_pts = int(rng.integers(2, 8))
            sp = uniform_space(n_pts)
            t1 = Endomorphism(sp, rng.permutation(n_pts))
            t2 = Endomorphism(sp, rng.permutation(n_pts))  # need not commute
            f = VectorObservable(sp, rng.normal(0, 1, (n_pts, 2)))
            w1 = BesicovitchWeights(((0.6, 1 / 2, 0.0),))
            w2 = BesicovitchWeights(((0.4, 1 / 3, 0.2),))
            spec = self.spec((t1, t2), (w1, w2), f=f)
            n_vec = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            want = oracle_multi_average(
                f.values.tolist(),
                [[int(i) for i in t1.map], [int(i) for i in t2.map]],
                [w1.values(n_vec[0]).tolist(), w2.values(n_vec[1]).tolist()],
                list(n_vec))
            assert evaluate(spec, n_vec, 0).values == pytest.approx(
                np.asarray(want), abs=1e-12)

    def test_dimension_mismatch(self):
        spec = self.spec((CYC,), (None,))
        with pytest.raises(ValueError):
            evaluate(spec, (2, 2), 0)


class TestCompositeCondExpect:
    def test_single_factor(self):
        pairs = Partition.from_blocks(SP4, [[0, 1], [2, 3]])
        filt = Filtration(SP4, DECREASING, (Partition.singletons(SP4), pairs))
        got = composite_cond_expect(F1357, [filt], [1])
        assert got.values[:, 0] == pytest.approx([2, 2, 6, 6])

    def test_worked_cross_example(self):
        pairs = Partition.from_blocks(SP4, [[0, 1], [2, 3]])
        cross = Partition.from_blocks(SP4, [[0, 2], [1, 3]])
        f1 = Filtration(SP4, DECREASING, (pairs,))
        f2 = Filtration(SP4, DECREASING, (cross,))
        got = composite_cond_expect(F1357, [f1, f2], [0, 0])
        assert got.values[:, 0] == pytest.approx([4, 4, 4, 4])
        # the intermediate factor alone gives [3,5,3,5]
        inner = composite_cond_expect(F1357, [f2], [0])
        assert inner.values[:, 0] == pytest.approx([3, 5, 3, 5])

    def test_whole_stages_give_mean(self):
        whole = Filtration(SP4, DECREASING, (Partition.whole(SP4),))
        got = composite_cond_expect(F1357, [whole, whole], [0, 0])
        assert got.values[:, 0] == pytest.approx([4, 4, 4, 4])

    def test_random_against_sequential_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n_pts = int(rng.integers(3, 12))
            sp = MeasureSpace(rng.uniform(0.1, 1.0, n_pts))
            f = VectorObservable(sp, rng.normal(0, 1, (n_pts, 2)))
            m = int(rng.integers(2, 4))
            filts, labels = [], []
            for _ in range(m):
                part = Partition(sp, rng.integers(0, 3, n_pts))
                filts.append(Filtration(sp, DECREASING, (part,)))
                labels.append(part.block_of)
            got = composite_cond_expect(f, filts, [0] * m)
            want = oracle_composite(sp.weights, labels, f.values.tolist())
            assert got.values == pytest.approx(np.asarray(want), abs=1e-12)

    def test_stage_index_out_of_range(self):
        filt = Filtration(SP4, DECREASING, (Partition.whole(SP4),))
        with pytest.raises(ValueError, match="out of range"):
            composite_cond_expect(F1357, [filt], [1])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_for_bit_the_bincount_kernel_per_stage(self, m):
        # one mass product per filtration pass and no bincount on singletons
        # give the floats of a bincount per stage
        rng = np.random.default_rng(50 + m)
        for n in (3, 7, 48):
            for sp in (uniform_space(n), MeasureSpace(rng.uniform(0.1, 2.0, n))):
                mixed = Partition(sp, rng.integers(0, max(2, n // 4), n))
                coarse = Partition(sp, mixed.block_of % 2)
                chain = (Partition.singletons(sp), mixed, coarse, Partition.whole(sp))
                filts = [Filtration(sp, DECREASING, chain[k % 2:]) for k in range(m)]
                stage_sets = [tuple(range(len(fl.stages))) for fl in filts]
                for lead in ((), (2,)):
                    values = rng.normal(size=lead + (n, 2))
                    got = list(composite_block_means(values, filts, stage_sets))
                    want = oracle_composite_block_means_bincount(values, filts, stage_sets)
                    assert len(got) == len(want) == len(stage_sets[0])
                    for (part, means), (want_part, want_means) in zip(got, want):
                        assert part is want_part
                        assert means.shape == want_means.shape
                        assert np.array_equal(means, want_means)
                    # and spread back to the points, the stage axes after the stack's
                    spread = conditioned(values, filts, stage_sets)
                    assert spread.shape == lead + tuple(map(len, stage_sets)) + (n, 2)
                    for k, (want_part, want_means) in enumerate(want):
                        assert np.array_equal(spread[(slice(None),) * len(lead) + (k,)],
                                              np.take(want_means, want_part.block_of, axis=-2))

    def test_block_means_put_the_stage_axes_after_the_stack_axes(self):
        rng = np.random.default_rng(43)
        space, _, _ = random_cycle_system(rng, n_max=24)
        filts = [random_filtration(rng, space, 3) for _ in range(3)]
        # S_2 = 3 and S_3 = 2 differ from the stack's (2, 3), so the order shows in the shape
        stage_sets = [(0, 2), (0, 1, 2), (1, 2)]
        values = rng.normal(size=(2, 3, space.size, 2))
        yielded = list(composite_block_means(values, filts, stage_sets))
        assert len(yielded) == 2
        for s1, (part, means) in zip(stage_sets[0], yielded):
            assert means.shape == (2, 3, 3, 2, part.block_count, 2)
            for i, j, a, b in np.ndindex(2, 3, 3, 2):
                want = composite_cond_expect(VectorObservable(space, values[i, j]), filts,
                                             (s1, stage_sets[1][a], stage_sets[2][b]))
                assert np.array_equal(means[i, j, a, b][part.block_of], want.values)


def test_average_linearity():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        sp = uniform_space(n)
        t = Endomorphism(sp, rng.permutation(n))
        f = VectorObservable(sp, rng.normal(0, 1, (n, 2)))
        g = VectorObservable(sp, rng.normal(0, 1, (n, 2)))
        a, b = rng.normal(0, 2, 2)
        m = int(rng.integers(1, 10))
        lhs = _average(a * f + b * g, t, m)
        rhs = a * _average(f, t, m) + b * _average(g, t, m)
        assert linf_norm(lhs - rhs) <= 1e-12 * max(1.0, abs(a) + abs(b)) * 10


def _orbit_constant_system(rng, n_max=16):
    """Random permutation on masses that are constant on each orbit only."""
    n = int(rng.integers(2, n_max + 1))
    perm = rng.permutation(n)
    masses = np.empty(n)
    for cyc in oracle_cycles(perm.tolist()):
        masses[cyc] = rng.uniform(0.2, 2.0)
    space = MeasureSpace(masses / masses.sum())
    return space, Endomorphism(space, perm)


def _kernel_weight_cases(rng, lengths):
    """(weights, relative tolerance): den dividing a cycle length, dens
    dividing none of it, frequency 0 with a phase, and an irrational
    frequency with freq * L within 1e-9 of an integer."""
    L = int(rng.choice(lengths))
    top = max(lengths)
    near = (int(rng.integers(1, top)) + float(rng.uniform(1e-10, 9e-10))) / top
    return [
        (BesicovitchWeights(((0.8, Fraction(1, L), 0.3),)), 1e-12),
        (BesicovitchWeights(((0.6, Fraction(1, L + 1), 0.3), (0.4, Fraction(2, 7), 1.0))), 1e-12),
        (BesicovitchWeights(((0.6, 0.0, 1.2),)), 1e-12),
        (BesicovitchWeights(((0.7, near, 0.4), (0.3, Fraction(1, top), 2.0))), 1e-9),
    ]


class TestCycleKernel:
    def test_against_step_by_step_oracles(self):
        rng = np.random.default_rng(83)
        for _ in range(12):
            sp, t = _orbit_constant_system(rng)
            f = VectorObservable(sp, rng.normal(0, 2, (sp.size, int(rng.integers(1, 5)))))
            vals, perm = f.values.tolist(), t.map.tolist()
            scale = np.abs(f.values).max()
            lengths = sorted({len(c) for c in oracle_cycles(t.map.tolist())})
            ns = sorted({17} | {m for L in lengths for m in (1, L - 1, L, 3 * L + 2) if m >= 1})
            cases = _kernel_weight_cases(rng, [L for L in lengths if L > 1] or [2])
            for n in ns:
                want = np.asarray(oracle_ergodic_average(vals, perm, n))
                assert np.abs(_average(f, t, n).values - want).max() <= 1e-12 * scale
                for w, rel in cases:
                    want = np.asarray(oracle_weighted_average(vals, perm, w.values(n).tolist(), n))
                    got = _average(f, t, n, w).values
                    assert np.abs(got - want).max() <= rel * scale * w.amplitude_bound

    def test_any_length_costs_one_period(self, monkeypatch):
        # the work, not the wall time: no running sum is built, and no weight
        # is read at an index past one period
        import ergmart.averages as avg
        import ergmart.inequalities as ineq
        rng = np.random.default_rng(89)
        lengths = (8, 7, 5, 3) * 2 + (8, 7, 3)
        points = rng.permutation(64)
        perm = np.empty(64, dtype=np.int64)
        begin = 0
        for L in lengths:
            cyc = points[begin:begin + L]
            perm[cyc] = np.roll(cyc, -1)
            begin += L
        sp = uniform_space(64)
        t = Endomorphism(sp, perm)
        assert t.cycle_layout.order == 840
        f = VectorObservable(sp, rng.normal(0, 1, (64, 2)))
        w = BesicovitchWeights(((0.6, Fraction(3, 8), 0.4), (0.4, Fraction(2, 35), 2.0)))
        filt = Filtration(sp, DECREASING, (Partition.singletons(sp),
                                           Partition(sp, np.arange(64) % 4)))
        n = 10**7 + 13
        for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
            spec = ProcessSpec.single(kind, f, t, filt, weights=w)
            (period,) = spec.periods()
            q, r = divmod(n, period)
            reads = []
            real_values, real_angles = BesicovitchWeights.values, BesicovitchWeights._angles
            for module in (avg, ineq):
                monkeypatch.setattr(module, "running_rows",
                                    lambda *args: pytest.fail("a running sum was built"))
            monkeypatch.setattr(BesicovitchWeights, "values",
                                lambda self, k: reads.append(k) or real_values(self, k))
            monkeypatch.setattr(BesicovitchWeights, "_angles",
                                lambda self, m: reads.append(int(m.max()) + 1)
                                or real_angles(self, m))
            got = evaluate(spec, n, 1).values
            monkeypatch.undo()
            assert reads and max(reads) <= period
            want = (q * period * evaluate(spec, period, 1).values
                    + r * evaluate(spec, r, 1).values) / n
            assert np.abs(got - want).max() <= 1e-12

    def test_layout_is_built_once_per_map(self, monkeypatch):
        import ergmart.operators as ops
        builds = []
        build = ops._cycle_layout
        monkeypatch.setattr(ops, "_cycle_layout", lambda perm: builds.append(1) or build(perm))
        t = Endomorphism(SP4, [1, 0, 3, 2])
        filt = Filtration(SP4, DECREASING, (Partition.singletons(SP4), Partition.whole(SP4)))
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, F1357, t, filt,
                                  weights=BesicovitchWeights.single_cosine(0.5, 1, 3))
        evaluate(spec, 5, 0)
        assert len(builds) == 1
        evaluate(spec, 7, 1)
        spec.limit
        evaluate(spec, spec.periods(), spec.last_stages)
        t.cycle_layout.order
        assert len(builds) == 1

    def test_stack_kernel_matches_each_entry_bit_for_bit(self):
        """One kernel over a (S, K, N, dim) stack reads, at every n and at the
        limit, the very floats of a kernel built on each (N, dim) entry,
        weighted (up to 11 terms, rational and irrational) or not."""
        rng = np.random.default_rng(97)
        for _ in range(60):
            space, t, order = random_cycle_system(rng, n_max=40)
            terms = tuple((float(rng.uniform(-1, 1)),
                           Fraction(int(rng.integers(0, 7)), 7) if rng.random() < 0.7
                           else float(rng.uniform(0, 1)),
                           float(rng.uniform(0, 6)))
                          for _ in range(int(rng.integers(1, 12))))
            stack = rng.normal(size=(int(rng.integers(1, 4)), 2, space.size,
                                     int(rng.integers(1, 4))))
            for w in (None, BesicovitchWeights(terms)):
                kernel = CesaroKernel(stack, t, w)
                for n in (None, 1, 5, order, 3 * order + 1):
                    got = kernel.average(n)
                    assert got.shape == stack.shape
                    for idx in np.ndindex(stack.shape[:2]):
                        want = CesaroKernel(stack[idx], t, w).average(n)
                        assert got[idx].tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_array_read_matches_each_length_bit_for_bit(self, lead):
        """A read at an array of lengths stacks, on a new leading axis, the
        very floats of the read at each length, unweighted and with rational
        and irrational weights (up to 11 terms), for n below, at and above
        every cycle length."""
        rng = np.random.default_rng(101 + len(lead))
        for _ in range(20):
            space, t, order = random_cycle_system(rng, n_max=40)
            lengths = sorted({len(c) for c in oracle_cycles(t.map.tolist())})
            ns = sorted({1, 2, order, order + 1, 3 * order + 5}
                        | {m for L in lengths for m in (L - 1, L, L + 1, 2 * L + 3) if m >= 1})
            rational = tuple((float(rng.uniform(-1, 1)), Fraction(int(rng.integers(0, 9)), 9),
                              float(rng.uniform(0, 6))) for _ in range(int(rng.integers(1, 12))))
            irrational = ((0.7, float(rng.uniform(0, 1)), 0.4), (-0.3, Fraction(1, 4), 2.0))
            stack = rng.normal(size=lead + (space.size, int(rng.integers(1, 4))))
            for w in (None, BesicovitchWeights(rational), BesicovitchWeights(irrational)):
                kernel = CesaroKernel(stack, t, w)
                got = kernel.average(np.array(ns))
                assert got.shape == (len(ns),) + stack.shape
                want = np.stack([kernel.average(n) for n in ns])
                assert got.tobytes() == want.tobytes()

    def test_kernel_rejects_nonpositive_length(self):
        kernel = CesaroKernel(F1357.values, CYC)
        for n in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                kernel.average(n)

    @pytest.mark.parametrize("weights", (None, BesicovitchWeights.single_cosine(0.8, 1, 3)))
    def test_array_with_a_zero_is_refused_before_any_read(self, monkeypatch, weights):
        kernel = CesaroKernel(F1357.values, CYC, weights)
        # a read of the prefix sums would now fail with an AttributeError
        monkeypatch.setattr(kernel, "csum", None)
        with pytest.raises(ValueError, match="n must be positive"):
            kernel.average(np.array([3, 0, 5]))


class TestRunningAverages:
    @staticmethod
    def _chunks(stream, rounds, rows):
        """The stream's chunks, checked to run consecutively from row 0 to
        the last round end, each `rows` rows unless it ends at a round end."""
        chunks = list(stream)
        assert [first for first, _ in chunks] == [0] + list(
            itertools.accumulate(len(chunk) for _, chunk in chunks[:-1]))
        for first, chunk in chunks:
            stop = min(r for r in rounds if r > first)
            assert len(chunk) == min(rows, stop - first)
        assert sum(len(chunk) for _, chunk in chunks) == rounds[-1]
        return np.concatenate([chunk for _, chunk in chunks])

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_equal_to_the_step_recurrence_bit_for_bit(self, lead, weighted):
        # one gather, one multiply and one running sum in row order must give
        # every float of the step recurrence, in one chunk and in chunks of
        # any rows, one row included, whose running sum is carried across
        # chunk and round ends (past n rows, each round end cuts a chunk
        # short); N = 64 at dim 2 puts every lead shape but ()
        # on the one-add-per-row path, the rest on numpy's accumulate
        rng = np.random.default_rng(len(lead) + 3 * weighted)
        for n_points in (5, 9, 64):
            for trial in range(4):
                perm = rng.permutation(n_points)
                t = Endomorphism(uniform_space(n_points), perm)
                dim = int(rng.integers(1, 3))
                arr = rng.normal(size=lead + (n_points, dim)) * 10.0 ** rng.integers(-8, 9, dim)
                n = int(rng.integers(1, min(3 * t.cycle_layout.order + 3, 300)))
                alphas = rng.normal(size=n) if weighted else None
                want = oracle_running_averages_steps(arr, perm, alphas, n)
                (first, whole), = running_rows(arr, t, alphas, (n,), n)
                assert first == 0 and whole.shape == (n,) + arr.shape
                assert np.array_equal(whole, want)
                for rows in (1, int(rng.integers(1, n + 1)), n + 5):
                    cuts = sorted(set(rng.integers(1, n, size=3).tolist())) if n > 1 else []
                    rounds = (*cuts, n)
                    got = self._chunks(running_rows(arr, t, alphas, rounds, rows), rounds, rows)
                    assert np.array_equal(got, want)

    def test_one_weight_period_gives_the_rows_of_every_weight(self):
        # weight i is alphas[i % len(alphas)], so the table of one period
        # gives the rows of the table of every weight read, bit for bit
        rng = np.random.default_rng(23)
        for trial in range(20):
            n_points = int(rng.integers(3, 40))
            perm = rng.permutation(n_points)
            t = Endomorphism(uniform_space(n_points), perm)
            arr = rng.normal(size=(n_points, 2))
            w = random_weights(rng)
            n = int(rng.integers(1, 4 * w.period + 2))
            rounds = (*sorted(set(rng.integers(1, n, size=2).tolist())), n) if n > 1 else (n,)
            rows = int(rng.integers(1, n + 1))
            full = self._chunks(running_rows(arr, t, w.values(n), rounds, rows), rounds, rows)
            one = self._chunks(running_rows(arr, t, w.values(w.period), rounds, rows),
                               rounds, rows)
            assert np.array_equal(one, full)
            assert np.array_equal(full, oracle_running_averages_steps(arr, perm, w.values(n), n))

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_a_point_subset_reads_the_floats_of_the_whole_stack(self, lead, weighted):
        # a subset in any order gives each of its points the whole stack's
        # floats, in one chunk and across chunks
        rng = np.random.default_rng(7 + len(lead) + 2 * weighted)
        for n_points in (5, 9, 64):
            for trial in range(4):
                perm = rng.permutation(n_points)
                t = Endomorphism(uniform_space(n_points), perm)
                arr = rng.normal(size=lead + (n_points, 2))
                n = int(rng.integers(2, min(3 * t.cycle_layout.order + 3, 300)))
                alphas = rng.normal(size=n) if weighted else None
                (_, whole), = running_rows(arr, t, alphas, (n,), n)
                points = rng.permutation(n_points)[:int(rng.integers(1, n_points + 1))]
                for rows in (n, int(rng.integers(1, n))):
                    got = self._chunks(running_rows(arr, t, alphas, (n,), rows, points),
                                       (n,), rows)
                    assert np.array_equal(got, whole[..., points, :])

    def test_rejects_bad_lengths(self):
        for rounds, rows in (((0,), 1), ((3,), 0), ((3, 3), 1), ((4, 2), 1)):
            with pytest.raises(ValueError, match="rows must be positive"):
                next(running_rows(F1357.values, CYC, None, rounds, rows))
