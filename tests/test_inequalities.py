import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ergmart.inequalities as ineq
from ergmart.averages import BesicovitchWeights
from ergmart.config import build_experiment
from ergmart.fuzz import run_inequality_fuzz
from ergmart.generators import FAMILIES, random_process_instance
from ergmart.inequalities import (
    SupBox,
    default_box,
    dominant_check,
    dominant_constant,
    epsilon_sweep,
    maximal_constant,
    orlicz_class_report,
    shrink_box,
    sup_field,
)
from ergmart.measure import DECREASING, INCREASING, Filtration, Partition, uniform_space
from ergmart.observables import VectorObservable, linf_norm, llog_norm, point_norm_field
from ergmart.operators import Endomorphism, cycle_map, power
from ergmart.processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ProcessSpec,
    evaluate,
    stabilization_periods,
)
from oracles import oracle_cycles, oracle_sup_field_full_period

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SP4 = uniform_space(4)
F1357 = VectorObservable(SP4, [1, 3, 5, 7])
CYC = cycle_map(SP4)
PAIRS = Partition.from_blocks(SP4, [[0, 1], [2, 3]])
FILT3 = Filtration(SP4, DECREASING,
                   (Partition.singletons(SP4), PAIRS, Partition.whole(SP4)))


def me_spec(f=F1357, weights=None):
    return ProcessSpec.single(MARTINGALE_ERGODIC, f, CYC, FILT3, weights=weights)


class TestConstants:
    def test_single_parameter_dominant(self):
        assert dominant_constant(2.0) == pytest.approx(4.0)
        assert dominant_constant(1.25) == pytest.approx(25.0)
        assert dominant_constant(4.0) == pytest.approx((4 / 3) ** 2)

    def test_single_parameter_maximal(self):
        assert maximal_constant(2.0) == pytest.approx(4.0)
        assert maximal_constant(3.0) == pytest.approx(1.5**3)

    def test_weighted_scales_by_alpha(self):
        assert dominant_constant(2.0, weighted=True, alpha=0.5) == pytest.approx(2.0)
        assert maximal_constant(2.0, weighted=True, alpha=0.5) == pytest.approx(2.0)

    def test_multiparameter_exponents(self):
        # d + p + 1 = 5 at p = 2, d = 2
        assert dominant_constant(2.0, multi=True, alpha=1.0, d_maps=2) == pytest.approx(32.0)
        # p * d = 4 at p = 2, d = 2, with alpha squared
        assert maximal_constant(2.0, multi=True, alpha=0.5, d_maps=2) == pytest.approx(4.0)

    def test_multiparameter_requires_integer_p(self):
        with pytest.raises(ValueError, match="integer"):
            dominant_constant(2.5, multi=True)
        with pytest.raises(ValueError, match="integer"):
            maximal_constant(1.5, multi=True)

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            dominant_constant(1.0)
        with pytest.raises(ValueError):
            maximal_constant(0.5)


def _horizons(spec, n):
    """Each point's last outermost row, from the plain cycles: n for
    average-then-condition; min(n, lcm(L_x, weight period)) for
    condition-then-average, n when the first map's weights have no period."""
    size = spec.space.size
    period = 1 if spec.weights is None else spec.weights[0].period
    if spec.kind == MARTINGALE_ERGODIC or period is None:
        return [n] * size
    length = {x: len(cyc) for cyc in oracle_cycles([int(y) for y in spec.maps[0].map])
              for x in cyc}
    return [min(n, math.lcm(length[x], period)) for x in range(size)]


def _build_in_chunks(monkeypatch, spec, box, chunk_floats):
    """The streamed sup field built with `chunk_floats` floats per chunk,
    its passes along the outermost averaging axis as (last row, points,
    chunks), each chunk as (first row, rows), and the floats each point of
    a row counts for: its stacked copies and its int64 gather index, one
    entry per stack entry."""
    real_chunks = ineq._outer_chunks
    passes, point_floats = [], []

    def spy(inner, t, alpha, end, points, copies):
        point_floats.append((inner.size * copies + inner.size // inner.shape[-1])
                            // inner.shape[-2])
        chunks = []
        passes.append((end, {int(x) for x in points}, chunks))
        for start, chunk in real_chunks(inner, t, alpha, end, points, copies):
            assert chunk.shape[-2] == len(points)
            chunks.append((start, len(chunk)))
            yield start, chunk

    monkeypatch.setattr(ineq, "_outer_chunks", spy)
    monkeypatch.setattr(ineq, "_CHUNK_FLOATS", chunk_floats)
    field = ineq._build_sup_field(spec, box).values
    monkeypatch.undo()
    assert len(set(point_floats)) == 1
    return field, passes, point_floats[0]


def _assert_classes(passes, horizons, chunk_floats, point_floats):
    """One pass per class of points that share a horizon, holding exactly
    those points; its chunks run consecutively from row 0 to the class's
    horizon, and each fills the float budget unless it ends at the horizon
    or is one row."""
    assert sorted(end for end, _, _ in passes) == sorted(set(horizons))
    for end, points, chunks in passes:
        assert points == {x for x, h in enumerate(horizons) if h == end}
        budget = max(1, chunk_floats // (point_floats * len(points)))
        assert [start for start, _ in chunks] == [0] + [a + b for a, b in chunks[:-1]]
        assert sum(rows for _, rows in chunks) == end
        for start, rows in chunks:
            assert rows == budget or (rows < budget and start + rows == end)


class TestSupField:
    def test_singleton_box_is_single_evaluation(self):
        box = SupBox((1,), ((1,),))
        fld = sup_field(me_spec(), box)
        want = point_norm_field(evaluate(me_spec(), 1, 1))
        assert fld.values == pytest.approx(want.values)

    def test_monotone_under_enlargement(self):
        small = sup_field(me_spec(), SupBox((2,), ((0, 1),)))
        large = sup_field(me_spec(), SupBox((4,), ((0, 1, 2),)))
        assert np.all(large.values >= small.values - 1e-15)

    def test_exhaustive_box_oracle(self):
        spec = me_spec()
        box = SupBox((4,), ((0, 1, 2),))
        want = np.zeros(4)
        for n1 in range(1, 5):
            for s in (0, 1, 2):
                vals = point_norm_field(evaluate(spec, n1, s)).values[:, 0]
                want = np.maximum(want, vals)
        assert sup_field(spec, box).values[:, 0] == pytest.approx(want, abs=1e-12)

    def test_exhaustive_box_oracle_multiparameter(self):
        cross = Partition.from_blocks(SP4, [[0, 2], [1, 3]])
        f2 = Filtration(SP4, DECREASING, (cross, Partition.whole(SP4)))
        w = BesicovitchWeights.single_cosine(0.5, 1, 2)
        for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
            spec = ProcessSpec(kind, F1357, (CYC, power(CYC, 2)), (FILT3, f2), (w, None))
            box = SupBox((3, 2), ((0, 2), (0, 1)))
            want = np.zeros(4)
            for n_vec in itertools.product(range(1, 4), range(1, 3)):
                for s_vec in itertools.product((0, 2), (0, 1)):
                    vals = point_norm_field(evaluate(spec, n_vec, s_vec)).values[:, 0]
                    want = np.maximum(want, vals)
            assert sup_field(spec, box).values[:, 0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_matches_evaluate_over_the_box(self, family, monkeypatch):
        # non-uniform masses, several filtrations, dim up to 4, q in {1, 2, inf};
        # sup_field builds the box cut to the periods, and the streamed pass
        # over it cut into chunks of one row, and of all rows but one plus
        # one, must give the one-chunk field bit for bit
        for seed in range(20):
            spec = random_process_instance(seed, family).spec
            full = default_box(spec)
            box = SupBox(tuple(min(n, 6) for n in full.n_max), full.stage_sets)
            want = np.zeros(spec.space.size)
            for n_vec in itertools.product(*(range(1, n + 1) for n in box.n_max)):
                for s_vec in itertools.product(*box.stage_sets):
                    field = point_norm_field(evaluate(spec, n_vec, s_vec), spec.norm)
                    want = np.maximum(want, field.values[:, 0])
            built = SupBox(tuple(map(min, box.n_max, stabilization_periods(spec))),
                           box.stage_sets)
            horizons = _horizons(spec, built.n_max[0])
            whole, passes, point_floats = _build_in_chunks(monkeypatch, spec, built, 2**62)
            # one chunk per class
            assert all(chunks == [(0, end)] for end, _, chunks in passes)
            _assert_classes(passes, horizons, 2**62, point_floats)
            row_floats = point_floats * spec.space.size
            for rows in (1, built.n_max[0] - 1) if built.n_max[0] > 1 else ():
                got, passes, _ = _build_in_chunks(monkeypatch, spec, built, rows * row_floats)
                _assert_classes(passes, horizons, rows * row_floats, point_floats)
                assert np.array_equal(got, whole)
            assert np.array_equal(sup_field(spec, box).values, whole)
            np.testing.assert_allclose(whole[:, 0], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    def test_memory_is_linear_in_the_space(self, kind):
        # a dense N x N matrix alone would take 128 MiB here
        n = 4096
        space = uniform_space(n)
        f = VectorObservable(space, np.random.default_rng(3).normal(size=(n, 2)))
        blocks = Partition(space, np.arange(n) // 64)
        filt = Filtration(space, DECREASING,
                          (Partition.singletons(space), blocks, Partition.whole(space)))
        spec = ProcessSpec.single(kind, f, cycle_map(space), filt)
        tracemalloc.start()
        try:
            sup_field(spec, SupBox((8,), ((0, 1, 2),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    def test_memory_does_not_grow_with_the_averaging_length(self, kind):
        # N = 64 with a map of order 840: the default box averages up to n = 3360
        space = uniform_space(64)
        perm, start = np.arange(64), 0
        for length in (8, 7, 5, 3) * 2 + (8, 7, 3):
            perm[start:start + length] = np.roll(np.arange(start, start + length), -1)
            start += length
        tau = Endomorphism(space, perm)
        f = VectorObservable(space, np.random.default_rng(5).normal(size=(64, 2)))
        stages = tuple(Partition(space, np.arange(64) // size) for size in (1, 4, 16, 64))
        filt = Filtration(space, DECREASING, stages)
        w = BesicovitchWeights(((0.4, Fraction(1, 8), 0.3), (0.6, Fraction(2, 35), 1.0)))
        spec = ProcessSpec.single(kind, f, tau, filt, weights=w)
        box = default_box(spec)
        assert box.n_max == (3360,) and box.stage_sets == ((0, 1, 2, 3),)
        tracemalloc.start()
        try:
            sup_field(spec, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestOneSupPass:
    """The fuzz builds each instance's sup fields, over the box and its two
    shrink_box truncations, in one pass."""

    @pytest.mark.parametrize("rows_per_chunk", (None, 1))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_filled_truncations_are_their_own_builds(self, family, rows_per_chunk,
                                                     monkeypatch):
        # also with the outermost axis cut into one-row chunks, so every
        # truncation ends inside the pass
        if rows_per_chunk:
            monkeypatch.setattr(ineq, "_CHUNK_FLOATS", rows_per_chunk)
        for seed in range(20):
            spec = random_process_instance(seed, family).spec
            box = default_box(spec, n_factor=2 if spec.d_maps > 1 else 4)
            smalls = [shrink_box(box, factor) for factor in (0.5, 0.25)]
            sup_field(spec, box, smalls)
            for small in [box, *smalls]:
                fresh = ineq._build_sup_field(spec, ineq._period_box(spec, small))
                assert np.array_equal(sup_field(spec, small).values, fresh.values)

    def test_one_build_per_fuzz_instance(self, monkeypatch):
        builds = []
        real_build = ineq._build_sup_field
        monkeypatch.setattr(ineq, "_build_sup_field",
                            lambda *args: builds.append(args[0]) or real_build(*args))
        report = run_inequality_fuzz(budget=60)
        assert report.ok
        assert len(builds) == len(set(builds)) == 60

    def test_a_box_that_is_not_a_prefix_is_refused(self):
        spec = me_spec()
        with pytest.raises(ValueError, match="prefix"):
            sup_field(spec, SupBox((4,), ((0, 1),)), [SupBox((4,), ((1,),))])
        assert not spec.sup_fields

    @pytest.mark.parametrize("bad, message", [
        (SupBox((2, 2), ((0,),)), "one n_max per map"),
        (SupBox((2,), ((0,), (0,))), "one stage set per filtration"),
        (SupBox((2,), ((0, 3),)), "stage index 3 out of range"),
        (SupBox((2,), ((-1,),)), "stage index -1 out of range"),
    ])
    def test_a_bad_prefix_is_refused_before_any_build(self, bad, message, monkeypatch):
        monkeypatch.setattr(ineq, "_build_sup_field", lambda *args: pytest.fail("built"))
        spec = me_spec()
        with pytest.raises(ValueError, match=message):
            sup_field(spec, SupBox((4,), ((0, 1, 2),)), [bad])
        assert not spec.sup_fields

    def test_a_prefix_equal_to_the_cut_box_or_given_twice_costs_no_build(self, monkeypatch):
        builds = []
        real_build = ineq._build_sup_field
        monkeypatch.setattr(ineq, "_build_sup_field",
                            lambda *args: builds.append(args) or real_build(*args))
        spec = me_spec()  # period 4
        box, small = SupBox((8,), ((0, 1, 2),)), SupBox((2,), ((0, 1),))
        sup_field(spec, box, [SupBox((4,), ((0, 1, 2),)), small, small])
        assert [args[1:] for args in builds] == [(SupBox((4,), ((0, 1, 2),)), small)]
        sup_field(spec, small)
        sup_field(spec, box, [small])
        assert len(builds) == 1


class TestConditioningCost:
    """The martingale-ergodic sup pass weights each chunk by the point masses
    once and reads no bincount on a singletons stage."""

    @pytest.mark.parametrize("rows_per_chunk", (None, 1))
    def test_three_bincounts_per_chunk_on_four_stages_from_singletons(self, rows_per_chunk,
                                                                      monkeypatch):
        sp = uniform_space(12)
        t = Endomorphism(sp, [(i + 1) % 4 + 4 * (i // 4) for i in range(12)])  # order 4
        mixed = Partition(sp, [0, 0, 1, 2, 2, 3, 4, 4, 5, 5, 5, 6])
        filt = Filtration(sp, DECREASING, (Partition.singletons(sp), mixed,
                                           Partition(sp, mixed.block_of // 3),
                                           Partition.whole(sp)))
        f = VectorObservable(sp, np.arange(24.0).reshape(12, 2) % 7)
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, f, t, filt)
        box = ineq._period_box(spec, default_box(spec))
        assert box.n_max == (4,)
        want = ineq._build_sup_field(spec, box).values  # builds the masses and bins
        if rows_per_chunk:
            monkeypatch.setattr(ineq, "_CHUNK_FLOATS", rows_per_chunk)
        chunks = 1 if rows_per_chunk is None else 4
        calls, real = [], np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or real(*a, **k))
        for _ in range(2):  # the count repeats exactly
            calls.clear()
            got = ineq._build_sup_field(spec, box).values
            assert len(calls) == 3 * chunks
            assert np.array_equal(got, want)


class TestPeriodClamp:
    """Past the stabilization period P no averaging length raises the sup, so
    the field over n <= P is the sup over every n."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_field_at_the_period_is_the_untruncated_sup(self, family):
        rng = np.random.default_rng(11)
        past_the_order = 0
        for seed in range(20):
            spec = random_process_instance(seed, family).spec
            periods = stabilization_periods(spec)
            past_the_order += any(p > o for p, o in zip(periods, spec.orbit_lcms()))
            stage_sets = default_box(spec).stage_sets
            field = sup_field(spec, SupBox(periods, stage_sets)).values[:, 0]
            tol = 1e-15 * field.max()
            for k in (2, 3):
                box = SupBox(tuple(k * p for p in periods), stage_sets)
                longer = ineq._build_sup_field(spec, box).values[:, 0]
                np.testing.assert_allclose(longer, field, rtol=1e-15, atol=tol)
            for _ in range(3):
                n_vec = tuple(int(rng.integers(1, 10 * p + 1)) for p in periods)
                for s_vec in itertools.product(*stage_sets):
                    value = point_norm_field(evaluate(spec, n_vec, s_vec), spec.norm)
                    assert np.all(value.values[:, 0] <= field * (1 + 1e-15) + tol)
        # weighted families reach the part of P that the weight period adds
        assert past_the_order > 0 or family.startswith("single")

    def test_irrational_frequency_keeps_its_axis(self):
        # 1/pi is read as irrational, so map 0 has no period and keeps n <= 12,
        # while map 1 (order 2, constant weights) is cut to n <= 2
        w = BesicovitchWeights(((0.7, 1 / math.pi, 0.3),))
        box = SupBox((12, 6), ((0, 1, 2),))
        for kind in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
            spec = ProcessSpec(kind, F1357, (CYC, power(CYC, 2)), (FILT3,), (w, None))
            assert spec.periods() == (None, 2)
            with pytest.raises(ValueError, match="irrational"):
                stabilization_periods(spec)
            field = sup_field(spec, box).values[:, 0]
            assert list(spec.sup_fields) == [SupBox((12, 2), ((0, 1, 2),))]
            want = np.zeros(4)
            for n_vec in itertools.product(range(1, 13), range(1, 7)):
                for s in (0, 1, 2):
                    vals = point_norm_field(evaluate(spec, n_vec, s)).values[:, 0]
                    want = np.maximum(want, vals)
            np.testing.assert_allclose(field, want, rtol=1e-12, atol=1e-12)


def _config_spec(name):
    return build_experiment(json.loads((CONFIGS / f"{name}.json").read_text())).spec


class TestPerPointHorizon:
    """Condition-then-average builds each point's outermost averaging axis
    only up to its horizon min(n_max_1, lcm(L_x, weight period)); its field
    is judged against the build that runs every point to n_max_1."""

    @staticmethod
    def _judge(spec, boxes):
        # the cut drops rows past each horizon: the field is a max over a
        # subset of the full build's floats, and those rows only repeat the
        # running sum's rounding, at most eps per added term
        me = spec.kind == MARTINGALE_ERGODIC
        scale = np.finfo(float).eps * spec.f.dim * np.abs(spec.f.values).max()
        for box in boxes:
            cut = ineq._period_box(spec, box)
            got = sup_field(spec, box).values[:, 0]
            want = oracle_sup_field_full_period(spec, cut)
            assert np.all(got <= want)
            assert np.all(want - got <= scale * cut.n_max[0])
            if me:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fields_within_the_full_period_build(self, family):
        for seed in range(40):
            spec = random_process_instance(seed, family).spec
            box = default_box(spec, n_factor=2 if spec.d_maps > 1 else 4)
            smalls = [shrink_box(box, factor) for factor in (0.5, 0.25)]
            sup_field(spec, box, smalls)
            self._judge(spec, [box, *smalls])

    def test_order_62832_field_within_the_full_period_build(self):
        spec = _config_spec("high_order_128")
        assert spec.orbit_lcms() == (62832,)
        box = default_box(spec)
        smalls = [shrink_box(box, factor) for factor in (0.5, 0.25)]
        sup_field(spec, box, smalls)
        self._judge(spec, [box, *smalls])

    @staticmethod
    def _point_rows(monkeypatch, spec, box, prefixes=()):
        """Rows times points of every stack the sup pass builds."""
        built, real = [], ineq.running_weighted_averages

        def spy(*args):
            out = real(*args)
            built.append(len(out) * out.shape[-2])
            return out

        monkeypatch.setattr(ineq, "running_weighted_averages", spy)
        sup_field(spec, box, prefixes)
        monkeypatch.undo()
        return sum(built)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_point_rows_stop_at_each_horizon(self, family, monkeypatch):
        # the inner axes and average-then-condition build n_max_j rows at
        # every point; the outer axis of condition-then-average sum_x H_x
        for seed in range(20):
            spec = random_process_instance(seed, family).spec
            box = default_box(spec, n_factor=2 if spec.d_maps > 1 else 4)
            smalls = [shrink_box(box, factor) for factor in (0.5, 0.25)]
            cut = ineq._period_box(spec, box)
            size = spec.space.size
            want = sum(_horizons(spec, cut.n_max[0])) + size * sum(cut.n_max[1:])
            if spec.kind == MARTINGALE_ERGODIC:
                assert want == size * sum(cut.n_max)
            assert self._point_rows(monkeypatch, spec, box, smalls) == want

    @pytest.mark.parametrize("name, rows", [("high_order_128", 5392),
                                            ("high_order_2048", 1948974)])
    def test_point_rows_of_the_high_order_maps(self, name, rows, monkeypatch):
        # sum_C L_C^2 rows against order * N = 8.0e6 and 3.4e14
        spec = _config_spec(name)
        assert sum(_horizons(spec, spec.orbit_lcms()[0])) == rows
        assert self._point_rows(monkeypatch, spec, default_box(spec)) == rows


class TestDominantCheck:
    def test_zero_observable(self):
        spec = me_spec(f=VectorObservable(SP4, [0, 0, 0, 0]))
        rep = dominant_check(spec, 2.0)
        assert rep.lhs == 0.0 and rep.satisfied

    def test_constant_selection_and_tag(self):
        rep = dominant_check(me_spec(), 2.0)
        assert rep.theorem_tag == "Thm2.4"
        assert rep.constant == pytest.approx(4.0)
        em = ProcessSpec.single(ERGODIC_MARTINGALE, F1357, CYC, FILT3)
        assert dominant_check(em, 2.0).theorem_tag == "Thm3.4"

    def test_weighted_tag_and_alpha(self):
        w = BesicovitchWeights.single_cosine(0.5, 1, 2)
        rep = dominant_check(me_spec(weights=w), 2.0)
        assert rep.theorem_tag == "Thm4.1"
        assert rep.alpha == pytest.approx(0.5)
        assert rep.constant == pytest.approx(0.5 * 4.0)

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError):
            dominant_check(me_spec(), 1.0)

    def test_increasing_filtration_rejected_for_me(self):
        filt = Filtration(SP4, INCREASING,
                          (Partition.whole(SP4), PAIRS, Partition.singletons(SP4)))
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, F1357, CYC, filt)
        with pytest.raises(ValueError, match="decreasing"):
            dominant_check(spec, 2.0)
        # unrestricted for the ergodic-martingale kind
        em = ProcessSpec.single(ERGODIC_MARTINGALE, F1357, CYC, filt)
        assert dominant_check(em, 2.0).satisfied

    def test_scaling_covariance(self):
        base = dominant_check(me_spec(), 2.0)
        scaled = dominant_check(me_spec(f=3.0 * F1357), 2.0)
        assert scaled.lhs == pytest.approx(3.0 * base.lhs, rel=1e-12)
        assert scaled.rhs == pytest.approx(3.0 * base.rhs, rel=1e-12)

    def test_truncation_monotonicity(self):
        spec = me_spec()
        box = default_box(spec)
        full = dominant_check(spec, 2.0, box)
        for factor in (0.5, 0.25):
            small = dominant_check(spec, 2.0, shrink_box(box, factor))
            assert small.satisfied
            assert small.lhs <= full.lhs + 1e-12

    def test_report_margin_consistency(self):
        rep = dominant_check(me_spec(), 3.0)
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs)
        assert rep.satisfied == (rep.lhs <= rep.rhs + 1e-12)


class TestMaximalCheck:
    def test_epsilon_beyond_sup_gives_zero(self):
        spec = me_spec()
        top = linf_norm(sup_field(spec))
        rep = epsilon_sweep(spec, 2.0, [top * 1.01])[0]
        assert rep.lhs == 0.0 and rep.satisfied

    def test_tiny_epsilon_bounded_by_total_mass(self):
        rep = epsilon_sweep(me_spec(), 2.0, [1e-9])[0]
        assert rep.lhs <= SP4.total_mass

    def test_sweep_monotone(self):
        spec = me_spec()
        reps = epsilon_sweep(spec, 2.0, np.geomspace(0.1, 10.0, 8))
        lhs = [r.lhs for r in reps]
        assert all(b <= a + 1e-15 for a, b in zip(lhs, lhs[1:]))
        assert all(r.satisfied for r in reps)

    def test_scaling_covariance(self):
        c = 2.0
        eps = 3.0
        base = epsilon_sweep(me_spec(), 2.0, [eps])[0]
        scaled = epsilon_sweep(me_spec(f=c * F1357), 2.0, [eps * c])[0]
        assert scaled.lhs == pytest.approx(base.lhs)
        assert scaled.rhs == pytest.approx(c**2 * base.rhs / c**2)

    def test_multi_em_has_no_maximal_bound(self):
        spec = ProcessSpec(ERGODIC_MARTINGALE, F1357, (CYC, power(CYC, 2)), (FILT3,),
                           (None, None))
        with pytest.raises(ValueError, match="maximal"):
            epsilon_sweep(spec, 2.0, [1.0])

    def test_grid_must_ascend_and_be_positive(self):
        with pytest.raises(ValueError):
            epsilon_sweep(me_spec(), 2.0, [2.0, 1.0])
        with pytest.raises(ValueError):
            epsilon_sweep(me_spec(), 2.0, [-1.0, 1.0])


class TestOrlicz:
    def test_report_fields(self):
        rep = orlicz_class_report(me_spec(), 1)
        assert rep.both_finite
        assert rep.input_functional == pytest.approx(llog_norm(F1357, 3))
        assert rep.sup_functional >= 0.0

    def test_m_zero_matches_l1_of_sup(self):
        spec = me_spec()
        rep = orlicz_class_report(spec, 0)
        assert rep.input_functional == pytest.approx(llog_norm(F1357, 2))


def test_mini_fuzz_all_families_clean():
    rep = run_inequality_fuzz(budget=120, seed=12345)
    assert rep.ok, rep.failure_lines()
    for fam, st in rep.stats.items():
        if st.instances:
            assert st.max_dominant_ratio <= 1.0
            assert st.max_maximal_ratio <= 1.0


def test_fuzz_detects_violations_when_constant_shrunk(monkeypatch):
    # sanity check that the corpus is not vacuous: a 20x smaller constant
    # must produce violations
    import ergmart.inequalities as ineq
    orig = ineq.dominant_constant
    monkeypatch.setattr(ineq, "dominant_constant",
                        lambda *a, **k: orig(*a, **k) / 20.0)
    rep = run_inequality_fuzz(budget=60, seed=3)
    assert not rep.ok
