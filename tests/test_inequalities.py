import collections
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ergmart.fuzz as fuzz
import ergmart.inequalities as ineq
from ergmart.averages import BesicovitchWeights, composite_block_means, running_rows
from ergmart.config import build_experiment
from ergmart.fuzz import run_inequality_fuzz
from ergmart.generators import (FAMILIES, random_filtration, random_observable,
                                random_process_instance, random_weights)
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
from ergmart.measure import (DECREASING, INCREASING, Filtration, MeasureSpace, Partition,
                             uniform_space)
from ergmart.observables import (NormSpec, VectorObservable, linf_norm, llog_norm,
                                 point_norm_field, point_norms)
from ergmart.operators import Endomorphism, block_means, cycle_map, power
from ergmart.processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ProcessSpec,
    evaluate,
    stabilization_periods,
)
from ergmart.runner import execute_plan
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


def _kept(spec, family):
    """What the spec keeps under the tuple keys of one family, by their
    second entry: ("sup", box) gives box -> field."""
    return {key[1]: value for key, value in spec.kept.items()
            if isinstance(key, tuple) and key[0] == family}


def _family(key):
    """The family of a key that a spec keeps: a string key itself, or the
    first entry of a tuple key."""
    return key if isinstance(key, str) else key[0]


def _certificate(spec):
    """The keys of the spec's early-stop certificate."""
    return [key for key in spec.kept
            if _family(key) in ("points", "limit_bound", "bound", "period")]


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
    entry per stack entry. The outermost passes are the streams given a
    point subset; the inner axes are read whole over every point."""
    real_rows = ineq.running_rows
    passes, point_floats = [], []
    me = spec.kind == MARTINGALE_ERGODIC
    copies = math.prod(len(ss) for ss in box.stage_sets[1:]) if me else 1

    def spy(inner, t, alphas, rounds, rows, points=None):
        if points is None:
            yield from real_rows(inner, t, alphas, rounds, rows)
            return
        point_floats.append((inner.size * copies + inner.size // inner.shape[-1])
                            // inner.shape[-2])
        chunks = []
        passes.append((rounds[-1], {int(x) for x in points}, chunks))
        for start, chunk in real_rows(inner, t, alphas, rounds, rows, points):
            assert chunk.shape[-2] == len(points)
            chunks.append((start, len(chunk)))
            yield start, chunk

    monkeypatch.setattr(ineq, "running_rows", spy)
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

    def test_each_box_is_cut_once_per_fuzz_instance(self, monkeypatch):
        # the box and its two truncations; every check read them again, 1,970
        # cuts for the 200 instances
        cuts = []
        real_cut = ineq._period_box
        monkeypatch.setattr(ineq, "_period_box",
                            lambda *args: cuts.append(args) or real_cut(*args))
        assert run_inequality_fuzz(budget=200, seed=1).ok
        assert len(cuts) == len(set(cuts)) == 600

    def test_the_norm_of_f_once_per_fuzz_instance(self, monkeypatch):
        # each instance checks at one p; every check took |f|_p again, 198
        # of the 348 norms of a budget-50 run
        made, norms = [], []
        real_instance, real_norm = fuzz.random_process_instance, ineq.lp_norm
        monkeypatch.setattr(fuzz, "random_process_instance",
                            lambda *args: (lambda inst: made.append(inst.spec.f) or inst)(
                                real_instance(*args)))
        monkeypatch.setattr(ineq, "lp_norm",
                            lambda f, *args: norms.append(f) or real_norm(f, *args))
        assert run_inequality_fuzz(budget=50).ok
        own = [f for f in norms if any(f is g for g in made)]
        assert len(made) == len(own) == 50 and len(norms) == 200

    def test_a_box_that_is_not_a_prefix_is_refused(self):
        spec = me_spec()
        with pytest.raises(ValueError, match="prefix"):
            sup_field(spec, SupBox((4,), ((0, 1),)), [SupBox((4,), ((1,),))])
        assert not _kept(spec, "sup")

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
        assert not _kept(spec, "sup")

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


class TestKeptOnce:
    """Each value a spec keeps is built once for the life of the spec: a spy
    on ProcessSpec.keep counts the builds of every (spec, key)."""

    @staticmethod
    def _spy(monkeypatch) -> collections.Counter:
        builds, real = collections.Counter(), ProcessSpec.keep

        def keep(spec, key, build):
            # the spec itself in the key keeps it alive, so no two share one
            return real(spec, key, lambda: builds.update([(spec, key)]) or build())

        monkeypatch.setattr(ProcessSpec, "keep", keep)
        return builds

    @pytest.mark.parametrize("kind", (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE))
    @pytest.mark.parametrize("name", ("demo", "high_order_128", "two_maps_64",
                                      "high_order_2048"))
    def test_a_run_builds_each_kept_value_once(self, name, kind, tmp_path, monkeypatch):
        builds = self._spy(monkeypatch)
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        config["process"] = kind
        execute_plan(build_experiment(config), tmp_path)
        assert set(builds.values()) == {1}, [key for key, n in builds.items() if n > 1]
        # the certificate stops the one-map martingale-ergodic passes; past
        # _EXACT_ROWS point rows (high_order_2048) by the block periods, with
        # no limit bounds first
        certificate = {("high_order_128", MARTINGALE_ERGODIC): {"points", "limit_bound", "bound"},
                       ("high_order_2048", MARTINGALE_ERGODIC): {"points", "bound", "period"}}
        assert {_family(key) for _, key in builds} == {
            "periods", "kernel", "limit", "cut", "sup", "norm",
            *certificate.get((name, kind), ())}

    def test_the_fuzz_builds_each_kept_value_once(self, monkeypatch):
        builds = self._spy(monkeypatch)
        assert run_inequality_fuzz(budget=30).ok
        assert set(builds.values()) == {1}, [key for key, n in builds.items() if n > 1]
        # three boxes per instance, cut once each
        assert collections.Counter(_family(key) for _, key in builds) == {
            "periods": 30, "cut": 90, "sup": 30, "norm": 30}


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
            assert list(_kept(spec, "sup")) == [SupBox((12, 2), ((0, 1, 2),))]
            want = np.zeros(4)
            for n_vec in itertools.product(range(1, 13), range(1, 7)):
                for s in (0, 1, 2):
                    vals = point_norm_field(evaluate(spec, n_vec, s)).values[:, 0]
                    want = np.maximum(want, vals)
            np.testing.assert_allclose(field, want, rtol=1e-12, atol=1e-12)


def _config_spec(name, kind=None):
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    if kind is not None:
        config["process"] = kind
    return build_experiment(config).spec


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
        built, real = [], ineq.running_rows

        def spy(*args):
            for start, out in real(*args):
                built.append(len(out) * out.shape[-2])
                yield start, out

        monkeypatch.setattr(ineq, "running_rows", spy)
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


def _cycle_space(rng, lengths):
    """A space and a map of the given cycle type, its points shuffled, with
    a random mass constant on each cycle."""
    size = sum(lengths)
    points, perm = rng.permutation(size), np.empty(size, dtype=np.int64)
    masses, begin = np.empty(size), 0
    for length in lengths:
        cyc = points[begin:begin + length]
        perm[cyc] = np.roll(cyc, -1)
        masses[cyc] = rng.uniform(0.2, 2.0)
        begin += length
    space = MeasureSpace(masses / masses.sum())
    return space, Endomorphism(space, perm)


def _long_me_spec(seed):
    """One map and one filtration, martingale-ergodic, on about 50 points
    whose cycles of length 1 to 9 give periods up to 2,520: every dim, q,
    observable style and, half the time, random weights."""
    rng = np.random.default_rng(seed)
    lengths = []
    while sum(lengths) < 48:
        lengths.append(int(rng.choice((1, 2, 3, 4, 5, 7, 8, 9))))
    space, t = _cycle_space(rng, lengths)
    filt = random_filtration(rng, space, int(rng.integers(1, 5)))
    f = random_observable(rng, space, int(rng.integers(1, 5)),
                          str(rng.choice(("normal", "spiky", "mixed"))))
    w = random_weights(rng) if rng.random() < 0.5 else None
    q = float(rng.choice((1.0, 2.0, 3.0, math.inf)))
    return ProcessSpec.single(MARTINGALE_ERGODIC, f, t, filt, weights=w, norm=NormSpec(q))


def _order_840_spec(seed, weighted=True):
    """The shape of the benchmark's long orbit: 64 points in cycles of
    8, 7, 5 and 3 (order 840), four nested stages of 1, 4, 16 and 64 points,
    dim 2, and two cosine weights whose denominators divide 840."""
    rng = np.random.default_rng(seed)
    space, t = _cycle_space(rng, (8, 7, 5, 3) * 2 + (8, 7, 3))
    labels = rng.permutation(64)
    filt = Filtration(space, DECREASING,
                      tuple(Partition(space, labels // size) for size in (1, 4, 16, 64)))
    f = VectorObservable(space, rng.normal(size=(64, 2)))
    divisors = [d for d in range(2, 841) if 840 % d == 0]
    amp = rng.uniform(0.3, 0.7)
    terms = []
    for a in (amp, 1.0 - amp):
        den = int(rng.choice(divisors))
        num = int(rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1]))
        terms.append((a, Fraction(num, den), rng.uniform(0.0, 2.0 * math.pi)))
    w = BesicovitchWeights(tuple(terms)) if weighted else None
    return ProcessSpec.single(MARTINGALE_ERGODIC, f, t, filt, weights=w)


def _conditioned_rows(spec, box, prefixes=()):
    """sup_field over the box, and the outer rows of the pass: the rows of
    every chunk that the outermost conditioning reads, once for all its
    stages."""
    rows, real = [], ineq.composite_block_means
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ineq, "composite_block_means",
                      lambda chunk, *args: rows.append(len(chunk)) or real(chunk, *args))
        field = sup_field(spec, box, prefixes).values[:, 0]
    return field, sum(rows)


class TestCertifiedStop:
    """A martingale-ergodic pass of one map and one filtration reads its
    outer rows in rounds of 64, 128, 256, ... rows and stops after the first
    round that the certificate closes (inequalities._certified); its fields
    are those of the pass to the period, bit for bit."""

    def test_fields_equal_the_full_period_build(self, monkeypatch):
        stops = []
        for seed in range(40):
            spec = _long_me_spec(seed)
            box = default_box(spec)
            smalls = [shrink_box(box, factor) for factor in (0.5, 0.25)]
            _, rows = _conditioned_rows(spec, box, smalls)
            cut = ineq._period_box(spec, box)
            budget = ineq._chunk_rows(spec.f.values, spec.space.size, 1)
            assert rows == cut.n_max[0] or rows in ineq._rounds(spec, cut, budget)
            stops.append(rows < cut.n_max[0])
            for small in [box, *smalls]:
                want = oracle_sup_field_full_period(spec, ineq._period_box(spec, small))
                assert np.array_equal(sup_field(spec, small).values[:, 0], want)
        # a point whose sup is its limit, as on a fixed point, keeps the rest
        # running to the period
        assert sum(stops) >= 8

    def test_order_840_fields_stop_early_and_equal_the_full_period_build(self, monkeypatch):
        for seed in range(12):
            spec = _order_840_spec(seed)
            box = ineq._period_box(spec, default_box(spec))
            assert box.n_max == (840,)
            field, rows = _conditioned_rows(spec, box)
            assert rows in (64, 128, 256)
            assert np.array_equal(field, oracle_sup_field_full_period(spec, box))

    def test_the_period_closure_stays_within_the_rounding(self, monkeypatch):
        # past _EXACT_ROWS a block also closes once the rows reach H_B. The
        # field is then a max over a prefix of the full pass's rows, and in
        # real arithmetic no later row raises it, so it falls short of the
        # full pass's field by at most the rounding of two rows up to P, the
        # error model of _row_error (the largest gap seen is 0.7 % of that)
        monkeypatch.setattr(ineq, "_EXACT_ROWS", 0)
        stops = []
        specs = ([_long_me_spec(seed) for seed in range(40)]
                 + [_order_840_spec(seed, weighted) for seed in range(12)
                    for weighted in (False, True)])
        for spec in specs:
            box = ineq._period_box(spec, default_box(spec))
            field, rows = _conditioned_rows(spec, box)
            want = oracle_sup_field_full_period(spec, box)
            slope, offset = ineq._row_error(spec)
            assert np.all(want - field >= 0)
            assert np.all(want - field <= 2 * (slope * box.n_max[0] + offset))
            stops.append(rows < box.n_max[0])
        # the margin alone stops 21 of these 64
        assert sum(stops) >= 56

    @pytest.mark.parametrize("length, den, whole", [(60, 7, False), (2, 199, True)])
    def test_the_period_closure_waits_for_a_late_sup(self, length, den, whole, monkeypatch):
        # f is 1 on the last 10 points of one cycle (one point of a 2-cycle)
        # and 0 before, and the weights 1 - cos(2 pi i / den) start near 0.
        # On the single points of the 60-cycle a sup comes past row 64, and
        # H_B = lcm(60, 7); on the whole space of the 2-cycle, which cuts no
        # cycle, the rows are (W_n / n) E[f], largest at n = 141, and H_B is
        # the weight period 199. A block closed at the first round misses it.
        monkeypatch.setattr(ineq, "_EXACT_ROWS", 0)
        space = uniform_space(length)
        t = Endomorphism(space, np.roll(np.arange(length), -1))
        part = (Partition(space, np.zeros(length, dtype=np.int64)) if whole
                else Partition.singletons(space))
        f = VectorObservable(space, (np.arange(length) >= max(1, length - 10)).astype(float))
        w = BesicovitchWeights(((1.0, 0.0, 0.0), (1.0, Fraction(1, den), math.pi)))
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, f, t, Filtration(space, DECREASING, (part,)),
                                  weights=w)
        box = SupBox(spec.periods(), ((0,),))
        field, _ = _conditioned_rows(spec, box)
        assert np.array_equal(field, oracle_sup_field_full_period(spec, box))
        assert np.any(oracle_sup_field_full_period(spec, SupBox((64,), ((0,),))) < field)

    @pytest.mark.parametrize("past", (False, True))
    def test_only_a_pass_past_the_exact_rows_closes_at_its_period(self, past, monkeypatch):
        # every block's rows are one float at every n: 1 on cycles of 8, 7,
        # 5 and 3, 10 on a fixed point, so each sup is its limit and no
        # margin closes a block; the blocks are single points, whole cycles
        # and the space, so H_B <= 8 and the period closes every block at
        # the first round, but only for a pass of more than _EXACT_ROWS
        # point rows
        rng = np.random.default_rng(3)
        space, t = _cycle_space(rng, (1, 8, 7, 5, 3))
        lay = t.cycle_layout
        filt = Filtration(space, DECREASING, (
            Partition.singletons(space), Partition(space, lay.slot - lay.position),
            Partition(space, np.zeros(24, dtype=np.int64))))
        f = np.ones(24)
        f[lay.length_class == list(lay.distinct_lengths).index(1)] = 10.0
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, VectorObservable(space, f), t, filt)
        box = ineq._period_box(spec, default_box(spec))
        assert box.n_max == (840,)
        monkeypatch.setattr(ineq, "_EXACT_ROWS", 840 * 24 - past)
        field, rows = _conditioned_rows(spec, box)
        assert rows == (64 if past else 840)
        assert np.array_equal(field, oracle_sup_field_full_period(spec, box))
        assert field.max() == 10.0

    @pytest.mark.parametrize("name, most", [("high_order_128", 500), ("two_maps_64", None)])
    def test_config_fields_equal_the_full_period_build(self, name, most, monkeypatch):
        # two maps stay uncertified and read all 408 outer rows
        spec = _config_spec(name, MARTINGALE_ERGODIC)
        box = ineq._period_box(spec, default_box(spec))
        field, rows = _conditioned_rows(spec, box)
        assert rows <= most if most else rows == box.n_max[0] == 408
        assert np.array_equal(field, oracle_sup_field_full_period(spec, box))

    @pytest.mark.parametrize("rows_per_chunk, want", [
        (None, (64, 128, 256, 512, 840)), (48, (48, 96, 192, 384, 768, 840)),
        (200, (64, 128, 256, 456, 840)), (1000, (64, 128, 256, 512, 840))])
    def test_a_certified_pass_reads_rounds_after_the_certificate_classes(
            self, rows_per_chunk, want, monkeypatch):
        # the first pass is the rounds over the conditioned rows; it meets
        # the certificate at the end of its first round, whose classes of
        # points that share H_y stream f to H_y; past one chunk, each round
        # ends on a whole chunk
        spec = _order_840_spec(3)
        box = ineq._period_box(spec, default_box(spec))
        row_floats = 3 * spec.space.size  # dim 2 and the gather index
        budget = 2**62 if rows_per_chunk is None else rows_per_chunk * row_floats
        field, passes, point_floats = _build_in_chunks(monkeypatch, spec, box, budget)
        assert point_floats == 3
        (end, points, chunks), *certificate = passes
        rows = max(1, budget // (point_floats * 64))
        rounds = ineq._rounds(spec, box, rows)
        assert end == 840 and rounds == want
        assert points == set(range(64))
        starts = [start for start, _ in chunks]
        assert starts == [0] + [a + b for a, b in chunks[:-1]]
        stop = sum(rows for _, rows in chunks)
        assert stop in rounds[:-1]
        for start, count in chunks:
            # no chunk crosses a round end, and each fills the budget unless
            # it ends at one
            next_end = min(r for r in rounds if r > start)
            assert start + count == min(next_end, start + rows)
        horizons = ineq._horizons(spec)
        _assert_classes(certificate, horizons, budget, point_floats)
        for key in _certificate(spec):
            del spec.kept[key]
        assert np.array_equal(field, ineq._build_sup_field(spec, box).values)

    @pytest.mark.parametrize("case", ("irrational", "two filtrations", "two maps",
                                      "inside the first round"))
    def test_uncertified_passes_read_every_row(self, case, monkeypatch):
        rng = np.random.default_rng(7)
        space, t = _cycle_space(rng, (8, 7, 5, 3) * 2 + (8, 7, 3))
        filt = random_filtration(rng, space, 3)
        f = VectorObservable(space, rng.normal(size=(64, 2)))
        maps, filts, weights, end = (t,), (filt,), (None,), 840
        if case == "irrational":
            weights, end = (BesicovitchWeights(((0.7, 1 / math.pi, 0.3),)),), 200
        elif case == "two filtrations":
            filts = (filt, random_filtration(rng, space, 2))
        elif case == "two maps":
            maps, weights = (t, power(t, 3)), (None, None)
        else:
            end = 64
        spec = ProcessSpec(MARTINGALE_ERGODIC, f, maps, filts, weights)
        box = SupBox((end,) + (4,) * (len(maps) - 1),
                     tuple(tuple(range(len(fl.stages))) for fl in filts))
        assert ineq._period_box(spec, box) == box and ineq._rounds(spec, box, 1) == (end,)
        for budget in (2**62, 100 * 64 * 3):
            _, passes, point_floats = _build_in_chunks(monkeypatch, spec, box, budget)
            _assert_classes(passes, [end] * 64, budget, point_floats)
        assert not _certificate(spec)

    def test_weights_are_read_up_to_one_period(self, monkeypatch):
        # weight period 4 on cycles of 7, 8, 9 and 5: H_y is 28, 8, 36 or 20,
        # while P = 2,520; the checks, their passes and the certificate's
        # classes read one weight period
        rng = np.random.default_rng(11)
        space, t = _cycle_space(rng, (7, 8, 9, 5) * 4)
        filt = Filtration(space, DECREASING, (Partition.singletons(space),
                                               Partition(space, rng.permutation(116) // 4)))
        w = BesicovitchWeights(((0.6, Fraction(1, 4), 0.3),))
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, VectorObservable(
            space, rng.normal(size=(116, 2))), t, filt, weights=w)
        assert spec.periods() == (2520,)
        reads, real = [], BesicovitchWeights.values
        monkeypatch.setattr(BesicovitchWeights, "values",
                            lambda self, n: reads.append(n) or real(self, n))
        rows, real_means = [], ineq.composite_block_means
        monkeypatch.setattr(ineq, "composite_block_means",
                            lambda chunk, *args: rows.append(len(chunk))
                            or real_means(chunk, *args))
        dominant_check(spec, 2.0)
        epsilon_sweep(spec, 2.0, [0.5, 1.0])
        stop = sum(rows)
        assert stop < 2520
        assert ineq._horizons(spec).max() == 36
        assert max(reads) == w.period == 4

    def test_condition_first_reads_the_weights_once(self, monkeypatch):
        # the classes of an ergodic-martingale pass share one read of one
        # weight period, shorter than the longest class
        me = _order_840_spec(4)
        spec = ProcessSpec.single(ERGODIC_MARTINGALE, me.f, me.maps[0], me.filtrations[0],
                                  weights=me.weights[0])
        box = ineq._period_box(spec, default_box(spec))
        ends = np.minimum(ineq._horizons(spec), box.n_max[0])
        assert len(set(ends.tolist())) > 1
        reads, real = [], BesicovitchWeights.values
        monkeypatch.setattr(BesicovitchWeights, "values",
                            lambda self, n: reads.append(n) or real(self, n))
        sup_field(spec, box)
        assert ends.max() > spec.weights[0].period
        assert reads == [spec.weights[0].period]

    @pytest.mark.parametrize("weighted", (False, True))
    def test_the_block_bound_holds_at_every_row(self, weighted):
        # |E[A_n f | B] - E[l | B]|_q <= R_B / n for every n up to the period,
        # the rows read as the pass reads them; on single points the bound is
        # reached at the row where R_y is, and a block of whole cycles reaches
        # D_w |a_B|_q weighted; rounding stays inside the margin of _row_error
        for seed in range(6):
            spec = _order_840_spec(seed, weighted)
            w = spec.weights[0] if weighted else None
            ineq._point_bounds(spec, 840)
            slope, offset = ineq._row_error(spec)
            (_, rows), = running_rows(spec.f.values, spec.maps[0],
                                      None if w is None else w.values(840), (840,), 840)
            n = np.arange(1, 841)[:, None]
            for s in range(4):
                part = spec.filtrations[0].stages[s]
                _, limit, spread = ineq._stage_bound(spec, s)
                (_, means), = composite_block_means(rows, spec.filtrations, ((s,),))
                limit_means = block_means(spec.kept["points"][2], part)
                deviation = point_norms(means - limit_means, spec.norm.q)
                assert np.all(deviation <= spread / n + 2 * (slope * 840 + offset))
                if s == 0 or (weighted and s == 3):
                    assert np.allclose((n * deviation).max(axis=0), spread, rtol=1e-9)

    def test_cycles_inside_a_block_add_nothing_unweighted(self):
        # R_B only averages R_y over the cycles that B cuts: unweighted, the
        # whole space and any block of whole cycles have R_B = 0
        spec = _order_840_spec(2, weighted=False)
        ineq._point_bounds(spec, 840)
        _, _, spread = ineq._stage_bound(spec, 3)
        assert np.array_equal(spread, [0.0])
        lay = spec.maps[0].cycle_layout
        cycles = Partition(spec.space, lay.slot - lay.position)
        filt = Filtration(spec.space, DECREASING, (Partition.singletons(spec.space), cycles))
        spec = ProcessSpec.single(MARTINGALE_ERGODIC, spec.f, spec.maps[0], filt)
        ineq._point_bounds(spec, 840)
        assert not ineq._stage_bound(spec, 1)[2].any()
        assert ineq._stage_bound(spec, 0)[2].min() > 0

    def test_a_field_within_the_margin_is_not_certified(self):
        """The margin of _row_error is what stands between a bound on the
        exact rows and a stop that no computed row past it can undo.

        Error model, first order in the unit roundoff u and doubled: with
        K = max |a_i|, F = max |f|, N points and d components, a running
        average A_m of m terms is off by (m + 1) u K F per component (the
        products, the running sum and the division), a block mean adds
        (2N + 3) u K F, and the l^q norm of the d components moves by d times
        a componentwise error and is itself off by (d + 4) u d K F; so each
        row norm up to row n is off by at most 2 u K F d (n + 2N + d + 8).
        The margin adds that bound at the pass's last row and at the rows
        the certificate read, so a field that clears the exact-row bound by
        less is not certified, and one that clears it by more is."""
        spec = _order_840_spec(5)
        box = SupBox((840,), ((0, 1, 2, 3),))
        ineq._point_bounds(spec, 840)
        slope, offset = ineq._row_error(spec)
        margin = slope * (840 + 840) + 2 * offset
        assert margin == pytest.approx(2 * (2 * ineq._U * 2 * np.abs(spec.f.values).max()
                                            * spec.weights[0].sup_abs(840)
                                            * (840 + 2 * 64 + 2 + 8)), rel=1e-12)
        row = 64
        bound = np.zeros(64)
        for s in range(4):
            block_of, limit, spread = ineq._stage_bound(spec, s)
            bound = np.maximum(bound, ((limit + spread / row) * (1 + 4 * ineq._U))[block_of])
        assert not ineq._certified(spec, [box], [bound + margin / 2], row, 840)
        assert ineq._certified(spec, [box], [bound + 2 * margin], row, 840)
        # a box that ends by the row is done whatever its field
        assert ineq._certified(spec, [SupBox((64,), box.stage_sets)], [bound], row, 840)


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
        # no comparison with NaN holds, so a NaN level must not slip through
        for grid in ([float("nan")], [0.1, float("nan"), 0.05], [0.1, float("nan")],
                     [float("nan"), 1.0]):
            with pytest.raises(ValueError, match="positive"):
                epsilon_sweep(me_spec(), 2.0, grid)


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
