import math
from types import SimpleNamespace

import numpy as np
import pytest

from ergmart.measure import MeasureSpace, Partition, uniform_space
from ergmart.observables import NormSpec, VectorObservable, linf_norm, lp_norm, mean, point_norm_field
from ergmart.operators import (
    Endomorphism,
    block_means,
    cond_expect,
    cycle_map,
    identity_map,
    koopman,
    power,
)
from oracles import (oracle_block_means_bincount, oracle_cond_expect, oracle_cycles,
                     oracle_koopman)

SP4 = uniform_space(4)
F1357 = VectorObservable(SP4, [1, 3, 5, 7])


class TestEndomorphism:
    def test_identity_and_cycle(self):
        assert identity_map(SP4).cycle_layout.order == 1
        assert cycle_map(SP4).cycle_layout.order == 4

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            Endomorphism(SP4, [0, 0, 1, 2])

    def test_rejects_measure_violation(self):
        sp = MeasureSpace([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="preserve"):
            Endomorphism(sp, [1, 0, 2, 3])  # swaps unequal masses

    def test_rejects_swap_of_tiny_unequal_masses(self):
        # the mass tolerance is relative, so masses far below 1 are compared too
        sp = MeasureSpace([1e-13, 3e-13])
        with pytest.raises(ValueError, match="preserve"):
            Endomorphism(sp, [1, 0])

    def test_accepts_orbit_constant_masses(self):
        sp = MeasureSpace([0.2, 0.2, 0.3, 0.3])
        t = Endomorphism(sp, [1, 0, 3, 2])
        assert t.cycle_layout.length.tolist() == [2, 2, 2, 2]

    def test_cycle_layout_matches_the_oracle_cycles(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 30):
            perm = rng.permutation(n).tolist()
            lay = Endomorphism(uniform_space(n), perm).cycle_layout
            orbits = oracle_cycles(perm)
            assert lay.order == math.lcm(*(len(c) for c in orbits))
            assert lay.distinct_lengths.tolist() == sorted({len(c) for c in orbits})
            # each cycle starts at its smallest point and is written twice
            assert [lay.flat[s:s + 2 * len(c)].tolist() for c, s in zip(
                orbits, np.flatnonzero(lay.step == 0))] == [c + c for c in orbits]
            for cyc in orbits:
                for j, x in enumerate(cyc):
                    assert (lay.length[x], lay.position[x]) == (len(cyc), j)
                    assert lay.flat[lay.slot[x]] == x

    def test_power(self):
        t = cycle_map(SP4)
        assert list(power(t, 2).map) == [2, 3, 0, 1]
        assert list(power(t, 0).map) == [0, 1, 2, 3]

    def test_power_matches_k_fold_composition(self):
        rng = np.random.default_rng(5)
        sp = uniform_space(9)
        t = Endomorphism(sp, rng.permutation(9))
        loop = np.arange(9)
        for k in range(20):
            assert np.array_equal(power(t, k).map, loop)
            loop = t.map[loop]

    def test_power_large_exponent_is_fast(self):
        # repeated squaring: one composition per bit and one per set bit,
        # counted as index arrays read through the map's own array type; a
        # step past the bound fails at once instead of running on
        k = 10**8
        bound, compositions = 2 * math.ceil(math.log2(k)), []

        class Counted(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, np.ndarray):
                    compositions.append(index)
                    assert len(compositions) <= bound
                return super().__getitem__(index)

        t = Endomorphism(uniform_space(7), [1, 2, 0, 4, 3, 6, 5])
        got = power(SimpleNamespace(space=t.space, map=t.map.view(Counted)), k)
        assert compositions
        # orders 3 and 2: 10**8 = 1 mod 3 and 0 mod 2
        assert list(got.map) == [1, 2, 0, 3, 4, 5, 6]


class TestKoopman:
    def test_identity(self):
        out = koopman(F1357, identity_map(SP4))
        assert out.values == pytest.approx(F1357.values)

    def test_cycle_shift(self):
        out = koopman(F1357, cycle_map(SP4))
        assert out.values[:, 0] == pytest.approx([3, 5, 7, 1])
        assert out.values.tolist() == oracle_koopman([[1], [3], [5], [7]], [1, 2, 3, 0])

    def test_composition_law(self):
        t = cycle_map(SP4)
        twice = koopman(koopman(F1357, t), t)
        assert twice.values[:, 0] == pytest.approx([5, 7, 1, 3])
        assert twice.values == pytest.approx(koopman(F1357, power(t, 2)).values)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            koopman(F1357, identity_map(uniform_space(5)))


class TestCondExpect:
    def test_pairs_block_average(self):
        p = Partition.from_blocks(SP4, [[0, 1], [2, 3]])
        out = cond_expect(F1357, p)
        assert out.values[:, 0] == pytest.approx([2, 2, 6, 6])
        assert out.values.tolist() == oracle_cond_expect(
            SP4.weights, p.block_of, [[1], [3], [5], [7]])

    def test_singletons_identity(self):
        out = cond_expect(F1357, Partition.singletons(SP4))
        assert out.values == pytest.approx(F1357.values)

    def test_whole_is_global_mean(self):
        out = cond_expect(F1357, Partition.whole(SP4))
        assert out.values[:, 0] == pytest.approx([4, 4, 4, 4])

    def test_weighted_blocks_match_oracle(self):
        rng = np.random.default_rng(5)
        sp = MeasureSpace(rng.uniform(0.1, 2.0, 12))
        f = VectorObservable(sp, rng.normal(0, 2, (12, 3)))
        part = Partition(sp, rng.integers(0, 4, 12))
        got = cond_expect(f, part)
        want = oracle_cond_expect(sp.weights, part.block_of, f.values.tolist())
        assert got.values == pytest.approx(np.asarray(want), abs=1e-12)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            cond_expect(F1357, Partition.singletons(uniform_space(5)))

    def test_stacked_block_means_equal_slice_by_slice(self):
        rng = np.random.default_rng(11)
        sp = MeasureSpace(rng.uniform(0.1, 2.0, 40))
        part = Partition(sp, rng.integers(0, 7, 40))
        stack = rng.normal(0, 3, (5, 40, 3))
        got = np.take(block_means(stack, part), part.block_of, axis=-2)
        for k in range(5):
            f = VectorObservable(sp, stack[k])
            want = cond_expect(f, part).values
            assert np.array_equal(got[k], want)
            # block sums accumulate in point order, as the sequential oracle does
            assert want.tolist() == oracle_cond_expect(sp.weights, part.block_of,
                                                       f.values.tolist())


def kernel_cases():
    """(space, partition) for N = 3, 7 and 48 (1/3, 1/7 and 1/48 are not
    binary fractions), uniform and random masses, and a singleton, a mixed
    (N // 2 single points and one block of the rest, shuffled) and a
    one-block partition."""
    rng = np.random.default_rng(17)
    for n in (3, 7, 48):
        for sp in (uniform_space(n), MeasureSpace(rng.uniform(0.1, 2.0, n))):
            mixed = Partition(sp, rng.permutation(np.minimum(np.arange(n), n // 2)))
            yield from ((sp, part) for part in (Partition.singletons(sp), mixed,
                                                Partition.whole(sp)))


class TestBlockMeansKernel:
    """block_means against the one-bincount-per-call kernel it replaced,
    bit for bit."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_every_partition_and_mass_is_the_bincount_float(self, lead):
        rng = np.random.default_rng(len(lead))
        for sp, part in kernel_cases():
            values = rng.normal(0, 3, lead + (sp.size, 2))
            values.flat[::5] = -0.0  # a zero that the singleton path keeps signed
            got = block_means(values, part)
            want = oracle_block_means_bincount(values, part)
            assert got.shape == want.shape == lead + (part.block_count, 2)
            assert np.array_equal(got, want)


class TestAlgebraicInvariants:
    def run_instance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        sp = MeasureSpace(rng.uniform(0.1, 1.5, n))
        f = VectorObservable(sp, rng.normal(0, 2, (n, int(rng.integers(1, 4)))))
        fine = Partition(sp, rng.integers(0, max(2, n // 2), n))
        coarse_map = rng.integers(0, 2, fine.block_count)
        coarse = Partition(sp, coarse_map[fine.block_of])
        ns = NormSpec(2.0)
        ef = cond_expect(f, fine)
        assert linf_norm(cond_expect(ef, fine) - ef, ns) <= 1e-12
        assert linf_norm(cond_expect(ef, coarse) - cond_expect(f, coarse), ns) <= 1e-12
        assert np.max(np.abs(mean(ef) - mean(f))) <= 1e-12
        for p in (1.0, 1.5, 2.0, 3.0):
            assert lp_norm(ef, p, ns) <= lp_norm(f, p, ns) + 1e-12
        dom = cond_expect(point_norm_field(f, ns), fine)
        assert np.max(point_norm_field(ef, ns).values - dom.values) <= 1e-12

    def test_many_instances(self):
        for seed in range(40):
            self.run_instance(seed)

    def test_koopman_isometry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            sp = uniform_space(n)
            t = Endomorphism(sp, rng.permutation(n))
            f = VectorObservable(sp, rng.normal(0, 3, (n, 2)))
            for p in (1.0, 2.0, 3.0):
                assert lp_norm(koopman(f, t), p) == pytest.approx(
                    lp_norm(f, p), rel=1e-12, abs=1e-12)


class TestOperatorLaws:
    def samples(self, dim=2):
        rng = np.random.default_rng(3)
        return [VectorObservable(SP4, rng.normal(0, 2, (4, dim))) for _ in range(5)]

    def test_koopman_commutes_with_the_point_norm(self):
        t = cycle_map(SP4)
        for f in self.samples():
            assert np.abs(point_norm_field(koopman(f, t)).values
                          - koopman(point_norm_field(f), t).values).max() <= 1e-15

    def test_cond_expect_dominates_the_point_norm(self):
        # |E f|_q <= E(|f|_q) pointwise, and E(|f|_q) is a nonnegative field
        # with the L1 norm of |f|_q
        p = Partition.from_blocks(SP4, [[0, 1], [2, 3]])
        for f in self.samples():
            norm_f = point_norm_field(f)
            dom = cond_expect(norm_f, p)
            assert np.all(point_norm_field(cond_expect(f, p)).values <= dom.values + 1e-12)
            assert dom.values.min() >= 0
            assert lp_norm(dom, 1.0) <= lp_norm(norm_f, 1.0) + 1e-12

    def test_koopman_keeps_l1(self):
        t = cycle_map(SP4)
        for f in self.samples():
            assert lp_norm(koopman(f, t), 1.0) == pytest.approx(lp_norm(f, 1.0), rel=1e-12)

    def test_cond_expect_contracts_l1_and_linf(self):
        p = Partition.from_blocks(SP4, [[0, 1], [2, 3]])
        for f in self.samples():
            ef = cond_expect(f, p)
            assert lp_norm(ef, 1.0) <= lp_norm(f, 1.0) + 1e-12
            assert linf_norm(ef) <= linf_norm(f) + 1e-12
