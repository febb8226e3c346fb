import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergmart.measure import (
    DECREASING,
    INCREASING,
    Filtration,
    Partition,
    make_space,
    partition_join,
    partition_meet,
    refines,
    uniform_space,
)
from oracles import oracle_join_blocks, oracle_meet_blocks, oracle_refines


def blocks_of(part):
    return sorted(sorted(int(i) for i in b) for b in part.blocks())


def test_make_space_uniform():
    sp = make_space([0.25, 0.25, 0.25, 0.25])
    assert sp.total_mass == pytest.approx(1.0)
    assert sp.size == 4


def test_make_space_single_point():
    sp = make_space([1.0])
    assert sp.total_mass == 1.0
    assert sp.size == 1


def test_make_space_total_is_sum_as_stored():
    weights = [0.1, 0.2, 0.3, 0.4]
    sp = make_space(weights)
    assert sp.total_mass == float(np.sum(sp.weights))
    assert sp.total_mass == pytest.approx(sum(weights))


@pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-1.0, 2.0], [1.0, float("nan")]])
def test_make_space_rejects(bad):
    with pytest.raises(ValueError):
        make_space(bad)


@pytest.mark.filterwarnings("error")  # the overflowing sum warns nothing
def test_make_space_rejects_masses_whose_sum_is_not_finite():
    with pytest.raises(ValueError, match="finite sum"):
        make_space([1e308, 1e308, 1e308])
    assert make_space([1e308, 7e307]).total_mass == 1e308 + 7e307


def test_space_equality(monkeypatch):
    sp = make_space([0.5, 0.25, 0.25])
    assert sp == make_space([0.5, 0.25, 0.25])
    assert sp != make_space([0.25, 0.5, 0.25]) and sp != uniform_space(4)
    assert sp != "space"
    compared = []
    real = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or real(a, b))
    assert sp == sp and not sp != sp
    assert compared == []  # an object equals itself without an array comparison
    assert sp == make_space([0.5, 0.25, 0.25]) and compared == [1]


def test_space_weights_immutable():
    sp = make_space([1.0, 2.0])
    with pytest.raises(ValueError):
        sp.weights[0] = 5.0


class TestPartition:
    def test_canonical_labels(self):
        sp = uniform_space(4)
        a = Partition(sp, [7, 7, 2, 2])
        b = Partition(sp, [0, 0, 1, 1])
        assert a == b
        assert a.block_count == 2

    def test_from_blocks_roundtrip(self):
        sp = uniform_space(4)
        p = Partition.from_blocks(sp, [[0, 1], [2, 3]])
        assert blocks_of(p) == [[0, 1], [2, 3]]

    def test_from_blocks_rejects_overlap_and_gap(self):
        sp = uniform_space(3)
        with pytest.raises(ValueError):
            Partition.from_blocks(sp, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            Partition.from_blocks(sp, [[0, 1]])

    def test_label_count_must_match(self):
        sp = uniform_space(3)
        with pytest.raises(ValueError):
            Partition(sp, [0, 1])

    def test_kept_tables_are_built_once_and_read_only(self):
        sp = make_space([1.0, 2.0, 3.0, 4.0])
        p = Partition(sp, [5, 5, 1, 5])
        assert p.block_masses is p.block_masses
        assert p.block_masses.tolist() == [7.0, 3.0]
        bins = p.bin_layout(2)
        assert p.bin_layout(2) is bins
        assert bins.tolist() == [0, 1, 0, 1, 2, 3, 0, 1]
        assert p.bin_layout(1).tolist() == [0, 0, 1, 0]
        for table in (p.block_masses, bins):
            with pytest.raises(ValueError):
                table[0] = 9


class TestRefines:
    def test_singletons_refine_everything(self):
        sp = uniform_space(4)
        assert refines(Partition.singletons(sp),
                       Partition.from_blocks(sp, [[0, 1], [2, 3]]))

    def test_crossing_pairs_do_not_refine(self):
        sp = uniform_space(4)
        pairs = Partition.from_blocks(sp, [[0, 1], [2, 3]])
        cross = Partition.from_blocks(sp, [[0, 2], [1, 3]])
        assert not refines(pairs, cross)
        # exhaustive containment oracle agrees
        assert not oracle_refines(pairs.block_of, cross.block_of)

    def test_reflexive(self):
        sp = uniform_space(5)
        p = Partition(sp, [0, 1, 0, 2, 1])
        assert refines(p, p)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            refines(Partition.singletons(uniform_space(3)),
                    Partition.singletons(uniform_space(4)))


class TestJoinMeet:
    def test_join_of_crossing_pairs_is_singletons(self):
        sp = uniform_space(4)
        a = Partition.from_blocks(sp, [[0, 1], [2, 3]])
        b = Partition.from_blocks(sp, [[0, 2], [1, 3]])
        j = partition_join(a, b)
        assert j == Partition.singletons(sp)
        assert blocks_of(j) == oracle_join_blocks(a.block_of, b.block_of)

    def test_meet_of_crossing_pairs_is_whole(self):
        sp = uniform_space(4)
        a = Partition.from_blocks(sp, [[0, 1], [2, 3]])
        b = Partition.from_blocks(sp, [[0, 2], [1, 3]])
        m = partition_meet(a, b)
        assert m == Partition.whole(sp)
        assert blocks_of(m) == oracle_meet_blocks(a.block_of, b.block_of)

    def test_join_idempotent(self):
        sp = uniform_space(6)
        p = Partition(sp, [0, 1, 1, 2, 0, 2])
        assert partition_join(p, p) == p
        assert partition_meet(p, p) == p


labels_strategy = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(labels_strategy, st.randoms(use_true_random=False))
def test_refines_partial_order_and_lattice(labels, rnd):
    n = len(labels)
    sp = uniform_space(n)
    a = Partition(sp, labels)
    b = Partition(sp, [rnd.randint(0, 3) for _ in range(n)])
    c = Partition(sp, [rnd.randint(0, 2) for _ in range(n)])
    assert refines(a, a)
    if refines(a, b) and refines(b, a):
        assert a == b
    if refines(a, b) and refines(b, c):
        assert refines(a, c)
    assert refines(a, b) == oracle_refines(a.block_of, b.block_of)
    j, m = partition_join(a, b), partition_meet(a, b)
    assert refines(j, a) and refines(j, b)
    assert refines(a, m) and refines(b, m)
    assert blocks_of(j) == oracle_join_blocks(a.block_of, b.block_of)
    assert blocks_of(m) == oracle_meet_blocks(a.block_of, b.block_of)


class TestFiltration:
    def setup_method(self):
        self.sp = uniform_space(4)
        self.fine = Partition.singletons(self.sp)
        self.pairs = Partition.from_blocks(self.sp, [[0, 1], [2, 3]])
        self.whole = Partition.whole(self.sp)

    def test_increasing_limit(self):
        f = Filtration(self.sp, INCREASING, (self.whole, self.pairs, self.fine))
        assert f.limit == self.fine

    def test_decreasing_limit(self):
        f = Filtration(self.sp, DECREASING, (self.fine, self.pairs, self.whole))
        assert f.limit == self.whole

    def test_single_stage(self):
        f = Filtration(self.sp, INCREASING, (self.pairs,))
        assert f.limit == self.pairs

    def test_monotonicity_violation_names_index(self):
        with pytest.raises(ValueError, match="index 2"):
            Filtration(self.sp, DECREASING, (self.fine, self.whole, self.pairs))

    def test_chain_refines_pairwise(self):
        f = Filtration(self.sp, DECREASING, (self.fine, self.pairs, self.whole))
        for k in range(len(f.stages) - 1):
            assert refines(f.stages[k], f.stages[k + 1])

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            Filtration(self.sp, "sideways", (self.fine,))
