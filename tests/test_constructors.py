"""Every validating constructor's refusals, each pinned by its whole message,
and, where an input breaks several rules, by which check speaks first; plus
the exact identities the cheaper constructors and kernel builds rely on."""
import math
from fractions import Fraction

import numpy as np
import pytest

from ergmart.averages import BesicovitchWeights, CesaroKernel
from ergmart.generators import random_cycle_system, random_weights
from ergmart.measure import (
    _SMALL_N,
    DECREASING,
    INCREASING,
    Filtration,
    MeasureSpace,
    Partition,
    uniform_space,
)
from ergmart.observables import VectorObservable
from ergmart.operators import Endomorphism

INF, NAN = math.inf, math.nan
SP3 = uniform_space(3)
NOT_A_PERMUTATION = ("map is not a permutation; a measure-preserving map on a fully "
                     "supported finite space must be one")


def refused(message, make, *args):
    """`make(*args)` raises a ValueError whose message is exactly `message`."""
    with pytest.raises(ValueError) as err:
        make(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("weights, message", [
    ([], "a measure space needs at least one point"),
    ([1.0, NAN], "weights must be finite"),
    ([INF, 1.0], "weights must be finite"),
    ([INF, -INF], "weights must be finite"),
    ([-1.0, NAN], "weights must be finite"),  # finiteness is checked first
    ([0.0, 1.0], "weights must be strictly positive"),
    ([1.0, -2.0], "weights must be strictly positive"),
    ([-1e308, -1e308], "weights must be strictly positive"),  # before the sum
    ([1e308, 1e308, 1e308], "weights must have a finite sum"),
])
def test_measure_space_refusals(weights, message):
    refused(message, MeasureSpace, weights)


def test_measure_space_keeps_its_copy_and_the_pairwise_sum():
    weights = np.random.default_rng(0).uniform(0.1, 2.0, 1000)
    sp = MeasureSpace(weights)
    weights[0] = -1.0
    assert sp.weights[0] > 0 and not sp.weights.flags.writeable
    assert sp.total_mass == float(np.sum(sp.weights))


@pytest.mark.parametrize("labels, message", [
    ([0, 1], "block labeling must cover every point exactly once"),
    ([0.5, -1.0], "block labeling must cover every point exactly once"),  # length first
    ([0.5, 1.7, 0.2], "block labels must be integers, not float64"),
    ([0.0, 1.0, 0.0], "block labels must be integers, not float64"),
    (["0", "1", "0"], "block labels must be integers, not <U1"),
    ([True, False, True], "block labels must be integers, not bool"),
    ([-1.5, 0, 1], "block labels must be integers, not float64"),  # before the sign
    ([0, -1, 2], "block labels must be nonnegative"),
])
def test_partition_refusals(labels, message):
    refused(message, Partition, SP3, labels)


@pytest.mark.parametrize("blocks, message", [
    ([[0.5, 1], [2]], "point 0.5 is not an integer"),
    ([[True, 1], [2]], "point True is not an integer"),
    ([[0, 1], [2.0]], "point 2.0 is not an integer"),  # an integral float too
    ([[0, 1], [3]], "point 3 outside the space"),
])
def test_partition_from_blocks_refusals(blocks, message):
    refused(message, Partition.from_blocks, SP3, blocks)


def test_partition_from_blocks_accepts_numpy_integers():
    part = Partition.from_blocks(SP3, [np.array([2, 0], dtype=np.uint8), [np.int64(1)]])
    assert part.block_of.tolist() == [0, 1, 0]


def test_partition_accepts_every_integer_dtype():
    for dtype in (np.int8, np.int32, np.uint8, np.uint64, np.int64):
        part = Partition(SP3, np.array([4, 4, 2], dtype=dtype))
        assert part.block_of.dtype == np.int64 and part.block_of.tolist() == [0, 0, 1]


@pytest.mark.parametrize("images, message", [
    ([0, 1], "map must assign an image to every point"),
    ([0.5, 7], "map must assign an image to every point"),  # length first
    ([1.9, 2.2, 0.4], "map images must be integers, not float64"),
    ([1.0, 2.0, 0.0], "map images must be integers, not float64"),
    (["1", "2", "0"], "map images must be integers, not <U1"),
    ([3.5, 0, 0], "map images must be integers, not float64"),  # before the range
    ([1, 2, -1], "map images must be points of the space"),
    ([1, 2, 3], "map images must be points of the space"),
    ([0, 1, 2**62], "map images must be points of the space"),  # no table that large
    ([-1, 1, 1], "map images must be points of the space"),  # before the permutation
    ([1, 1, 0], NOT_A_PERMUTATION),
])
def test_endomorphism_refusals(images, message):
    refused(message, Endomorphism, SP3, images)


def test_endomorphism_mass_gap():
    refused("map does not preserve the measure (mass gap 1.000e+00)",
            Endomorphism, MeasureSpace([1.0, 2.0, 3.0]), [1, 0, 2])
    # relative to each mass, so masses far below 1 are compared too
    refused("map does not preserve the measure (mass gap 2.000e+00)",
            Endomorphism, MeasureSpace([1e-13, 3e-13]), [1, 0])
    # unequal masses within the tolerance are preserved
    tiny = 0.1 * (1 + 4 * np.finfo(float).eps)
    sp = MeasureSpace([0.1, tiny])
    assert sp.weights[0] != sp.weights[1]
    assert Endomorphism(sp, [1, 0]).map.tolist() == [1, 0]


def test_endomorphism_keeps_its_own_copy():
    images = np.array([2, 0, 1])
    t = Endomorphism(SP3, images)
    images[0] = 0
    assert t.map.tolist() == [2, 0, 1] and not t.map.flags.writeable


def test_filtration_refusals():
    fine, coarse = Partition.singletons(SP3), Partition(SP3, [0, 0, 1])
    other = Partition.singletons(uniform_space(4))
    refused("direction must be 'increasing' or 'decreasing'",
            Filtration, SP3, "sideways", ())
    refused("a filtration needs at least one stage", Filtration, SP3, DECREASING, ())
    refused("stage 1 lives on a different space",
            Filtration, SP3, DECREASING, (fine, other, fine))
    # every stage's space is checked before any monotonicity
    refused("stage 2 lives on a different space",
            Filtration, SP3, DECREASING, (coarse, fine, other))
    refused("stage 2 breaks decreasing monotonicity (first offending index 2)",
            Filtration, SP3, DECREASING, (fine, coarse, fine, coarse))
    refused("stage 1 breaks increasing monotonicity (first offending index 1)",
            Filtration, SP3, INCREASING, (fine, coarse))
    crossing = Partition(SP3, [0, 1, 1])
    refused("stage 1 breaks increasing monotonicity (first offending index 1)",
            Filtration, SP3, INCREASING, (coarse, crossing))


def test_vector_observable_refusals():
    refused("values must be an N x d array matching the space", VectorObservable, SP3, [1, 2])
    refused("values must be an N x d array matching the space",
            VectorObservable, SP3, np.zeros((3, 2, 1)))
    # the shape is checked before the values
    refused("values must be an N x d array matching the space",
            VectorObservable, SP3, [NAN, 1.0])
    refused("values must be finite", VectorObservable, SP3, [[1.0], [INF], [0.0]])
    refused("values must be finite", VectorObservable, SP3, [0.0, 1.0, NAN])


@pytest.mark.parametrize("terms, message", [
    ((), "at least one (amplitude, frequency, phase) term is required"),
    (((1.0, NAN, 0.0),), "amplitudes, frequencies and phases must be finite"),
    (((INF, 0.25, 0.0),), "amplitudes, frequencies and phases must be finite"),
    (((0.0, 1.5, INF),), "amplitudes, frequencies and phases must be finite"),  # first
    (((0.0, 0.25, 0.0), (0.0, 0.5, 1.0)), "at least one amplitude must be nonzero"),
    (((0.0, 1.5, 0.0),), "at least one amplitude must be nonzero"),  # before the range
    (((1.0, 1.0, 0.0),), "frequencies must lie in [0, 1)"),
    (((1.0, Fraction(-1, 3), 0.0),), "frequencies must lie in [0, 1)"),
    (((1.0, Fraction(1, 2**31 + 1), 0.0),), "frequency denominators must be at most 2**31"),
    (((1.0, Fraction(5, 4), 0.0), (1.0, Fraction(1, 2**32), 0.0)),
     "frequencies must lie in [0, 1)"),  # every range before any denominator
])
def test_weights_refusals(terms, message):
    refused(message, BesicovitchWeights, terms)


def _first_occurrence(labels):
    """The np.unique oracle: labels renumbered by first occurrence."""
    uniq, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inverse.reshape(-1)], uniq.size


@pytest.mark.parametrize("as_list", [False, True])
def test_partition_labels_equal_the_first_occurrence_oracle(as_list):
    # both sides of the small-N path, and dense labels (renumbered by a
    # table above it) and sparse ones (np.unique above it)
    rng = np.random.default_rng(int(as_list))
    sizes = (1, 2, 3, 7, _SMALL_N - 1, _SMALL_N, _SMALL_N + 1, 100, 257, 1024, 2048)
    for n in sizes:
        # the largest label just below 4 N, where the table stops, and at it
        for top in (1, max(1, n // 3), n, 4 * n, 4 * n + 1, 10**12):
            labels = rng.integers(0, top, n)
            labels[rng.integers(0, n)] = top - 1  # the largest label is present
            want, count = _first_occurrence(labels)
            part = Partition(uniform_space(n), labels.tolist() if as_list else labels)
            assert part.block_count == count, (n, top)
            assert part.block_of.dtype == np.int64 and not part.block_of.flags.writeable
            assert np.array_equal(part.block_of, want), (n, top)


def _weights_with_every_frequency_kind(rng):
    """Rational, irrational and zero frequencies, one weight sequence each."""
    yield random_weights(rng)
    yield BesicovitchWeights(((0.5, math.sqrt(2) - 1, 0.3), (-0.25, math.pi / 10, 1.0)))
    yield BesicovitchWeights(((0.7, 0.0, 0.2), (0.2, Fraction(5, 7), 0.0),
                              (0.1, math.e / 3, 2.0)))


def test_angles_at_gathered_steps_are_the_gathered_angles():
    # _angles is elementwise, so a weighted kernel reads a point's position
    # and cycle length off the one angle table of its layout's steps
    rng = np.random.default_rng(5)
    for w in _weights_with_every_frequency_kind(rng):
        for top in (8, 2**20, 2**40):
            steps = rng.integers(0, top, 5000)
            index = rng.integers(0, steps.size, 3000)
            assert w._angles(steps)[:, index].tobytes() == w._angles(steps[index]).tobytes()


@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3), (3, 1)])
def test_kernel_tables_are_c_contiguous_and_read_only(lead):
    # every kernel read runs numpy's fast loops and sums the term axis in
    # one order, so the tables' layout is part of the floats
    rng = np.random.default_rng(len(lead))
    for _ in range(6):
        _, t, _ = random_cycle_system(rng, n_max=int(rng.integers(2, 40)))
        values = rng.normal(size=lead + (t.space.size, int(rng.integers(1, 4))))
        for w in (None, *_weights_with_every_frequency_kind(rng)):
            kernel = CesaroKernel(values, t, w)
            tables = {name: table for name, table in vars(kernel).items()
                      if isinstance(table, np.ndarray)}
            assert len(tables) == (5 if w is None else 10)
            for name, table in tables.items():
                assert table.flags.c_contiguous and not table.flags.writeable, name
