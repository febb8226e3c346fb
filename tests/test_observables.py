import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergmart.measure import MeasureSpace, uniform_space
from ergmart.observables import (
    NormSpec,
    VectorObservable,
    integral,
    linf_norm,
    llog_norm,
    lp_norm,
    lp_of_norms,
    mean,
    point_norm_field,
    point_norms,
    row_norms,
)
from oracles import oracle_llog, oracle_lp_norm, oracle_point_norm, oracle_row_norms_steps

SP4 = uniform_space(4)
F1357 = VectorObservable(SP4, [1, 3, 5, 7])


def test_norm_spec_validation():
    NormSpec(1.0)
    NormSpec(math.inf)
    with pytest.raises(ValueError):
        NormSpec(0.5)


def test_point_norm_scalar_is_abs():
    f = VectorObservable(SP4, [1, -3, 5, -7])
    for q in (1.0, 2.0, math.inf):
        assert point_norm_field(f, NormSpec(q)).values[:, 0] == pytest.approx([1, 3, 5, 7])


def test_point_norm_euclidean_and_max():
    sp = uniform_space(2)
    f = VectorObservable(sp, [[3.0, 4.0], [0.0, 1.0]])
    assert point_norm_field(f, NormSpec(2.0)).values[:, 0] == pytest.approx([5.0, 1.0])
    assert point_norm_field(f, NormSpec(math.inf)).values[:, 0] == pytest.approx([4.0, 1.0])
    assert oracle_point_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)


def test_lp_norm_values():
    assert lp_norm(F1357, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert lp_norm(F1357, 2.0) == pytest.approx(math.sqrt(21.0), abs=1e-12)
    # direct quadrature oracle
    assert lp_norm(F1357, 2.0) == pytest.approx(
        oracle_lp_norm(SP4.weights, [[1], [3], [5], [7]], 2.0, 2.0), abs=1e-12)


def test_lp_norm_of_constant_is_abs_constant():
    sp = MeasureSpace([0.5, 0.3, 0.2])
    f = VectorObservable(sp, [-2.5, -2.5, -2.5])
    for p in (1.0, 1.7, 2.0, 3.0):
        assert lp_norm(f, p) == pytest.approx(2.5, abs=1e-12)


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm(F1357, 0.9)


def test_linf_norm():
    assert linf_norm(F1357) == 7.0
    assert linf_norm(VectorObservable(SP4, [0, 0, 0, 0])) == 0.0
    sp = uniform_space(2)
    f = VectorObservable(sp, [[3.0, 4.0], [0.0, 1.0]])
    assert linf_norm(f, NormSpec(2.0)) == pytest.approx(5.0)


def test_llog_m0_equals_l1():
    assert llog_norm(F1357, 0) == pytest.approx(lp_norm(F1357, 1.0), abs=1e-12)


def test_llog_of_ones_vanishes():
    f = VectorObservable(SP4, [1, 1, 1, 1])
    assert llog_norm(f, 1) == 0.0


def test_llog_m1_value():
    expected = (0.0 + 3 * math.log(3) + 5 * math.log(5) + 7 * math.log(7)) / 4
    assert llog_norm(F1357, 1) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(6.2411, abs=5e-5)
    assert llog_norm(F1357, 1) == pytest.approx(
        oracle_llog(SP4.weights, [[1], [3], [5], [7]], 1, 2.0), abs=1e-12)


def test_mean_and_integral():
    assert mean(F1357)[0] == pytest.approx(4.0, abs=1e-12)
    assert integral(F1357)[0] == pytest.approx(4.0, abs=1e-12)
    sp = MeasureSpace([2.0, 2.0])  # total mass 4: integral and mean differ
    f = VectorObservable(sp, [3.0, 5.0])
    assert integral(f)[0] == pytest.approx(16.0)
    assert mean(f)[0] == pytest.approx(4.0)


def test_mean_constant_and_linearity():
    sp = MeasureSpace([0.2, 0.5, 0.3])
    c = VectorObservable(sp, [[1.5, -2.0]] * 3)
    assert mean(c) == pytest.approx([1.5, -2.0])
    f = VectorObservable(sp, [[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    assert mean(-1.0 * f) == pytest.approx(-mean(f))


def test_observable_validation():
    with pytest.raises(ValueError):
        VectorObservable(SP4, [1, 2, 3])
    with pytest.raises(ValueError):
        VectorObservable(SP4, [1, 2, 3, float("inf")])


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(finite, min_size=2, max_size=12),
       st.floats(min_value=-8, max_value=8, allow_nan=False),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.sampled_from([1.0, 2.0, math.inf]))
def test_norm_properties(vals, c, p, q):
    sp = uniform_space(len(vals))
    f = VectorObservable(sp, vals)
    ns = NormSpec(q)
    # absolute homogeneity
    assert lp_norm(c * f, p, ns) == pytest.approx(abs(c) * lp_norm(f, p, ns),
                                                  rel=1e-12, abs=1e-12)
    # p-monotonicity on a probability space
    assert lp_norm(f, 1.0, ns) <= lp_norm(f, p, ns) + 1e-12
    # sup-norm bound
    assert lp_norm(f, p, ns) <= linf_norm(f, ns) * sp.total_mass ** (1 / p) + 1e-12
    # log functional sign and zero region
    assert llog_norm(f, 2, ns) >= 0.0
    if linf_norm(f, ns) <= 1.0:
        assert llog_norm(f, 3, ns) == 0.0


def _layouts(rng, lead, dim):
    """Random point values of shape lead + (dim,), C-contiguous, transposed
    (the last axis the slowest) and strided: magnitudes 1e-150 to 1e150 with
    random signs and about one exact zero in eight."""
    shape = lead + (dim,)
    mags = 10.0 ** rng.uniform(-150, 150, shape) * rng.choice((-1.0, 1.0), shape)
    vals = np.where(rng.random(shape) < 0.125, 0.0, mags)
    transposed = np.moveaxis(np.ascontiguousarray(np.moveaxis(vals, -1, 0)), 0, -1)
    wide = np.zeros(lead[:-1] + (2 * lead[-1], 3 * dim))
    wide[..., ::2, ::3] = vals
    return {"c": vals, "transposed": transposed, "strided": wide[..., ::2, ::3]}


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_row_norms_equal_the_reduction_bit_for_bit(q):
    # below 8 components the columns are added one by one, from 8 on the
    # reduction is kept: both must give the reduction's floats exactly
    rng = np.random.default_rng(97 if math.isinf(q) else int(q * 10))
    for dim in range(1, 13):
        for lead in ((40,), (3, 17)):
            for name, vals in _layouts(rng, lead, dim).items():
                with np.errstate(over="ignore"):
                    got, want = row_norms(vals, q), oracle_row_norms_steps(vals, q)
                assert got.shape == want.shape == lead
                assert np.ascontiguousarray(got).tobytes() == \
                    np.ascontiguousarray(want).tobytes(), (dim, lead, name)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 1000.0])
def test_point_norms_mend_overflow_and_underflow(q):
    # rows whose sum of powers overflows or underflows match the oracle on the
    # row divided by its largest |component|; every other row is row_norms'
    rng = np.random.default_rng(int(q))
    vals = rng.normal(size=(6, 5, 3))
    vals[0, 0] = [1.0, 1e200, -1e200]
    vals[1, 2] = [1e-200, -3e-201, 0.0]
    vals[2, 4] = [5.0, 1.0, 3.0]
    vals[3, 1] = 0.0
    vals[4, 3] = [1e-320, 0.0, 2e-320]
    with np.errstate(over="ignore", under="ignore"):
        raw = row_norms(vals, q)
    got = point_norms(vals, q)
    assert np.all(np.isfinite(got))
    for idx in np.ndindex(vals.shape[:-1]):
        row = vals[idx]
        top = float(np.abs(row).max())
        want = top * oracle_point_norm(row / top, q) if top > 0 else 0.0
        assert got[idx] == pytest.approx(want, rel=1e-12, abs=0.0), idx
        if 0.0 < raw[idx] < math.inf:
            assert got[idx] == raw[idx], idx
    assert got[3, 1] == 0.0 and got[0, 0] > 1e200 and got[1, 2] >= 1e-200


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 400.0])
def test_lp_of_norms_rows_match_one_row_calls_bit_for_bit(p):
    # every row of a stack, in any layout, gets the float of its own one-row
    # call, including the rows rescaled because their sum of powers leaves the
    # float range and the all-zero rows
    rng = np.random.default_rng(int(p))
    mu = MeasureSpace(rng.uniform(0.1, 1.0, 9)).weights
    for lead in ((1,), (12,), (3, 5)):
        for name, norms in _layouts(rng, lead, 9).items():
            norms = np.abs(norms)
            norms[(0,) * len(lead)] = 0.0
            got = lp_of_norms(norms, mu, p)
            assert got.shape == lead
            for idx in np.ndindex(lead):
                want = lp_of_norms(np.array(norms[idx]), mu, p)
                assert isinstance(want, float)
                assert got[idx] == want, (lead, name, idx)
