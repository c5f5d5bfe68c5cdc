import math

import numpy as np
import pytest

from retvol import errors
from retvol.returns import (NormalizedReturns, ReturnSeries, abs_power,
                            apply_gap_policy, drop_gap_returns, log_returns,
                            standardize)
from retvol.sampling import PriceSeries


def prices_of(values, gap_mask=None):
    values = np.asarray(values, dtype=np.float64)
    if gap_mask is None:
        gap_mask = np.zeros(len(values), dtype=bool)
    return PriceSeries(120, 0, values, np.asarray(gap_mask))


def rets_of(values):
    values = np.asarray(values, dtype=np.float64)
    return ReturnSeries(values, 120, np.zeros(len(values), dtype=bool))


def test_log_identity():
    rs = log_returns(prices_of([1.0, math.e, math.e ** 2]))
    assert np.allclose(rs.values, [1.0, 1.0], rtol=0, atol=1e-15)


def test_ln_1_1():
    rs = log_returns(prices_of([100.0, 110.0]))
    assert abs(rs.values[0] - 0.09531017980432486) < 1e-12


def test_constant_prices_zero_returns():
    rs = log_returns(prices_of([5.0, 5.0, 5.0, 5.0]))
    assert np.array_equal(rs.values, np.zeros(3))


def test_price_scaling_invariance():
    rng = np.random.default_rng(2)
    p = np.exp(rng.normal(0, 0.5, 100))
    a = log_returns(prices_of(p))
    b = log_returns(prices_of(7.25 * p))
    assert np.allclose(a.values, b.values, rtol=0, atol=1e-12)


def test_standardize_123():
    out = standardize(rets_of([1.0, 2.0, 3.0]))
    assert np.array_equal(out.values, [-1.0, 0.0, 1.0])
    assert out.mean_raw == 2.0
    assert out.sigma_raw == 1.0


def test_standardize_constant_raises():
    with pytest.raises(errors.DegenerateVariance):
        standardize(rets_of([0.1] * 50))


def test_standardize_idempotent():
    rng = np.random.default_rng(3)
    first = standardize(rets_of(rng.normal(0.3, 2.0, 1000)))
    second = standardize(rets_of(first.values))
    assert np.allclose(second.values, first.values, rtol=0, atol=1e-12)


def test_standardize_output_moments():
    rng = np.random.default_rng(4)
    out = standardize(rets_of(rng.normal(5.0, 3.0, 10**6)))
    assert abs(out.values.mean()) < 1e-12
    assert abs(out.values.std(ddof=1) - 1.0) < 1e-12


def test_affine_invariance():
    rng = np.random.default_rng(5)
    raw = rng.normal(0, 1, 500)
    base = standardize(rets_of(raw)).values
    shifted = standardize(rets_of(3.5 * raw + 11.0)).values
    flipped = standardize(rets_of(-2.0 * raw + 1.0)).values
    assert np.allclose(shifted, base, rtol=0, atol=1e-12)
    assert np.allclose(flipped, -base, rtol=0, atol=1e-12)


def test_abs_power_basics():
    nr = NormalizedReturns(np.array([-1.0, 0.0, 1.0]), 0.0, 1.0)
    assert np.array_equal(abs_power(nr, 2.0), [1.0, 0.0, 1.0])
    nr4 = NormalizedReturns(np.array([-4.0]), 0.0, 1.0)
    assert np.array_equal(abs_power(nr4, 0.5), [2.0])


def test_abs_power_of_integers_is_float():
    # the in-place power once failed to cast back into an int array
    assert np.array_equal(abs_power(np.array([1, -2]), 2.0), [1.0, 4.0])
    assert np.array_equal(abs_power([1, -4], 0.5), [1.0, 2.0])


def test_abs_power_d1_is_abs():
    rng = np.random.default_rng(6)
    nr = NormalizedReturns(rng.normal(0, 1, 200), 0.0, 1.0)
    assert np.array_equal(abs_power(nr, 1.0), np.abs(nr.values))


def test_power_composition():
    rng = np.random.default_rng(7)
    nr = NormalizedReturns(rng.normal(0, 1, 200), 0.0, 1.0)
    once = abs_power(nr, 1.0)
    twice = abs_power(once, 2.0)
    direct = abs_power(nr, 2.0)
    assert np.array_equal(twice, direct)


def test_abs_power_zero_stays_zero():
    nr = NormalizedReturns(np.array([0.0, -0.0, 2.0]), 0.0, 1.0)
    for d in (0.1, 0.5, 1.7, 3.0):
        out = abs_power(nr, d)
        assert out[0] == 0.0 and out[1] == 0.0


def test_abs_power_rejects_nonpositive_d():
    nr = NormalizedReturns(np.array([1.0, -1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        abs_power(nr, 0.0)


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan])
def test_abs_power_bad_d_raises_config_invalid(d):
    nr = NormalizedReturns(np.array([1.0, -1.0]), 0.0, 1.0)
    with pytest.raises(errors.ConfigInvalid, match="power d must be > 0"):
        abs_power(nr, d)


def test_gap_mask_propagates_and_drops():
    prices = prices_of([1.0, 1.0, 2.0, 2.0], [False, True, False, True])
    rs = log_returns(prices)
    assert len(rs) == 3
    assert list(rs.source_gap_mask) == [True, False, True]
    # gap-originated returns are exact zeros under carry-forward
    assert rs.values[0] == 0.0 and rs.values[2] == 0.0
    dropped = apply_gap_policy(rs, "drop_interval")
    assert len(dropped) == 1
    assert dropped.values[0] == rs.values[1]

    kept = apply_gap_policy(log_returns(prices_of([1.0, 1.0, 2.0],
                                                  [False, True, False])))
    assert len(kept) == 2


def test_drop_gap_returns_explicit():
    rs = ReturnSeries(np.array([0.0, 0.5, 0.0]), 120,
                      np.array([True, False, True]))
    out = drop_gap_returns(rs)
    assert np.array_equal(out.values, [0.5])


def test_unknown_gap_policy_raises_config_invalid():
    rs = rets_of([0.1, -0.2, 0.3])
    assert apply_gap_policy(rs, "carry_forward") is rs
    with pytest.raises(errors.ConfigInvalid, match="unknown gap policy"):
        apply_gap_policy(rs, "nope")


@pytest.mark.parametrize("values,gap_mask,message", [
    ([1.0, 0.0, 2.0], [False, True, False], "prices must be positive"),
    ([1.0, 2.0, 3.0], [False, False], "gap_mask must align with prices"),
], ids=["zero_price", "short_gap_mask"])
def test_bad_price_series_is_a_typed_error(values, gap_mask, message):
    with pytest.raises(errors.InvalidPriceSeries, match=message) as info:
        prices_of(values, gap_mask)
    assert isinstance(info.value, ValueError)
