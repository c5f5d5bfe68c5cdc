import math

import numpy as np
import pytest

from oracles import oracle_cc
from retvol import errors
from retvol.crosscorr import (correlation_profile, cross_correlation,
                              power_grid, sweep_powers, _profile_values)
from retvol.jackknife import JackknifeConfig, jackknife_sigma, sweep_with_sigmas
from retvol.returns import NormalizedReturns, abs_power, standardize
from retvol.returns import ReturnSeries
from retvol.rng import standard_normals


def normalized(seed, n):
    return standardize(ReturnSeries(standard_normals(seed, n), 120,
                                    np.zeros(n, dtype=bool)))


def test_symmetric_configuration_is_exactly_zero():
    nr = standardize(ReturnSeries(np.array([1.0, 2.0, 3.0]), 120,
                                  np.zeros(3, dtype=bool)))
    assert np.array_equal(nr.values, [-1.0, 0.0, 1.0])
    # 10-pair minimum lifted by tiling the same symmetric pattern
    vals = np.tile([-1.0, 0.0, 1.0], 12)
    nr = NormalizedReturns(vals, 0.0, 1.0)
    got = cross_correlation(nr, abs_power(nr, 2.0), 0)
    assert got == 0.0


def test_constant_powered_series_degenerate():
    vals = np.tile([1.0, -1.0], 20)
    nr = NormalizedReturns(vals, 0.0, 1.0)
    with pytest.raises(errors.DegenerateVariance):
        cross_correlation(nr, abs_power(nr, 2.0), 1)


def test_powered_series_of_another_length_is_a_typed_error():
    nr, other = normalized(16, 50), normalized(17, 40)
    with pytest.raises(errors.LengthMismatch,
                       match="series length mismatch") as info:
        cross_correlation(nr, abs_power(other, 2.0), 1)
    assert isinstance(info.value, ValueError)


def test_constant_returns_degenerate():
    nr = NormalizedReturns(np.zeros(50), 0.0, 1.0)
    with pytest.raises(errors.DegenerateVariance):
        cross_correlation(nr, abs_power(NormalizedReturns(
            np.arange(50.0), 0.0, 1.0), 1.0), 0)


def test_matches_brute_force_oracle_seeded_case():
    nr = normalized(1234, 100)
    pw = abs_power(nr, 1.4)
    got = cross_correlation(nr, pw, 7)
    assert abs(got - oracle_cc(nr.values, 1.4, 7)) < 1e-12


@pytest.mark.parametrize("seed,n,d,j", [
    (5, 100, 0.5, 0), (6, 257, 2.0, -13), (7, 1000, 1.4, 7),
    (8, 4096, 3.0, 150), (9, 555, 0.1, -40), (10, 2000, 2.5, 199),
])
def test_matches_oracle_across_cases(seed, n, d, j):
    nr = normalized(seed, n)
    got = cross_correlation(nr, abs_power(nr, d), j)
    assert abs(got - oracle_cc(nr.values, d, j)) < 1e-12


def test_lag_out_of_range():
    nr = normalized(2, 100)
    pw = abs_power(nr, 2.0)
    with pytest.raises(errors.LagOutOfRange):
        cross_correlation(nr, pw, 95)  # only 5 pairs
    with pytest.raises(errors.LagOutOfRange):
        cross_correlation(nr, pw, -120)  # beyond the series


def test_profile_matches_single_lag_exactly():
    nr = normalized(3, 1000)
    prof = correlation_profile(nr, 2.0, -5, 5)
    assert len(prof) == 11
    assert np.array_equal(prof.lags, np.arange(-5, 6))
    pw = abs_power(nr, 2.0)
    for k, j in enumerate(prof.lags):
        assert prof.values[k] == cross_correlation(nr, pw, int(j))
    assert np.array_equal(prof.pair_counts, 1000 - np.abs(prof.lags))


def test_wide_profile_matches_single_lags_bit_for_bit():
    nr = normalized(4, 5000)
    for d in (0.3, 1.0, 2.7):
        prof = correlation_profile(nr, d, -200, 200)
        pw = abs_power(nr, d)
        single = [cross_correlation(nr, pw, int(j)) for j in prof.lags]
        assert np.array_equal(prof.values, single)


def test_wide_profile_matches_oracle_at_scale():
    nr = normalized(44, 30000)
    prof = correlation_profile(nr, 1.4, -200, 200)
    for j in (-200, -57, -3, 0, 5, 16, 133, 200):
        assert abs(prof.value_at(j) - oracle_cc(nr.values, 1.4, j)) < 1e-10


def test_sign_antisymmetry_is_exact():
    nr = normalized(11, 2000)
    neg = NormalizedReturns(-nr.values, 0.0, 1.0)
    for d in (0.5, 1.0, 2.0, 3.0):
        a = correlation_profile(nr, d, -20, 20)
        b = correlation_profile(NormalizedReturns(nr.values, 0.0, 1.0), d, -20, 20)
        assert np.array_equal(a.values, b.values)
        flipped = correlation_profile(neg, d, -20, 20)
        assert np.array_equal(a.values, -flipped.values)


def test_lag_zero_is_bounded_pearson():
    for seed in range(5):
        nr = normalized(100 + seed, 500)
        for d in (0.5, 1.0, 2.0):
            prof = correlation_profile(nr, d, -1, 1)
            assert abs(prof.value_at(0)) <= 1.0
            # and it is the plain Pearson correlation of the two series
            x, y = nr.values, abs_power(nr, d)
            pearson = np.corrcoef(x, y)[0, 1]
            assert abs(prof.value_at(0) - pearson) < 1e-12


def test_shuffle_destroys_structure():
    # volatility-clustered series has real structure; a shuffle kills it
    from retvol.synth import GarchSpec, gen_asym_garch
    spec = GarchSpec(omega=0.05, a_arch=0.1, b_garch=0.8, leverage=0.08,
                     n=50000, seed=21)
    nr = standardize(gen_asym_garch(spec))
    prof = correlation_profile(nr, 2.0, 0, 50)
    assert prof.value_at(1) < -5.0 / math.sqrt(len(nr))

    perm = np.random.default_rng(0).permutation(len(nr.values))
    shuffled = NormalizedReturns(nr.values[perm], 0.0, 1.0)
    sprof = correlation_profile(shuffled, 2.0, 0, 200)
    bound = 5.0 / math.sqrt(len(nr))
    inside = np.abs(sprof.values[sprof.lags >= 1]) < bound
    assert inside.mean() >= 0.99


def test_role_exchange_negates_lag():
    nr = normalized(31, 800)
    pv = abs_power(nr, 1.7)
    for j in (-9, -1, 0, 4, 11):
        a, _ = _profile_values(nr.values, pv, [j])
        b, _ = _profile_values(pv, nr.values, [-j])
        assert a[0] == b[0]


def test_power_grid_is_papers_grid():
    grid = power_grid()
    assert len(grid) == 30
    assert grid[0] == 0.1 and grid[-1] == 3.0
    assert np.allclose(np.diff(grid), 0.1, rtol=0, atol=1e-12)


def test_sweep_matches_profiles_and_is_deterministic():
    nr = normalized(12, 3000)
    grid = [0.5, 1.0, 2.0]
    sweep = sweep_powers(nr, grid, -10, 10)
    assert len(sweep.profiles) == 3
    lone = correlation_profile(nr, 1.0, -10, 10)
    assert np.array_equal(sweep.profile_for(1.0).values, lone.values)


def test_sweep_thirty_powers():
    nr = normalized(13, 2000)
    sweep = sweep_powers(nr, power_grid(), -5, 5)
    assert len(sweep.profiles) == 30


BAD_GRIDS = [([], -5, 5), ([0.5, 0.5], -5, 5), ([2.0, 1.0], -5, 5),
             ([-1.0, 2.0], -5, 5), ([1.0], 1, 5), ([1.0], -5.5, 5),
             ([1.0], -5, 5.5), ([1.0], -math.inf, 5), ([1.0], -5, math.nan)]


# the single-power calls take the first power and the lag bounds as lags
@pytest.mark.parametrize("sweep,bad", [
    (sweep_powers, BAD_GRIDS),
    (lambda *args: sweep_with_sigmas(*args, cfg=JackknifeConfig(5)),
     BAD_GRIDS),
    (lambda nr, grid, lo, hi: cross_correlation(nr, abs_power(nr, grid[0]),
                                                hi), [([1.0], 0, 1.7)]),
    (lambda nr, grid, lo, hi: jackknife_sigma(nr, grid[0], [lo, hi],
                                              JackknifeConfig(5)),
     [([1.0], 0, 1.7), ([1.0], -1.7, 0)]),
], ids=["sweep_powers", "sweep_with_sigmas", "cross_correlation",
        "jackknife_sigma"])
def test_sweep_rejects_bad_grids(sweep, bad):
    nr = normalized(14, 500)
    for grid, lo, hi in bad:
        with pytest.raises(errors.ConfigInvalid):
            sweep(nr, grid, lo, hi)
    with pytest.raises(errors.LagOutOfRange):
        sweep(nr, [1.0], -5, 495)


def test_profile_requires_zero_straddling_range():
    nr = normalized(15, 500)
    with pytest.raises(ValueError):
        correlation_profile(nr, 2.0, 1, 10)



@pytest.mark.parametrize("d", [300.0, 600.0])
def test_powered_series_without_a_finite_sigma_is_a_typed_error(d):
    # |r|^300 squares past the float range and |r|^600 is inf itself; the
    # CC values were +-0.0 or nan
    nr = normalized(16, 2000)
    with pytest.raises(errors.ConfigInvalid, match="--d-grid"):
        correlation_profile(nr, d, -2, 2)
