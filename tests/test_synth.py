import numpy as np
import pytest

from retvol import errors
from retvol.crosscorr import cross_correlation
from retvol.fitting import compare_models, fit_exponential, fit_power_law
from retvol.jackknife import JackknifeConfig, jackknife_sigma
from retvol.returns import abs_power, standardize
from retvol.sampling import resample
from retvol.synth import (GarchSpec, gen_asym_garch, gen_iid_gaussian,
                          gen_profile_series, ticks_from_returns,
                          _garch_recursion)


def cc2_lag1(series):
    nr = standardize(series)
    return cross_correlation(nr, abs_power(nr, 2.0), 1)


def test_iid_deterministic_and_seeded():
    a = gen_iid_gaussian(10000, seed=3)
    b = gen_iid_gaussian(10000, seed=3)
    c = gen_iid_gaussian(10000, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ValueError):
        gen_iid_gaussian(50, seed=1)


def test_iid_mean_within_clt_bound():
    r = gen_iid_gaussian(10**6, seed=9)
    assert abs(r.values.mean()) < 5.0 / np.sqrt(10**6)


@pytest.mark.parametrize("args,message", [
    (("power_law", (0.2, 0.6), [0, 1, 2], 0.01), "lags must be positive"),
    (("power_law", (0.2, 0.6), [1, 2], [0.01, 0.0]), "sigma must be positive"),
    (("cubic", (0.2, 0.6), [1, 2], 0.01), "unknown profile model"),
], ids=["zero_lag", "zero_sigma", "unknown_model"])
def test_bad_profile_series_argument_is_a_typed_error(args, message):
    with pytest.raises(errors.ConfigInvalid, match=message) as info:
        gen_profile_series(*args)
    assert isinstance(info.value, ValueError)


def test_garch_spec_validation():
    with pytest.raises(errors.NonStationarySpec):
        GarchSpec(omega=0.05, a_arch=0.1, b_garch=0.9, leverage=0.1,
                  n=1000, seed=1)
    with pytest.raises(errors.NonStationarySpec):
        GarchSpec(omega=-0.1, a_arch=0.1, b_garch=0.5, leverage=0.0,
                  n=1000, seed=1)
    with pytest.raises(errors.NonStationarySpec):
        GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.5, leverage=-0.2,
                  n=1000, seed=1)
    spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                     n=1000, seed=1)
    assert spec.persistence == pytest.approx(0.95)
    assert spec.burn_in == 200
    assert spec.unconditional_variance == pytest.approx(1.0)


def test_garch_deterministic():
    spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                     n=5000, seed=42)
    a = gen_asym_garch(spec)
    b = gen_asym_garch(spec)
    assert np.array_equal(a.values, b.values)
    assert len(a) == 5000


def test_positive_leverage_negative_cc():
    spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                     n=200_000, seed=7)
    series = gen_asym_garch(spec)
    cc = cc2_lag1(series)
    nr = standardize(series)
    sigma = jackknife_sigma(nr, 2.0, [1], JackknifeConfig(100))[0]
    assert cc < 0
    assert abs(cc) > 3 * sigma


def test_zero_leverage_consistent_with_zero():
    for seed in (11, 12):
        spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.0,
                         n=200_000, seed=seed)
        series = gen_asym_garch(spec)
        cc = cc2_lag1(series)
        nr = standardize(series)
        sigma = jackknife_sigma(nr, 2.0, [1], JackknifeConfig(100))[0]
        assert abs(cc) < 3 * sigma


def test_negated_shocks_flip_cc_exactly_when_symmetric():
    # symmetric recursion: mirrored shocks give the mirrored series
    from retvol.rng import standard_normals
    z = standard_normals(5, 50000)
    eps = _garch_recursion(z, 0.05, 0.10, 0.85, 0.0, 1.0)
    eps_neg = _garch_recursion(-z, 0.05, 0.10, 0.85, 0.0, 1.0)
    assert np.array_equal(eps_neg, -eps)
    from retvol.returns import ReturnSeries
    mk = lambda e: ReturnSeries(e, 120, np.zeros(len(e), dtype=bool))
    assert cc2_lag1(mk(eps_neg)) == pytest.approx(-cc2_lag1(mk(eps)), abs=1e-15)


def test_mirrored_parameters_give_anti_leverage():
    # swapping the asymmetry to positive shocks flips the effect's sign
    n, seed = 300_000, 13
    lev = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                    n=n, seed=seed)
    anti = GarchSpec(omega=0.05, a_arch=0.15, b_garch=0.85, leverage=-0.10,
                     n=n, seed=seed)
    cc_lev = cc2_lag1(gen_asym_garch(lev))
    cc_anti = cc2_lag1(gen_asym_garch(anti))
    assert cc_lev < 0 < cc_anti
    assert abs(cc_lev + cc_anti) < 0.25 * abs(cc_lev)


def test_profile_series_noise_free_and_exponential_choice():
    pts = gen_profile_series("power_law", (0.2, 0.6), range(1, 101), 0.01,
                             noise_scale=0.0)
    fit = fit_power_law(pts, (1, 100))
    assert abs(fit.params[0] - 0.2) < 1e-10
    assert abs(fit.params[1] - 0.6) < 1e-10

    pts = gen_profile_series("exponential", (0.3, 50.0), range(1, 201), 0.002,
                             seed=21, noise_scale=1.0)
    comp = compare_models(fit_power_law(pts, (1, 200)),
                          fit_exponential(pts, (1, 200)))
    assert comp.winner == "exponential"


def test_profile_series_validation():
    with pytest.raises(ValueError):
        gen_profile_series("power_law", (0.2, 0.6), [0, 1, 2], 0.01)
    with pytest.raises(ValueError):
        gen_profile_series("cubic", (0.2, 0.6), [1, 2], 0.01)


def test_ticks_from_returns_resample_roundtrip():
    rets = gen_iid_gaussian(500, seed=31)
    rets.values *= 0.001
    ticks = ticks_from_returns(rets, t0=1_000_000, spacing=120, p0=250.0)
    assert len(ticks) == 501
    ps = resample(ticks, 120)
    assert np.array_equal(ps.prices, ticks.prices)
    assert not ps.gap_mask.any()
