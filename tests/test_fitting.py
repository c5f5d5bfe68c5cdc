import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (oracle_decay_chi2, oracle_decay_fit, oracle_fit,
                     oracle_weighted_quadratic)
from retvol import errors
from retvol.crosscorr import CorrelationProfile, power_grid
from retvol.fitting import (FitPoints, compare_models,
                            fit_exponential, fit_points_from_profile,
                            fit_power_law, fit_quadratic_gamma,
                            long_range_flag)
from retvol.jackknife import JackknifeConfig, sweep_with_sigmas
from retvol.returns import standardize
from retvol.synth import GarchSpec, gen_asym_garch, gen_profile_series

DECAY_FITS = {"power_law": fit_power_law, "exponential": fit_exponential}


def exact_power_points(kappa=0.5, gamma=0.7, sigma=0.01, lo=1, hi=200):
    x = np.arange(lo, hi + 1, dtype=float)
    return FitPoints(x, kappa * x ** (-gamma), np.full(len(x), sigma))


def exact_exp_points(alpha=0.3, tau=15.0, sigma=0.01, lo=1, hi=200):
    x = np.arange(lo, hi + 1, dtype=float)
    return FitPoints(x, alpha * np.exp(-x / tau), np.full(len(x), sigma))


def test_power_law_exact_recovery():
    fit = fit_power_law(exact_power_points(), (1, 200))
    assert abs(fit.params[0] - 0.5) < 1e-8
    assert abs(fit.params[1] - 0.7) < 1e-8
    assert fit.reduced_chi2 < 1e-12
    assert fit.n_points == 200
    assert fit.excluded_x == []


def test_power_law_flat_data():
    x = np.arange(1.0, 101.0)
    fit = fit_power_law(FitPoints(x, np.full(100, 0.37), np.full(100, 0.01)),
                        (1, 100))
    assert abs(fit.params[1]) < 1e-8
    assert abs(fit.params[0] - 0.37) < 1e-8


def test_power_law_at_x_not_above_0_is_a_typed_error():
    # hand-built points: a profile only ever gives positive lags
    x = np.array([0.0, 1.0, 2.0, 3.0])
    points = FitPoints(x, np.full(4, 0.3), np.full(4, 0.01))
    with pytest.raises(errors.NonPositiveX,
                       match="power-law fit requires x > 0") as info:
        fit_power_law(points, (0, 3))
    assert isinstance(info.value, ValueError)


def test_exponential_exact_recovery():
    fit = fit_exponential(exact_exp_points(), (1, 200))
    assert abs(fit.params[0] - 0.3) < 1e-8
    assert abs(fit.params[1] - 15.0) < 1e-8
    assert fit.reduced_chi2 < 1e-12


def test_exponential_tau_positive_for_decreasing_data():
    x = np.arange(1.0, 40.0)
    y = 1.0 / (1.0 + x)  # decreasing but not exponential
    fit = fit_exponential(FitPoints(x, y, np.full(len(x), 0.01)), (1, 40))
    assert fit.params[1] > 0


def test_errors_are_sqrt_of_covariance_diagonal():
    pts = gen_profile_series("power_law", (0.4, 0.6), range(1, 151), 0.01,
                             seed=5, noise_scale=1.0)
    fit = fit_power_law(pts, (1, 150))
    assert np.allclose(fit.param_errors, np.sqrt(np.diag(fit.covariance)),
                       rtol=0, atol=0)
    eig = np.linalg.eigvalsh(fit.covariance)
    assert np.all(eig >= -1e-18)
    assert np.array_equal(fit.covariance, fit.covariance.T)


def test_sigma_rescaling_leaves_params_and_errors():
    pts = gen_profile_series("power_law", (0.4, 0.6), range(1, 151), 0.02,
                             seed=6, noise_scale=1.0)
    fit1 = fit_power_law(pts, (1, 150))
    scaled = FitPoints(pts.x, pts.y, 3.0 * pts.sigma)
    fit2 = fit_power_law(scaled, (1, 150))
    assert np.allclose(fit2.params, fit1.params, rtol=0, atol=1e-10)
    assert np.allclose(fit2.param_errors, fit1.param_errors, rtol=1e-8, atol=0)
    assert abs(fit2.reduced_chi2 - fit1.reduced_chi2 / 9.0) < 1e-12


def test_residuals_orthogonal_to_jacobian():
    pts = gen_profile_series("power_law", (0.5, 0.8), range(1, 201), 0.01,
                             seed=7, noise_scale=1.0)
    fit = fit_power_law(pts, (1, 200))
    kappa, gamma = fit.params
    used = pts.y > 0  # the chi^2 sum runs over the retained points
    x, y, w = pts.x[used], pts.y[used], 1.0 / pts.sigma[used]
    resid = (y - kappa * x ** (-gamma)) * w
    jac = np.column_stack((x ** (-gamma), -kappa * x ** (-gamma) * np.log(x)))
    jw = jac * w[:, None]
    grad = jw.T @ resid
    scale = np.linalg.norm(jw, axis=0) * np.linalg.norm(resid)
    assert np.all(np.abs(grad) <= 1e-6 * scale)


def test_x_rescaling_equivariance():
    pts = exact_power_points(0.8, 0.55, 0.005, 1, 120)
    s = 3.0
    fit1 = fit_power_law(pts, (1, 120))
    fit2 = fit_power_law(FitPoints(s * pts.x, pts.y, pts.sigma), (s, 120 * s))
    gamma = fit1.params[1]
    assert abs(fit2.params[1] - gamma) < 1e-8
    assert abs(fit2.params[0] - fit1.params[0] * s ** gamma) < 1e-8


def test_nonpositive_points_excluded_and_counted():
    x = np.arange(1.0, 21.0)
    y = 0.5 * x ** (-0.7)
    y[4] = 0.0
    y[9] = -0.3
    fit = fit_power_law(FitPoints(x, y, np.full(20, 0.01)), (1, 20))
    assert fit.n_points == 18
    assert sorted(fit.excluded_x) == [5.0, 10.0]
    assert abs(fit.params[1] - 0.7) < 1e-6


def test_nonpositive_data_error_when_too_few_remain():
    x = np.arange(1.0, 6.0)
    y = np.array([1.0, -1.0, -1.0, 2.0, -2.0])
    with pytest.raises(errors.NonPositiveData) as exc:
        fit_power_law(FitPoints(x, y, np.ones(5)), (1, 5))
    assert exc.value.excluded_x == [2.0, 3.0, 5.0]


def test_insufficient_points():
    pts = exact_power_points(lo=1, hi=5)
    with pytest.raises(errors.InsufficientPoints):
        fit_power_law(pts, (1, 2))


def test_compare_models_power_law_data():
    pts = gen_profile_series("power_law", (0.5, 0.7), range(1, 201), 0.005,
                             seed=8, noise_scale=1.0)
    pf = fit_power_law(pts, (1, 200))
    ef = fit_exponential(pts, (1, 200))
    comp = compare_models(pf, ef)
    assert comp.winner == "power_law"
    assert comp.chi2red_a < comp.chi2red_b


def test_compare_models_tie_and_mismatch():
    pf = fit_power_law(exact_power_points(), (1, 200))
    comp = compare_models(pf, pf)
    assert comp.inconclusive and comp.winner is None
    other = fit_power_law(exact_power_points(hi=150), (1, 150))
    with pytest.raises(errors.RangeMismatch):
        compare_models(pf, other)


def test_quadratic_recovers_reference_coefficients():
    # generating coefficients recovered to 1e-10 from exact points
    alpha, beta, rho = 0.0184, 0.0470, 0.5630
    d = np.round(np.arange(0.1, 3.01, 0.1), 10)
    y = alpha * d * d + beta * d + rho
    fit = fit_quadratic_gamma(FitPoints(d, y, np.full(len(d), 0.003)))
    assert abs(fit.params[0] - alpha) < 1e-10
    assert abs(fit.params[1] - beta) < 1e-10
    assert abs(fit.params[2] - rho) < 1e-10
    assert fit.reduced_chi2 < 1e-15


def test_quadratic_three_point_interpolation():
    x = np.array([0.5, 1.0, 2.0])
    y = 2.0 * x * x - 1.0 * x + 0.25
    fit = fit_quadratic_gamma(FitPoints(x, y, np.full(3, 1e-6)))
    assert np.allclose(fit.params, [2.0, -1.0, 0.25], rtol=0, atol=1e-9)
    assert fit.reduced_chi2 == 0.0
    with pytest.raises(errors.InsufficientPoints):
        fit_quadratic_gamma(FitPoints(x[:2], y[:2], np.full(2, 1e-6)))


def test_quadratic_matches_normal_equation_oracle():
    rng = np.random.default_rng(9)
    x = np.linspace(0.1, 3.0, 30)
    y = 0.02 * x * x + 0.05 * x + 0.56 + rng.normal(0, 0.01, 30)
    sigma = rng.uniform(0.005, 0.02, 30)
    fit = fit_quadratic_gamma(FitPoints(x, y, sigma))
    want = oracle_weighted_quadratic(x, y, sigma)
    assert np.max(np.abs(fit.params - want)) < 1e-10


def test_quadratic_singular_design():
    x = np.full(5, 1.0)  # all at the same d: rank-deficient design
    y = np.linspace(0.5, 0.6, 5)
    with pytest.raises(errors.SingularNormalMatrix):
        fit_quadratic_gamma(FitPoints(x, y, np.full(5, 0.01)))


def test_long_range_flag():
    lr = fit_power_law(exact_power_points(0.5, 0.6), (1, 200))
    sr = fit_power_law(exact_power_points(0.5, 1.5), (1, 200))
    assert long_range_flag(lr) is True
    assert long_range_flag(sr) is False
    quad = fit_quadratic_gamma(FitPoints(
        np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]), np.ones(3)))
    with pytest.raises(errors.WrongModel):
        long_range_flag(quad)


def test_exponential_fit_to_increasing_data_raises_with_last_result():
    # the best tau for increasing data is +infinity, past the search bracket
    x = np.arange(1.0, 21.0)
    pts = FitPoints(x, 0.1 + 0.01 * x, np.full(20, 0.01))
    with pytest.raises(errors.NoConvergence) as exc:
        fit_exponential(pts, (1, 20))
    last = exc.value.last_result
    assert last["params"][1] > 1e5
    assert last["chi2"] > 0 and last["iterations"] > 0
    assert fit_power_law(pts, (1, 20)).params[1] < 0


def test_fit_points_validation():
    with pytest.raises(errors.NonPositiveSigma):
        FitPoints(np.array([1.0]), np.array([1.0]), np.array([-1.0]))
    with pytest.raises(errors.NonPositiveSigma):
        FitPoints(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.1, 0.0]))
    with pytest.raises(ValueError):
        FitPoints(np.array([1.0, 2.0]), np.array([1.0]), np.array([0.1]))
    assert len(FitPoints([1, 2], [2, 1], [0.1, 0.2])) == 2


def test_fit_points_of_unequal_length_are_a_typed_error():
    with pytest.raises(errors.LengthMismatch,
                       match="x, y, sigma must have equal length") as info:
        FitPoints(np.array([1.0, 2.0]), np.array([1.0]), np.array([0.1]))
    assert isinstance(info.value, ValueError)


def test_fit_points_from_profile():
    lags = np.arange(-3, 4)
    values = np.array([0.01, 0.02, 0.03, -0.5, -0.4, -0.001, -0.2])
    sigmas = np.full(7, 0.05)
    prof = CorrelationProfile(2.0, lags, values, 1000 - np.abs(lags),
                              sigmas=sigmas)
    pts = fit_points_from_profile(prof, 1, 3)
    assert np.array_equal(pts.x, [1.0, 2.0, 3.0])
    assert np.array_equal(pts.y, [0.4, 0.001, 0.2])

    filtered = fit_points_from_profile(prof, 1, 3, sigma_filter=1.5)
    assert np.array_equal(filtered.x, [1.0, 3.0])

    bare = CorrelationProfile(2.0, lags, values, 1000 - np.abs(lags))
    with pytest.raises(errors.MissingSigmas):
        fit_points_from_profile(bare, 1, 3)


def test_zero_fit_filter_keeps_every_nonzero_cc_whatever_its_sigma():
    # 0 * inf is NaN: it warned, and the NaN comparison dropped lag 1
    lags = np.arange(-2, 5)
    values = np.array([0.1, 0.2, 0.3, -0.5, 0.0, -0.001, -0.2])
    sigmas = np.array([0.05, 0.05, 0.05, np.inf, 0.05, np.inf, 0.05])
    prof = CorrelationProfile(2.0, lags, values, 1000 - np.abs(lags),
                              sigmas=sigmas)
    pts = fit_points_from_profile(prof, 1, 4, sigma_filter=0.0)
    assert np.array_equal(pts.x, [1.0, 3.0, 4.0])
    assert np.array_equal(pts.sigma, [np.inf, np.inf, 0.05])
    assert np.array_equal(fit_points_from_profile(prof, 1, 4, 1.5).x, [4.0])


@pytest.fixture(scope="module")
def garch_points():
    """Fit input of every d from 10^5 GARCH returns, seeds 1-5: leverage
    0.10, lags +-200, B = 100, fit range 1-200."""
    out = {}
    for seed in range(1, 6):
        spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                         n=100_000, seed=seed)
        r = standardize(gen_asym_garch(spec))
        sweep = sweep_with_sigmas(r, power_grid(), -200, 200,
                                  cfg=JackknifeConfig(n_blocks=100), workers=2)
        out[seed] = [fit_points_from_profile(p, 1, 200) for p in sweep]
    return out


def assert_at_oracle_optimum(model, pts, fit_range):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        fit = DECAY_FITS[model](pts, fit_range)
    keep = (pts.x >= fit_range[0]) & (pts.x <= fit_range[1]) & (pts.y > 0)
    x, y, sigma = pts.x[keep], pts.y[keep], pts.sigma[keep]
    ours = oracle_decay_chi2(model, x, y, sigma, fit.params)
    _, best = oracle_fit(model, x, y, sigma, fit.params)
    assert ours <= best * (1 + 1e-12), (model, ours / best - 1)


@pytest.mark.parametrize("seed", range(1, 6))
def test_decay_fits_reach_oracle_chi2_on_garch_profiles(garch_points, seed):
    for pts in garch_points[seed]:
        for model in DECAY_FITS:
            assert_at_oracle_optimum(model, pts, (1, 200))


@pytest.mark.parametrize("model,params", [
    ("power_law", (0.5, 0.7)), ("power_law", (0.02, 1.4)),
    ("exponential", (0.3, 50.0)), ("exponential", (0.05, 4.0))])
def test_decay_fits_reach_oracle_chi2_on_generated_profiles(model, params):
    for seed in range(20):
        pts = gen_profile_series(model, params, range(1, 201), 0.002,
                                 seed=300 + seed, noise_scale=1.0)
        for fit_model in DECAY_FITS:
            assert_at_oracle_optimum(fit_model, pts, (1, 200))


def assert_brent_outcome(pts, fit_range=(1, 200)):
    """Each decay fit ends as the Brent-method reference does: with the
    same exception class, or with parameters, errors and reduced chi^2
    within 1e-10 relative."""
    for model, fit in DECAY_FITS.items():
        try:
            want = oracle_decay_fit(model, pts, fit_range)
        except errors.RetvolError as exc:
            with pytest.raises(errors.RetvolError) as info:
                fit(pts, fit_range)
            assert info.type is type(exc), (model, info.value, exc)
            continue
        got = fit(pts, fit_range)
        for ours, theirs in zip((got.params, got.param_errors,
                                 got.reduced_chi2), want):
            assert np.allclose(ours, theirs, rtol=1e-10, atol=0), model


@pytest.mark.parametrize("workload", ["garch_returns", "ticks_gz_dirty"])
def test_decay_fits_match_brent_reference_on_seeded_workloads(
        seed3_reports, workload):
    report = seed3_reports[workload]
    for prof in report.sweep.profiles:
        assert_brent_outcome(fit_points_from_profile(prof, 1, 200))
    failed = [(f["d"], f["model"], f["error"]) for f in report.failed_fits]
    # seed 3's dirty file: four exponential fits whose best tau lies on
    # the edge of the bracket
    assert failed == ([] if workload == "garch_returns" else [
        (d, "exponential", "NoConvergence") for d in (0.1, 0.2, 0.3, 0.8)])


@pytest.mark.parametrize("model,params", [
    ("power_law", (0.5, 0.7)), ("power_law", (0.02, 1.4)),
    ("exponential", (0.3, 50.0)), ("exponential", (0.05, 4.0))])
def test_decay_fits_match_brent_reference_on_generated_profiles(model,
                                                                params):
    for seed in range(20):
        assert_brent_outcome(gen_profile_series(
            model, params, range(1, 201), 0.002, seed=300 + seed,
            noise_scale=1.0))


def test_exponential_fits_on_seed_2_end_by_converging(garch_points):
    # a damped Gauss-Newton fitter returned 23 of these 30 fits at its
    # 200-iteration cap with no status; bisection alone would narrow the
    # search bracket to its tolerance in 46 evaluations
    for pts in garch_points[2]:
        assert fit_exponential(pts, (1, 200)).n_iterations < 60


def test_pipeline_imports_leave_scipy_unloaded():
    # numpy alone runs the analysis; scipy is a test-only dependency
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, retvol, retvol.cli, retvol.pipeline; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("model", sorted(DECAY_FITS))
def test_decay_fit_with_all_x_equal_raises_no_convergence(model):
    pts = FitPoints(np.full(5, 3.0), np.linspace(0.1, 0.2, 5), np.ones(5))
    with pytest.raises(errors.NoConvergence):
        DECAY_FITS[model](pts, (1, 5))


@pytest.mark.parametrize("x0", [1000.0, -1000.0])
def test_exponential_amplitude_past_float_range_raises_no_convergence(x0):
    # tau = 0.5 fits, but alpha = exp(x0 / 0.5) is not a positive float
    x = x0 + np.arange(11.0)
    pts = FitPoints(x, np.exp(-(x - x0) / 0.5), np.full(11, 0.01))
    with pytest.raises(errors.NoConvergence, match="amplitude"):
        fit_exponential(pts, (x0, x0 + 10))


def test_exponential_fit_resting_on_one_point_has_finite_errors():
    # tau ~ 0.01 leaves only the first point with weight, and the normal
    # matrix can invert to a negative variance instead of raising
    x = np.arange(1.0, 6.0)
    for decay in np.logspace(-30, -60, 31):
        pts = FitPoints(x, decay ** (x - 1.0), np.full(5, 1e-3))
        try:
            fit = fit_exponential(pts, (1, 5))
        except errors.NoConvergence:
            continue
        assert np.all(np.isfinite(fit.param_errors))
