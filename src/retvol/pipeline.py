"""End-to-end orchestration: ticks -> profiles -> errors -> fits -> report."""

import platform
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .crosscorr import power_grid, sweep_powers
from .errors import (ConfigInvalid, InsufficientPoints, LagOutOfRange,
                     NoConvergence, NonPositiveData, NonPositiveSigma,
                     RetvolError)
from .fitting import (FitPoints, compare_models, fit_exponential,
                      fit_points_from_profile, fit_power_law,
                      fit_quadratic_gamma, long_range_flag)
from .ingest import deduplicate, read_tick_file
from .jackknife import JackknifeConfig, sweep_with_sigmas
from .report import AnalysisReport, write_report
from .returns import apply_gap_policy, log_returns, standardize
from .sampling import CARRY_FORWARD, resample


# a fit that fails this way leaves only that fit unavailable
_FIT_FAILURES = (InsufficientPoints, NonPositiveData, NonPositiveSigma,
                 NoConvergence)


@dataclass
class AnalysisConfig:
    """Analysis grid and settings; `workers` threads the CC and jackknife
    pass over powers and never changes a result. A bad fit range, worker
    count or fit filter raises ConfigInvalid here."""

    delta_t: int = 120
    gap_policy: str = CARRY_FORWARD
    d_grid: list = field(default_factory=power_grid)
    lag_min: int = -200
    lag_max: int = 200
    fit_lo: int = 1
    fit_hi: int = 200
    jk_blocks: int = 100
    fit_filter: float | None = None
    workers: int = 1
    extra_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.fit_lo > self.fit_hi or self.fit_hi < 1:
            raise ConfigInvalid("fit range (--fit-range LO:HI) needs "
                                "LO <= HI and HI >= 1")
        if self.workers < 1:
            raise ConfigInvalid("workers (--workers) must be >= 1")
        s = self.fit_filter
        if s is not None and not (np.isfinite(s) and s >= 0):
            raise ConfigInvalid("fit filter (--fit-filter S) needs "
                                "0 <= S < inf")


CONVENTIONS = {
    "sampling": "previous tick; grid anchored at UTC-epoch multiples of delta_t",
    "daily_boundary": "UTC midnight",
    "duplicates": "exact duplicate records collapsed, first kept; "
                  "same-timestamp trades keep file order, last one samples",
    "standardization": "sample standard deviation (N-1 denominator)",
    "cross_correlation": "global full-series moments (population convention); "
                         "lag-j average over N-|j| pairs; positive lag puts "
                         "the powered series in the future of the return",
    "jackknife": "delete-one-block, contiguous equal blocks, full moment "
                 "recomputation per deletion",
    "fit_errors": "asymptotic standard errors (covariance scaled by reduced chi2)",
}


def analyze_ticks(ticks, cfg=AnalysisConfig()):
    """Run the full analysis on a tick series; returns an AnalysisReport."""
    ticks = deduplicate(ticks)
    prices = resample(ticks, cfg.delta_t, cfg.gap_policy)
    rets = apply_gap_policy(log_returns(prices))
    r = standardize(rets)

    try:
        jk = JackknifeConfig(n_blocks=cfg.jk_blocks)
        sweep = sweep_with_sigmas(r, cfg.d_grid, cfg.lag_min, cfg.lag_max,
                                  cfg=jk, workers=cfg.workers)
    except (ConfigInvalid, LagOutOfRange):
        # a bad grid or full-series lag range is reported first, then a
        # constant series, then a block count or a lag range that only
        # the deletions rule out
        sweep_powers(r, cfg.d_grid, cfg.lag_min, cfg.lag_max)
        raise

    power_fits, exp_fits, comparisons, long_range = {}, {}, {}, {}
    for prof in sweep.profiles:
        d = prof.d
        try:
            points = fit_points_from_profile(prof, cfg.fit_lo, cfg.fit_hi,
                                             sigma_filter=cfg.fit_filter)
            pf = fit_power_law(points, (cfg.fit_lo, cfg.fit_hi))
        except _FIT_FAILURES:
            power_fits[d] = None
            continue
        power_fits[d] = pf
        long_range[d] = long_range_flag(pf)
        # a failed exponential fit drops only itself and the comparison
        try:
            ef = fit_exponential(points, (cfg.fit_lo, cfg.fit_hi))
        except _FIT_FAILURES:
            continue
        exp_fits[d] = ef
        comparisons[d] = compare_models(pf, ef)

    quad = None
    usable = [(d, f) for d, f in sorted(power_fits.items()) if f is not None
              and f.param_errors[1] > 0]
    if len(usable) >= 3:
        gamma_points = FitPoints(
            np.array([d for d, _ in usable]),
            np.array([f.params[1] for _, f in usable]),
            np.array([f.param_errors[1] for _, f in usable]))
        try:
            quad = fit_quadratic_gamma(gamma_points)
        except RetvolError:
            quad = None

    argmax = None
    with_fits = [(d, f) for d, f in power_fits.items() if f is not None]
    if with_fits:
        argmax = float(max(with_fits, key=lambda item: item[1].params[0])[0])

    n_days = (int(ticks.timestamps[-1]) - int(ticks.timestamps[0])) / 86400.0
    metadata = {
        "source": ticks.source_label,
        "n_ticks": len(ticks),
        "n_skipped_lines": ticks.n_skipped,
        "span_unix": [int(ticks.timestamps[0]), int(ticks.timestamps[-1])],
        "span_days": round(n_days, 3),
        "delta_t": cfg.delta_t,
        "n_grid_points": len(prices),
        "gap_policy": cfg.gap_policy,
        "carried_forward_fraction": round(prices.gap_fraction, 6),
        "n_returns": len(r),
        "d_grid": [float(d) for d in cfg.d_grid],
        "lag_range": [cfg.lag_min, cfg.lag_max],
        "fit_range": [cfg.fit_lo, cfg.fit_hi],
        "fit_filter_sigma": cfg.fit_filter,
        "jackknife_blocks": cfg.jk_blocks,
        "seeds": {},
        "conventions": CONVENTIONS,
        "versions": {
            "retvol": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    metadata.update(cfg.extra_metadata)

    return AnalysisReport(metadata, sweep, power_fits, exp_fits, comparisons,
                          quadratic_fit=quad, argmax_kappa_d=argmax,
                          long_range=long_range)


def run_analysis(input_path, cfg, out_dir):
    """Read a tick CSV (plain or .gz), analyze, and write the report."""
    ticks = read_tick_file(input_path)
    report = analyze_ticks(ticks, cfg)
    return write_report(report, out_dir)
