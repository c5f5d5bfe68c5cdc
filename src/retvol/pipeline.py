"""End-to-end orchestration: ticks -> profiles -> errors -> fits -> report."""

import platform
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .crosscorr import (check_integers, check_sweep_grid, power_grid,
                        sweep_powers)
from .errors import (ConfigInvalid, InsufficientPoints, InvalidTicks,
                     LagOutOfRange, NoConvergence, NonPositiveData,
                     NonPositiveSigma, RetvolError)
from .fitting import (EXPONENTIAL, POWER_LAW, FitPoints, compare_models,
                      fit_exponential, fit_points_from_profile, fit_power_law,
                      fit_quadratic_gamma, long_range_flag)
from .ingest import deduplicate, read_tick_file
from .jackknife import JackknifeConfig, sweep_with_sigmas
from .report import AnalysisReport, write_report
from .returns import (apply_gap_policy, check_gap_policy, log_returns,
                      standardize)
from .sampling import CARRY_FORWARD, check_delta_t, resample


# a fit that fails this way leaves only that fit unavailable
_FIT_FAILURES = (InsufficientPoints, NonPositiveData, NonPositiveSigma,
                 NoConvergence)


@dataclass
class AnalysisConfig:
    """Analysis grid and settings; `workers` threads the CC and jackknife
    pass over powers and never changes a result. Each setting is checked
    here, delta_t, the gap policy, the d grid and the lags by the same
    checks `resample`, `apply_gap_policy` and every sweep run, and the
    jackknife block count only for being an integer (its range is checked
    after the series'); a bad one raises ConfigInvalid naming its flag."""

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

    def __post_init__(self):
        check_delta_t(self.delta_t)
        check_gap_policy(self.gap_policy)
        check_sweep_grid(self.d_grid, self.lag_min, self.lag_max)
        check_integers("fit range (--fit-range LO:HI)", self.fit_lo, self.fit_hi)
        check_integers("jackknife blocks (--jk-blocks)", self.jk_blocks)
        check_integers("workers (--workers)", self.workers)
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
    "jackknife": "delete-one-block, contiguous blocks of floor(N/B) or "
                 "ceil(N/B) points, full moment recomputation per deletion",
    "fit_errors": "asymptotic standard errors (covariance scaled by reduced chi2)",
}


def _failure(d, model, exc):
    """A failed fit's record: class, message, evaluations spent."""
    last = getattr(exc, "last_result", None) or {}
    return {"d": float(d), "model": model, "error": type(exc).__name__,
            "message": str(exc), "evaluations": int(last.get("iterations", 0))}


def _check_ticks(ticks):
    """InvalidTicks unless the columns have equal lengths, the timestamps
    never decrease and every price is finite and > 0. A parsed file
    always passes; a series built by hand may not."""
    t, p = ticks.timestamps, ticks.prices
    if not len(t) == len(p) == len(ticks.volumes):
        raise InvalidTicks(f"tick columns differ in length: {len(t)} "
                           f"timestamps, {len(p)} prices, "
                           f"{len(ticks.volumes)} volumes")
    down = np.flatnonzero(t[1:] < t[:-1])
    if len(down):
        raise InvalidTicks(f"timestamps must not decrease: row {down[0] + 1} "
                           f"is earlier than row {down[0]}")
    bad = np.flatnonzero(~(np.isfinite(p) & (p > 0)))
    if len(bad):
        raise InvalidTicks(f"prices must be finite and > 0: row {bad[0]} "
                           f"is {float(p[bad[0]])!r}")


def analyze_ticks(ticks, cfg=AnalysisConfig()):
    """Run the full analysis on a tick series; returns an AnalysisReport.

    Raises InvalidTicks for a series that is not sorted by timestamp or
    holds a price that is not finite and > 0."""
    _check_ticks(ticks)
    ticks = deduplicate(ticks)
    prices = resample(ticks, cfg.delta_t)
    rets = apply_gap_policy(log_returns(prices), cfg.gap_policy)
    r = standardize(rets)

    try:
        jk = JackknifeConfig(n_blocks=cfg.jk_blocks)
        sweep = sweep_with_sigmas(r, cfg.d_grid, cfg.lag_min, cfg.lag_max,
                                  cfg=jk, workers=cfg.workers)
    except (ConfigInvalid, LagOutOfRange):
        # cfg has passed the grid and lag-0 checks, so a full-series lag
        # range is reported first, then a constant series, then a block
        # count or a lag range that only the deletions rule out
        sweep_powers(r, cfg.d_grid, cfg.lag_min, cfg.lag_max)
        raise

    power_fits, exp_fits, comparisons, long_range, failed = {}, {}, {}, {}, []
    for prof in sweep.profiles:
        d = prof.d
        try:
            points = fit_points_from_profile(prof, cfg.fit_lo, cfg.fit_hi,
                                             sigma_filter=cfg.fit_filter)
            pf = fit_power_law(points, (cfg.fit_lo, cfg.fit_hi))
        except _FIT_FAILURES as exc:
            power_fits[d] = None
            failed.append(_failure(d, POWER_LAW, exc))
            continue
        power_fits[d] = pf
        long_range[d] = long_range_flag(pf)
        # a failed exponential fit drops only itself and the comparison
        try:
            ef = fit_exponential(points, (cfg.fit_lo, cfg.fit_hi))
        except _FIT_FAILURES as exc:
            failed.append(_failure(d, EXPONENTIAL, exc))
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
        "conventions": CONVENTIONS,
        "versions": {
            "retvol": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }

    return AnalysisReport(metadata, sweep, power_fits, exp_fits, comparisons,
                          quadratic_fit=quad, argmax_kappa_d=argmax,
                          long_range=long_range, failed_fits=failed)


def run_analysis(input_path, cfg, out_dir):
    """Read a tick CSV (plain or .gz), analyze, and write the report."""
    ticks = read_tick_file(input_path)
    report = analyze_ticks(ticks, cfg)
    return write_report(report, out_dir)
