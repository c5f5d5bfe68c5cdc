"""retvol: return-volatility cross-correlation analysis.

Quantifies return-volatility asymmetry (the leverage effect) in
high-frequency price data: the cross-correlation CC_d(j) between
normalized returns and the d-th power of absolute returns over a signed
lag grid, delete-one-block jackknife errors, power-law vs exponential
decay fits compared by reduced chi^2, and the quadratic exponent curve
gamma(d).
"""

__version__ = "0.1.0"

from . import errors
from .crosscorr import (CorrelationProfile, SweepResult, correlation_profile,
                        cross_correlation, power_grid, sweep_grid, sweep_powers)
from .fitting import (FitPoints, FitResult, ModelComparison, compare_models,
                      fit_exponential, fit_points_from_profile, fit_power_law,
                      fit_quadratic_gamma, long_range_flag)
from .ingest import (TickSeries, deduplicate, parse_tick_csv, read_tick_file,
                     serialize_tick_csv)
from .jackknife import JackknifeConfig, jackknife_sigma, sweep_with_sigmas
from .pipeline import AnalysisConfig, analyze_ticks, run_analysis
from .report import (AnalysisReport, emit_gamma_kappa_table, emit_profile_csv,
                     format_value_error, read_profile_csv, write_report)
from .returns import (NormalizedReturns, PoweredSeries, ReturnSeries,
                      abs_power, apply_gap_policy, drop_gap_returns,
                      log_returns, standardize)
from .sampling import PriceSeries, daily_close_series, resample
from .synth import (GarchSpec, gen_asym_garch, gen_iid_gaussian,
                    gen_profile_series, ticks_from_returns)
