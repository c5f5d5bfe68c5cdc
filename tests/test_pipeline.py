import numpy as np

from retvol import pipeline
from retvol.errors import NoConvergence
from retvol.ingest import TickSeries
from retvol.pipeline import AnalysisConfig, analyze_ticks
from retvol.report import write_report
from retvol.rng import standard_normals
from retvol.sampling import DROP_INTERVAL
from retvol.synth import GarchSpec, gen_asym_garch, ticks_from_returns


def garch_ticks(n=40_000, seed=9, spacing=120):
    spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                     n=n, seed=seed)
    rets = gen_asym_garch(spec)
    rets.values *= 0.002
    return ticks_from_returns(rets, spacing=spacing)


def small_cfg(**kw):
    base = dict(delta_t=120, d_grid=[1.0, 2.0], lag_min=-15, lag_max=15,
                fit_lo=1, fit_hi=15, jk_blocks=20, workers=2)
    base.update(kw)
    return AnalysisConfig(**base)


def test_metadata_records_conventions_and_span():
    ticks = garch_ticks()
    report = analyze_ticks(ticks, small_cfg())
    md = report.metadata
    assert md["delta_t"] == 120
    assert md["n_ticks"] == len(ticks)
    assert md["jackknife_blocks"] == 20
    assert md["carried_forward_fraction"] == 0.0
    assert "UTC midnight" in md["conventions"]["daily_boundary"]
    assert "sample standard deviation" in md["conventions"]["standardization"]
    assert set(md["versions"]) == {"retvol", "numpy", "scipy", "python"}
    assert md["span_unix"][0] < md["span_unix"][1]


def test_drop_interval_policy_reduces_returns():
    # sparse ticks: plenty of empty 2-min buckets
    ticks = garch_ticks(n=4000, spacing=300)
    kept = analyze_ticks(ticks, small_cfg(jk_blocks=10))
    dropped = analyze_ticks(ticks, small_cfg(jk_blocks=10,
                                             gap_policy=DROP_INTERVAL))
    assert kept.metadata["carried_forward_fraction"] > 0.3
    assert dropped.metadata["n_returns"] < kept.metadata["n_returns"]
    # gap returns are exact zeros, so dropping them changes the profile
    a = kept.sweep.profile_for(2.0).values
    b = dropped.sweep.profile_for(2.0).values
    assert not np.array_equal(a, b)


def test_leverage_visible_through_full_pipeline():
    report = analyze_ticks(garch_ticks(n=80_000, seed=4), small_cfg())
    prof = report.sweep.profile_for(2.0)
    k = int(np.searchsorted(prof.lags, 1))
    assert prof.values[k] < 0
    assert abs(prof.values[k]) > 3 * prof.sigmas[k]
    assert report.argmax_kappa_d is not None
    assert report.long_range  # power-law exponents were computed


def test_failed_exponential_fit_keeps_power_law(monkeypatch):
    def no_convergence(points, fit_range):
        raise NoConvergence("forced failure")

    monkeypatch.setattr(pipeline, "fit_exponential", no_convergence)
    report = analyze_ticks(garch_ticks(), small_cfg())
    for d in (1.0, 2.0):
        assert report.power_fits[d] is not None
        assert d in report.long_range
        assert d not in report.exp_fits and d not in report.comparisons


def test_zero_jackknife_sigma_marks_d_unavailable(tmp_path):
    # a price path repeating once per jackknife block leaves the same
    # reduced series whichever block is deleted: every sigma is exactly 0
    blocks, block_len = 20, 60
    base = 100.0 * np.exp(0.002 * np.cumsum(standard_normals(3, block_len)))
    prices = np.append(np.tile(base, blocks), base[0])
    times = 1_420_848_000 + 120 * np.arange(len(prices), dtype=np.int64)
    ticks = TickSeries(times, prices, np.ones(len(prices)))
    report = analyze_ticks(ticks, small_cfg(jk_blocks=blocks))
    assert all(np.all(p.sigmas == 0.0) for p in report.sweep.profiles)
    assert report.power_fits == {1.0: None, 2.0: None}
    assert report.quadratic_fit is None and report.argmax_kappa_d is None
    assert write_report(report, tmp_path)["argmax_kappa_d"] is None
