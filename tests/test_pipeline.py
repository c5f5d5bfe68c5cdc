import numpy as np
import pytest

from oracles import oracle_cc
from retvol import pipeline
from retvol.errors import (ConfigInvalid, DegenerateVariance, LagOutOfRange,
                           NoConvergence)
from retvol.fitting import fit_exponential, fit_points_from_profile
from retvol.ingest import TickSeries, deduplicate
from retvol.pipeline import AnalysisConfig, analyze_ticks
from retvol.report import write_report
from retvol.returns import apply_gap_policy, log_returns, standardize
from retvol.rng import standard_normals
from retvol.sampling import DROP_INTERVAL, resample
from retvol.synth import (GarchSpec, gen_asym_garch, gen_iid_gaussian,
                          ticks_from_returns)


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
    assert set(md["versions"]) == {"retvol", "numpy", "python"}
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


def test_exponential_fit_past_its_bracket_drops_only_itself(tmp_path):
    # iid returns, seed 9: -CC_1(j) rises over lags 2-4 (lag 1 is negative
    # and excluded), so the best tau is +infinity
    rets = gen_iid_gaussian(4000, seed=9)
    rets.values *= 0.002
    cfg = small_cfg(lag_min=-4, lag_max=4, fit_hi=4, workers=1)
    report = analyze_ticks(ticks_from_returns(rets, spacing=120), cfg)
    points = fit_points_from_profile(report.sweep.profile_for(1.0), 1, 4)
    with pytest.raises(NoConvergence) as exc:
        fit_exponential(points, (1, 4))
    assert exc.value.last_result is not None
    assert report.power_fits[1.0] is not None and 1.0 in report.long_range
    assert 1.0 not in report.exp_fits and 1.0 not in report.comparisons
    assert 2.0 in report.exp_fits and 2.0 in report.comparisons
    write_report(report, tmp_path)


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


def returns_of(ticks, cfg):
    """The normalized returns `analyze_ticks` correlates."""
    prices = resample(deduplicate(ticks), cfg.delta_t, cfg.gap_policy)
    return standardize(apply_gap_policy(log_returns(prices)))


@pytest.mark.parametrize("n,blocks,lags", [
    # blocks of 200 returns, longer than every lag
    (4000, 20, 15),
    # blocks of 30 returns against lags reaching over two blocks
    (3000, 100, 60),
])
def test_cc_matches_oracle(n, blocks, lags):
    ticks = garch_ticks(n=n, seed=n)
    cfg = small_cfg(d_grid=[0.5, 1.0, 2.0, 3.0], lag_min=-lags, lag_max=lags,
                    fit_hi=lags, jk_blocks=blocks)
    report = analyze_ticks(ticks, cfg)
    r = returns_of(ticks, cfg)
    assert len(r) == n
    for d, j in [(0.5, 0), (1.0, 1), (2.0, -1), (2.0, lags), (3.0, -lags),
                 (0.5, 7)]:
        got = report.sweep.profile_for(d).value_at(j)
        assert abs(got - oracle_cc(r.values, d, j)) < 1e-12, (d, j)


def test_report_bytes_identical_across_workers(tmp_path):
    ticks = garch_ticks(n=6000, seed=12)
    manifests = {
        w: write_report(analyze_ticks(ticks, small_cfg(
            d_grid=[0.5, 1.0, 1.5, 2.0, 3.0], jk_blocks=25, workers=w)),
            tmp_path / f"w{w}")
        for w in (1, 3)}
    m1, m3 = manifests[1], manifests[3]
    assert m1["body_sha256"] == m3["body_sha256"]
    for name in m1["files"]:
        if name != "report.json":  # carries generated_at
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (tmp_path / "w3" / name).read_bytes()), name


@pytest.mark.parametrize("bad", [
    {"delta_t": 0}, {"gap_policy": "nope"}, {"d_grid": [2.0, 1.0]},
    {"d_grid": []}, {"lag_min": 1}], ids=[
    "zero_delta_t", "unknown_gap_policy", "decreasing_d_grid", "empty_d_grid",
    "lags_without_0"])
def test_bad_config_is_a_typed_error(bad):
    with pytest.raises(ConfigInvalid) as info:
        analyze_ticks(garch_ticks(n=4000), small_cfg(**bad))
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("bad", [
    {"fit_lo": 5, "fit_hi": 1}, {"fit_lo": -3, "fit_hi": 0},
    {"workers": 0}, {"workers": -1}, {"fit_filter": float("nan")},
    {"fit_filter": -1.0}, {"fit_filter": float("inf")}], ids=[
    "fit_range_reversed", "fit_range_below_1", "zero_workers",
    "negative_workers", "nan_fit_filter", "negative_fit_filter",
    "infinite_fit_filter"])
def test_bad_setting_is_rejected_when_the_config_is_built(bad):
    # nothing is analyzed: the bad setting fails before any data is seen
    with pytest.raises(ConfigInvalid) as info:
        small_cfg(**bad)
    assert isinstance(info.value, ValueError)


def alternating_ticks(n_returns):
    # prices alternate between two levels, so the returns are +c, -c, ...:
    # r is not constant, but every |r|^d is
    prices = np.where(np.arange(n_returns + 1) % 2 == 0, 100.0, 101.0)
    times = 1_420_848_000 + 120 * np.arange(n_returns + 1, dtype=np.int64)
    return TickSeries(times, prices, np.ones(n_returns + 1))


def analysis_error(ticks, **kw):
    with pytest.raises(Exception) as info:
        analyze_ticks(ticks, small_cfg(**kw))
    return info.type


# Each case also breaks every check that comes after it: the d grid is
# checked first, then the full-series lags, then constant series, then
# the block count.
def test_bad_grid_is_reported_first():
    assert analysis_error(alternating_ticks(400), d_grid=[2.0, 1.0],
                          lag_max=500, jk_blocks=50) is ConfigInvalid


def test_full_series_lags_before_constant_series_and_blocks():
    assert analysis_error(alternating_ticks(400), lag_max=395,
                          jk_blocks=50) is LagOutOfRange


@pytest.mark.parametrize("blocks,lag_max", [
    (50, 15),   # blocks of 8 returns
    (1, 15),    # fewer than two blocks
    (4, 300),   # 100 pairs in the full series, 0 once a block is deleted
])
def test_constant_series_before_blocks_and_reduced_lags(blocks, lag_max):
    assert analysis_error(alternating_ticks(400), lag_max=lag_max,
                          jk_blocks=blocks) is DegenerateVariance


@pytest.mark.parametrize("blocks", [50, 1])
def test_block_count_checked_last(blocks):
    ticks = garch_ticks(n=400, seed=13)
    assert analysis_error(ticks, jk_blocks=blocks) is ConfigInvalid
