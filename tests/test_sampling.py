import io

import numpy as np
import pytest

from retvol import errors
from retvol.ingest import TickSeries, parse_tick_csv
from retvol.sampling import daily_close_series, resample

DAY = 86400


def ticks_of(pairs):
    t = np.array([p[0] for p in pairs], dtype=np.int64)
    px = np.array([p[1] for p in pairs], dtype=np.float64)
    return TickSeries(t, px, np.ones(len(pairs)))


def test_previous_tick_rule_with_gap():
    ps = resample(ticks_of([(0, 10.0), (150, 11.0)]), 120)
    assert ps.t0 == 0
    assert list(ps.prices) == [10.0, 10.0, 11.0]
    assert list(ps.gap_mask) == [False, True, False]
    assert list(ps.times) == [0, 120, 240]


def test_single_tick_insufficient():
    with pytest.raises(errors.InsufficientData):
        resample(ticks_of([(50, 10.0)]), 120)


def test_all_ticks_in_one_bucket_insufficient():
    with pytest.raises(errors.InsufficientData):
        resample(ticks_of([(121, 10.0), (130, 11.0), (239, 12.0)]), 120)


def test_anchor_rounds_up_to_delta_multiple():
    ps = resample(ticks_of([(130, 5.0), (380, 6.0)]), 120)
    assert ps.t0 == 240
    assert list(ps.times) == [240, 360, 480]
    assert list(ps.prices) == [5.0, 5.0, 6.0]


def test_dense_ticks_match_scan_oracle():
    # one tick per second, price = t; grid price at t must equal t
    pairs = [(t, float(t)) for t in range(1, 1001)]
    ticks = ticks_of(pairs)
    ps = resample(ticks, 120)
    times = ps.times
    covered = times <= 1000
    assert np.array_equal(ps.prices[covered], times[covered].astype(float))
    assert ps.prices[-1] == 1000.0

    # independent scan: last tick at or before each grid instant
    for gt, price in zip(times, ps.prices):
        last = None
        for t, p in pairs:
            if t <= gt:
                last = p
        assert price == last


def test_tie_at_grid_instant_takes_last_in_file_order():
    text = "120,1.0,1\n120,2.0,1\n240,3.0,1\n"
    ticks = parse_tick_csv(io.StringIO(text))
    ps = resample(ticks, 120)
    assert ps.prices[0] == 2.0


def test_sampled_prices_are_traded_prices():
    rng = np.random.default_rng(17)
    t = np.sort(rng.choice(np.arange(0, 5000), 300, replace=False)).astype(np.int64)
    px = np.exp(rng.normal(0, 1, 300))
    ticks = TickSeries(t, px, np.ones(300))
    ps = resample(ticks, 60)
    traded = set(px.tolist())
    assert all(p in traded for p in ps.prices)


def test_gap_mask_implies_repeated_price():
    rng = np.random.default_rng(23)
    t = np.sort(rng.choice(np.arange(0, 20000), 150, replace=False)).astype(np.int64)
    px = np.exp(rng.normal(0, 1, 150))
    ps = resample(TickSeries(t, px, np.ones(150)), 60)
    gaps = np.where(ps.gap_mask)[0]
    assert len(gaps) > 0
    assert gaps[0] > 0
    assert np.array_equal(ps.prices[gaps], ps.prices[gaps - 1])


def test_subsampling_consistency():
    # every k-th fine grid point reproduces the coarse grid
    rng = np.random.default_rng(31)
    t = np.sort(rng.choice(np.arange(0, 100000), 400, replace=False)).astype(np.int64)
    px = np.exp(rng.normal(0, 1, 400))
    ticks = TickSeries(t, px, np.ones(400))
    k = 4
    fine = resample(ticks, 30)
    coarse = resample(ticks, 30 * k)
    fine_times = list(fine.times)
    offset = fine_times.index(coarse.t0)
    shared = fine.prices[offset::k]
    m = min(len(shared), len(coarse))
    assert m >= 2
    assert np.array_equal(shared[:m], coarse.prices[:m])


def test_daily_two_days_two_prices():
    ticks = ticks_of([(DAY // 2, 4.0), (DAY + DAY // 2, 5.0)])
    ps = daily_close_series(ticks)
    assert len(ps) == 2
    assert ps.t0 == DAY
    assert list(ps.prices) == [4.0, 5.0]


def test_daily_gap_day_repeats_prior_close():
    ticks = ticks_of([(DAY // 2, 4.0), (2 * DAY + DAY // 2, 6.0)])
    ps = daily_close_series(ticks)
    assert list(ps.prices) == [4.0, 4.0, 6.0]
    assert list(ps.gap_mask) == [False, True, False]


def test_daily_equals_resample_86400():
    rng = np.random.default_rng(41)
    t = np.sort(rng.integers(0, 10 * DAY, 500)).astype(np.int64)
    px = np.exp(rng.normal(0, 1, 500))
    ticks = TickSeries(t, px, np.ones(500))
    a = daily_close_series(ticks)
    b = resample(ticks, DAY)
    assert a.t0 == b.t0
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.gap_mask, b.gap_mask)


def test_rejects_unsorted_ticks():
    bad = TickSeries(np.array([100, 50], dtype=np.int64),
                     np.array([1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError):
        resample(bad, 60)


def test_unsorted_ticks_raise_invalid_ticks():
    bad = TickSeries(np.array([100, 50], dtype=np.int64),
                     np.array([1.0, 2.0]), np.zeros(2))
    with pytest.raises(errors.InvalidTicks,
                       match="tick series must be sorted by timestamp"):
        resample(bad, 60)


@pytest.mark.parametrize("delta_t", [0, -120])
def test_delta_t_below_1_raises_config_invalid(delta_t):
    # AnalysisConfig runs the same check; resample keeps it for callers
    # that sample without a config
    with pytest.raises(errors.ConfigInvalid, match=r"\(--delta-t\)"):
        resample(ticks_of([(0, 10.0), (150, 11.0)]), delta_t)
