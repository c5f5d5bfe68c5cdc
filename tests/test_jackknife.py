import sys
import tracemalloc

import numpy as np
import pytest

from oracles import oracle_jackknife_sigma
from retvol import errors, jackknife
from retvol.jackknife import (JackknifeConfig, block_bounds, jackknife_sigma,
                              next_fast_len, sweep_with_sigmas)
from retvol.crosscorr import sweep_powers
from retvol.returns import (NormalizedReturns, ReturnSeries, abs_power,
                            standardize)
from retvol.rng import standard_normals


def normalized(seed, n):
    return standardize(ReturnSeries(standard_normals(seed, n), 120,
                                    np.zeros(n, dtype=bool)))


def test_config_invariants():
    with pytest.raises(errors.ConfigInvalid):
        JackknifeConfig(n_blocks=1).validate_for(2000)
    with pytest.raises(errors.ConfigInvalid, match="--jk-blocks"):
        JackknifeConfig(n_blocks=10.5)
    cfg = JackknifeConfig(n_blocks=100)
    with pytest.raises(errors.ConfigInvalid):
        cfg.validate_for(1999)  # blocks of <20 points
    cfg.validate_for(2000)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len as oracle
    sample = np.random.default_rng(7).integers(20001, 10**7 + 1, 2000)
    for n in list(range(1, 20001)) + sample.tolist():
        assert next_fast_len(n) == oracle(n, real=True), n


def test_block_bounds_partition():
    bounds = block_bounds(1003, 7)
    assert bounds[0] == 0 and bounds[-1] == 1003
    lengths = np.diff(bounds)
    assert lengths.sum() == 1003
    assert lengths.min() >= 143 and lengths.max() <= 144


def test_tiled_blocks_give_zero_sigma():
    # every deletion leaves the identical concatenation, so all
    # leave-one-out estimates coincide and the dispersion is exactly 0
    block = standard_normals(50, 50)
    vals = np.tile(block, 10)
    nr = NormalizedReturns(vals, 0.0, 1.0)
    sig = jackknife_sigma(nr, 2.0, np.arange(-10, 11), JackknifeConfig(10))
    assert np.all(sig == 0.0)


def test_matches_naive_oracle():
    nr = normalized(77, 1000)
    lags = [-7, -1, 0, 1, 5, 20]
    got = jackknife_sigma(nr, 1.4, lags, JackknifeConfig(10))
    want = oracle_jackknife_sigma(nr.values, 1.4, lags, 10)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.all(got >= 0)


@pytest.mark.parametrize("seed,n,blocks,d,lags", [
    # blocks of 50 points against lags reaching over two blocks each way
    (81, 1000, 20, 2.0, list(range(-120, 121))),
    # uneven blocks of 143 and 144 points
    (82, 1003, 7, 0.5, list(range(-30, 31))),
    # a non-contiguous lag set without 0
    (83, 1000, 10, 3.0, [-7, 3, 40]),
    # uneven blocks of 54 and 55 points, shorter than the lags reach
    (89, 2003, 37, 1.5, list(range(-150, 60))),
    # four blocks of 100 points and a lag of 95: most pairs at it cross
    # a boundary, and the end blocks' splices are 0
    (90, 400, 4, 2.0, [0, 1, 2, 95]),
    # the single lag 0: no pair crosses a boundary
    (91, 1000, 10, 0.7, [0]),
])
def test_engine_matches_oracle(seed, n, blocks, d, lags):
    nr = normalized(seed, n)
    got = jackknife_sigma(nr, d, lags, JackknifeConfig(blocks))
    want = oracle_jackknife_sigma(nr.values, d, lags, blocks)
    assert np.max(np.abs(got - want)) < 1e-12


def test_blocks_near_either_end_keep_their_own_end_sums():
    # blocks of 30 points against max|lag| 150: deleting any of the first
    # or last five blocks changes the first or last 150 points of the
    # reduced series, so those ten keep their own end sums
    nr = normalized(94, 600)
    lags = [-150, -149, -100, -31, -30, -29, -1, 0, 1, 29, 30, 31, 60,
            149, 150]
    dl = jackknife._Deletions(600, 20, lags)
    assert dl.end_row.tolist() == [1, 2, 3, 4, 5] + [0] * 10 + [6, 7, 8, 9, 10]
    assert dl.head_idx.shape == dl.tail_idx.shape == (11, 150)
    got = jackknife_sigma(nr, 1.3, lags, JackknifeConfig(20))
    want = oracle_jackknife_sigma(nr.values, 1.3, lags, 20)
    assert np.max(np.abs(got - want)) < 1e-12


def test_one_end_row_per_end_at_long_blocks():
    dl = jackknife._Deletions(100_000, 100, np.arange(-200, 201))
    assert np.flatnonzero(dl.end_row).tolist() == [0, 99]
    dl = jackknife._Deletions(8125, 100, np.arange(-200, 201))
    assert np.flatnonzero(dl.end_row).tolist() == [0, 1, 2, 97, 98, 99]


@pytest.mark.parametrize("d", [0.5, 2.0])
def test_constant_block_matches_oracle(d):
    # a trade-free stretch carried forward: one whole block of zero
    # returns and a few zeros elsewhere, so one block has zero variance
    vals = standard_normals(95, 1000)
    vals[300:400] = 0.0
    vals[::37] = 0.0
    nr = standardize(ReturnSeries(vals, 120, np.zeros(1000, dtype=bool)))
    lags = [-40, -3, 0, 1, 2, 25, 99]
    got = jackknife_sigma(nr, d, lags, JackknifeConfig(10))
    want = oracle_jackknife_sigma(nr.values, d, lags, 10)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sigma_shrinks_with_root_n():
    # doubling N at fixed block length shrinks sigma by about sqrt(2)
    lags = [1, 5]
    ratios = []
    for seed in (301, 302, 303):
        small = jackknife_sigma(normalized(seed, 20000), 2.0, lags,
                                JackknifeConfig(20))
        big = jackknife_sigma(normalized(seed + 50, 40000), 2.0, lags,
                              JackknifeConfig(40))
        ratios.append(small / big)
    mean_ratio = float(np.mean(ratios))
    assert 0.7 * np.sqrt(2) < mean_ratio < 1.3 * np.sqrt(2)


def test_degenerate_leave_one_out_subseries():
    # constant outside one block: deleting that block leaves a constant series
    vals = np.ones(400)
    vals[150:160] = np.linspace(2.0, 3.0, 10)
    nr = NormalizedReturns(vals, 0.0, 1.0)
    with pytest.raises(errors.DegenerateVariance):
        jackknife_sigma(nr, 2.0, [0, 1], JackknifeConfig(4))


def test_inexact_constant_leave_one_out_subseries():
    # 0.1 is not representable: rounding alone need not give a zero variance
    vals = np.full(400, 0.1)
    vals[120:180] = standard_normals(84, 60)
    nr = NormalizedReturns(vals, 0.0, 1.0)
    with pytest.raises(errors.DegenerateVariance):
        jackknife_sigma(nr, 1.5, [-3, 0, 2], JackknifeConfig(4))


def _one_block_apart():
    vals = np.ones(400)
    vals[150:160] = np.linspace(2.0, 3.0, 10)
    return vals


@pytest.mark.parametrize("values,message", [
    # a constant series
    (np.full(400, 0.7), "series is constant"),
    # +-c: the returns vary, but every |r|^d is c^d
    (0.7 * (-1.0) ** np.arange(400), "series is constant"),
    # constant outside one block, so deleting that block leaves a
    # constant series
    (_one_block_apart(), "series is constant"),
    # two values whose squares about the mean underflow to 0
    (1e-170 * (1.0 + np.arange(400) % 2), "series has zero variance"),
])
def test_degenerate_series_name_their_fault(values, message):
    nr = NormalizedReturns(values, 0.0, 1.0)
    for run in (lambda: jackknife_sigma(nr, 1.5, [-2, 0, 1], JackknifeConfig(4)),
                lambda: sweep_with_sigmas(nr, [0.5, 2.0], -2, 2,
                                          JackknifeConfig(4), workers=2)):
        with pytest.raises(errors.DegenerateVariance) as info:
            run()
        assert str(info.value) == message


@pytest.mark.parametrize("d", [300.0, 600.0])
def test_powered_series_without_a_finite_sigma_is_a_typed_error(d):
    # |r|^300 squares past the float range and |r|^600 is inf itself; the
    # CC values were +-0.0 or nan and the sigmas nan
    nr = normalized(16, 2000)
    for run in (lambda: jackknife_sigma(nr, d, [-2, 0, 1], JackknifeConfig(20)),
                lambda: sweep_with_sigmas(nr, [1.0, d], -2, 2,
                                          JackknifeConfig(20), workers=2)):
        with pytest.raises(errors.ConfigInvalid, match="--d-grid"):
            run()


def test_tiled_blocks_give_zero_sigma_at_every_power():
    vals = np.tile(standard_normals(51, 40), 10)
    sweep = sweep_with_sigmas(NormalizedReturns(vals, 0.0, 1.0),
                              [0.3, 1.0, 2.5], -15, 15, JackknifeConfig(10),
                              workers=2)
    for prof in sweep.profiles:
        assert np.all(prof.sigmas == 0.0)
        assert np.all(np.isfinite(prof.values))


@pytest.mark.parametrize("d", [0.0, -1.5, float("nan")])
def test_bad_power_is_a_typed_error(d):
    nr = normalized(92, 400)
    with pytest.raises(errors.ConfigInvalid):
        jackknife_sigma(nr, d, [0, 1], JackknifeConfig(4))
    with pytest.raises(errors.ConfigInvalid):
        sweep_with_sigmas(nr, [d], -1, 1, JackknifeConfig(4))


def test_lag_out_of_range_in_reduced_series():
    # 105 pairs at lag 295 in the full series, but 5 once a block is deleted
    nr = normalized(85, 400)
    with pytest.raises(errors.LagOutOfRange):
        jackknife_sigma(nr, 2.0, [0, 295], JackknifeConfig(4))


def test_profile_and_sweep_attachment():
    nr = normalized(79, 3000)
    sweep = sweep_powers(nr, [1.0, 2.0], -10, 10)
    assert all(p.sigmas is None for p in sweep.profiles)
    swsig = sweep_with_sigmas(nr, [1.0, 2.0], -10, 10, JackknifeConfig(10))
    for p, q in zip(sweep.profiles, swsig.profiles):
        direct = jackknife_sigma(nr, p.d, p.lags, JackknifeConfig(10))
        assert np.array_equal(q.sigmas, direct)
        assert len(q.sigmas) == len(p)


def test_sweep_sigma_workers_bit_identical():
    nr = normalized(80, 5000)
    a = sweep_with_sigmas(nr, [0.5, 1.0, 2.0], -30, 30, JackknifeConfig(25),
                          workers=1)
    b = sweep_with_sigmas(nr, [0.5, 1.0, 2.0], -30, 30, JackknifeConfig(25),
                          workers=4)
    for pa, pb in zip(a.profiles, b.profiles):
        assert np.array_equal(pa.sigmas, pb.sigmas)


def test_sweep_with_sigmas_computes_values_whatever_it_is_given():
    nr = normalized(86, 3000)
    grid = [0.5, 2.0, 3.0]
    plain = sweep_powers(nr, grid, -40, 40)
    one = sweep_with_sigmas(nr, grid, -40, 40, JackknifeConfig(30), workers=1)
    many = sweep_with_sigmas(nr, grid, -40, 40, JackknifeConfig(30), workers=3)
    for g, a, b in zip(plain.profiles, one.profiles, many.profiles):
        assert a.d == g.d and np.array_equal(a.lags, g.lags)
        assert np.max(np.abs(a.values - g.values)) < 1e-14
        assert np.array_equal(b.values, a.values)
        assert np.array_equal(b.sigmas, a.sigmas)
        assert np.array_equal(a.pair_counts, g.pair_counts)


def test_threads_keep_their_own_buffers():
    # each thread reuses its own buffers from one power to the next; with
    # more threads than cores and a switch every microsecond, one shared
    # buffer would mix two powers' series
    nr = normalized(96, 3000)
    grid = [0.3 * k for k in range(1, 13)]
    want = sweep_with_sigmas(nr, grid, -20, 20, JackknifeConfig(15))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sweep_with_sigmas(nr, grid, -20, 20, JackknifeConfig(15),
                                workers=6)
    finally:
        sys.setswitchinterval(interval)
    for p, q in zip(want.profiles, got.profiles):
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.sigmas, q.sigmas)


@pytest.mark.parametrize("n,blocks,lag", [
    (3000, 10, 40),    # blocks longer than max|lag|
    (2000, 40, 120),   # blocks of 50 points: pairs straddle whole blocks
])
def test_row_blocks_change_no_result(monkeypatch, n, blocks, lag):
    nr = normalized(87, n)
    grid = [0.5, 1.0, 2.5]
    cfg = JackknifeConfig(blocks)
    want = sweep_with_sigmas(nr, grid, -lag, lag, cfg)
    dl = jackknife._Deletions(n, blocks, np.arange(-lag, lag + 1))
    assert len(dl.block_rows) == len(dl.junction_rows) == 1
    # one row per block, then blocks of four junction rows and of three
    # block rows, which divide neither row count
    for row_bytes in (1, 32 * dl.junction_nfft, 24 * dl.block_nfft):
        monkeypatch.setattr(jackknife, "_ROW_BLOCK_BYTES", row_bytes)
        got_dl = jackknife._Deletions(n, blocks, dl.lags)
        for rows, nfft, n_rows in ((got_dl.block_rows, dl.block_nfft, blocks),
                                   (got_dl.junction_rows, dl.junction_nfft,
                                    blocks - 1)):
            assert len(rows) == -(-n_rows // max(1, row_bytes // (8 * nfft)))
        for workers in (1, 3):
            got = sweep_with_sigmas(nr, grid, -lag, lag, cfg, workers=workers)
            for p, q in zip(want.profiles, got.profiles):
                assert np.array_equal(p.values, q.values)
                assert np.array_equal(p.sigmas, q.sigmas)


def test_sweep_memory_stays_bounded():
    # windows are transformed a row block at a time, so no rows x nfft
    # temporary exists per power: the traced peak measured 22.6-23.4 MiB,
    # and the bound allows 20% more; whole-array transforms need 45 MiB
    nr = normalized(88, 200_000)
    tracemalloc.start()
    try:
        sweep_with_sigmas(nr, [0.5, 1.0, 2.0], -200, 200, JackknifeConfig(100),
                          workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_moment_temporaries_stay_bounded():
    # abs_power raises to the power in place and moments subtracts into
    # the np.repeat output: the traced peak holds two N-long arrays
    # (16 MB at 10^6 returns) where it held three
    r = normalized(93, 1_000_000)
    dl = jackknife._Deletions(len(r), 100, [0, 1])
    tracemalloc.start()
    try:
        dl.moments(abs_power(r, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
