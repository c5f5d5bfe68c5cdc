import numpy as np
import pytest

from oracles import oracle_jackknife_sigma
from retvol import errors
from retvol.jackknife import (JackknifeConfig, block_bounds, jackknife_sigma,
                              sweep_with_sigmas)
from retvol.crosscorr import sweep_grid, sweep_powers
from retvol.returns import NormalizedReturns, ReturnSeries, standardize
from retvol.rng import standard_normals


def normalized(seed, n):
    return standardize(ReturnSeries(standard_normals(seed, n), 120,
                                    np.zeros(n, dtype=bool)))


def test_config_invariants():
    with pytest.raises(errors.ConfigInvalid):
        JackknifeConfig(n_blocks=1)
    cfg = JackknifeConfig(n_blocks=100)
    with pytest.raises(errors.ConfigInvalid):
        cfg.validate_for(1999)  # blocks of <20 points
    cfg.validate_for(2000)


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
])
def test_engine_matches_oracle(seed, n, blocks, d, lags):
    nr = normalized(seed, n)
    got = jackknife_sigma(nr, d, lags, JackknifeConfig(blocks))
    want = oracle_jackknife_sigma(nr.values, d, lags, blocks)
    assert np.max(np.abs(got - want)) < 1e-12


def test_deterministic_across_workers():
    nr = normalized(78, 4000)
    lags = np.arange(-20, 21)
    a = jackknife_sigma(nr, 2.0, lags, JackknifeConfig(20), workers=1)
    b = jackknife_sigma(nr, 2.0, lags, JackknifeConfig(20), workers=4)
    assert np.array_equal(a, b)


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


def test_lag_out_of_range_in_reduced_series():
    # 105 pairs at lag 295 in the full series, but 5 once a block is deleted
    nr = normalized(85, 400)
    with pytest.raises(errors.LagOutOfRange):
        jackknife_sigma(nr, 2.0, [0, 295], JackknifeConfig(4))


def test_profile_and_sweep_attachment():
    nr = normalized(79, 3000)
    sweep = sweep_powers(nr, [1.0, 2.0], -10, 10)
    assert all(p.sigmas is None for p in sweep.profiles)
    swsig = sweep_with_sigmas(nr, sweep, JackknifeConfig(10))
    for p, q in zip(sweep.profiles, swsig.profiles):
        direct = jackknife_sigma(nr, p.d, p.lags, JackknifeConfig(10))
        assert np.array_equal(q.sigmas, direct)
        assert len(q.sigmas) == len(p)


def test_sweep_sigma_workers_bit_identical():
    nr = normalized(80, 5000)
    sweep = sweep_powers(nr, [0.5, 1.0, 2.0], -30, 30)
    a = sweep_with_sigmas(nr, sweep, JackknifeConfig(25), workers=1)
    b = sweep_with_sigmas(nr, sweep, JackknifeConfig(25), workers=4)
    for pa, pb in zip(a.profiles, b.profiles):
        assert np.array_equal(pa.sigmas, pb.sigmas)


def test_sweep_with_sigmas_computes_values_whatever_it_is_given():
    nr = normalized(86, 3000)
    given = sweep_powers(nr, [0.5, 2.0, 3.0], -40, 40)
    from_given = sweep_with_sigmas(nr, given, JackknifeConfig(30), workers=2)
    empty = sweep_grid(nr, [0.5, 2.0, 3.0], -40, 40)
    assert all(p.values is None and p.sigmas is None for p in empty.profiles)
    one = sweep_with_sigmas(nr, empty, JackknifeConfig(30), workers=1)
    many = sweep_with_sigmas(nr, empty, JackknifeConfig(30), workers=3)
    for g, k, a, b in zip(given.profiles, from_given.profiles, one.profiles,
                          many.profiles):
        assert np.max(np.abs(k.values - g.values)) < 1e-14
        for other in (k, b):
            assert np.array_equal(other.values, a.values)
            assert np.array_equal(other.sigmas, a.sigmas)
        assert np.array_equal(a.pair_counts, g.pair_counts)
