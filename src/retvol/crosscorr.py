"""Cross-correlation CC_d(j) between returns and powered absolute returns.

For a normalized return series r and its powered companion |r|^d,

    CC_d(j) = E[(r_t - mu_r)(|r_{t+j}|^d - mu_p)] / (sigma_r * sigma_p)

where the mu and sigma are the global moments of each full series
(population convention, so the lag-0 value is an exact Pearson
correlation) and E averages the N - |j| overlapping pairs. Positive j
means the powered series lies in the future of the return series;
negative j pairs returns with past volatility.

Every lag's sum is the dot product of its N - |j| centred pairs, so a
profile equals its single-lag values bit for bit, and it must agree
with the brute-force definition, the normative reference (tests
enforce 1e-10). The jackknife engine (`sweep_with_sigmas`), which gives
every reported value, takes its sums by FFT instead. A power sweep
checks its grid and lags once (`check_sweep_grid`, `_check_lags`),
whether here (`sweep_powers`) or in the jackknife.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigInvalid, DegenerateVariance, LagOutOfRange,
                     LengthMismatch)
from .returns import abs_power
from .sampling import check_integers

MIN_PAIRS = 10
POWER_OVERFLOW = ("|r|^d has no finite standard deviation: a power d "
                  "(--d-grid) is too large for this series")


@dataclass
class CorrelationProfile:
    """CC_d(j) over a lag grid for one power d; sigmas is None until
    jackknife error estimation fills it."""

    d: float
    lags: np.ndarray
    values: np.ndarray
    pair_counts: np.ndarray
    sigmas: np.ndarray | None = None

    def __len__(self):
        return len(self.lags)

    def value_at(self, lag):
        k = int(np.searchsorted(self.lags, lag))
        if k >= len(self.lags) or self.lags[k] != lag:
            raise LagOutOfRange(f"lag {lag} not in profile grid")
        return float(self.values[k])


@dataclass
class SweepResult:
    """One CorrelationProfile per d over a shared lag grid."""

    profiles: list

    def __iter__(self):
        return iter(self.profiles)

    def profile_for(self, d):
        for p in self.profiles:
            if p.d == d:
                return p
        raise KeyError(f"no profile for d={d}")


def power_grid(lo=0.1, hi=3.0, step=0.1):
    """Inclusive d grid with exactly representable decimal values."""
    if not (step > 0 and hi >= lo and math.isfinite(hi - lo)):
        raise ConfigInvalid(f"d grid needs finite bounds, step > 0 and "
                            f"hi >= lo, got {lo}:{hi}:{step}")
    n = int(round((hi - lo) / step))
    grid = [round(lo + k * step, 10) for k in range(n + 1)]
    if not all(g > 0 for g in grid):
        raise ConfigInvalid("powers must be positive")
    return grid


def _centered(x):
    """Center by the full-series mean; raise unless sigma is finite, > 0."""
    x = np.asarray(x, dtype=np.float64)
    # cheap scalar guard first; the full scan only runs when it matches
    if x[0] == x[-1] and np.all(x == x[0]):
        raise DegenerateVariance("series is constant")
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        sigma = math.sqrt(float(np.mean(xc * xc)))
    if not math.isfinite(sigma):
        raise ConfigInvalid(POWER_OVERFLOW)
    if sigma == 0.0:
        raise DegenerateVariance("series has zero variance")
    return xc, sigma


def _check_lags(n, lags):
    check_integers("lags", *lags)
    lags = np.asarray(lags, dtype=np.int64)
    pairs = n - np.abs(lags)
    if np.any(pairs < MIN_PAIRS):
        worst = int(lags[np.argmin(pairs)])
        raise LagOutOfRange(
            f"lag {worst} leaves {n - abs(worst)} pairs (< {MIN_PAIRS}) at N={n}")
    return lags, pairs


def _profile_values(rv, pv, lags):
    """CC values and pair counts over `lags` for raw arrays rv (returns)
    and pv (powered), each lag's sum a dot product of its pairs."""
    n = len(rv)
    lags, pairs = _check_lags(n, lags)
    rc, sig_r = _centered(rv)
    if len(pv) != n:
        raise LengthMismatch("series length mismatch")
    pc, sig_p = _centered(pv)
    sums = np.array([np.dot(rc[:n - j], pc[j:]) if j >= 0
                     else np.dot(rc[-j:], pc[:n + j]) for j in lags.tolist()])
    return sums / pairs / (sig_r * sig_p), pairs


def cross_correlation(r, pw, j):
    """CC_d(j) for one signed lag.

    Parameters
    ----------
    r : NormalizedReturns
    pw : numpy.ndarray
        Powered absolute values of the same series (`abs_power`).
    j : int
        Signed lag; positive j pairs r_t with |r_{t+j}|^d.

    Returns
    -------
    float

    Raises
    ------
    LagOutOfRange
        Fewer than 10 overlapping pairs at this lag.
    DegenerateVariance
        Either series is constant.
    ConfigInvalid
        j is not an integer, or either series has no finite sigma.
    LengthMismatch
        `pw` is not as long as `r`.
    """
    values, _ = _profile_values(r.values, pw, [j])
    return float(values[0])


def correlation_profile(r, d, lag_min, lag_max):
    """CC_d(j) for every lag in [lag_min, lag_max]; the grid must straddle 0."""
    return sweep_powers(r, [d], lag_min, lag_max).profiles[0]


def check_sweep_grid(d_grid, lag_min, lag_max):
    """The d grid as floats; ConfigInvalid unless it is positive and strictly
    increasing and the lag range is of integers and straddles 0."""
    try:
        d_grid = [float(d) for d in d_grid]
    except (TypeError, ValueError):
        raise ConfigInvalid("powers (--d-grid) must be numbers") from None
    if not d_grid:
        raise ConfigInvalid("empty d grid")
    if not all(d > 0 for d in d_grid):
        raise ConfigInvalid("powers must be positive")
    if any(b <= a for a, b in zip(d_grid, d_grid[1:])):
        raise ConfigInvalid("d grid must be strictly increasing")
    check_integers("lag range (--lags LO:HI)", lag_min, lag_max)
    if not lag_min <= 0 <= lag_max:
        raise ConfigInvalid("lag range (--lags LO:HI) must contain 0")
    return d_grid


def sweep_powers(r, d_grid, lag_min, lag_max):
    """One correlation profile per power d, over a shared lag grid."""
    d_grid = check_sweep_grid(d_grid, lag_min, lag_max)
    lags, pairs = _check_lags(len(r), np.arange(lag_min, lag_max + 1))
    return SweepResult([
        CorrelationProfile(d, lags, _profile_values(
            r.values, abs_power(r, d), lags)[0], pairs)
        for d in d_grid])
