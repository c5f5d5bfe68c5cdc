"""Cross-correlation CC_d(j) between returns and powered absolute returns.

For a normalized return series r and its powered companion |r|^d,

    CC_d(j) = E[(r_t - mu_r)(|r_{t+j}|^d - mu_p)] / (sigma_r * sigma_p)

where the mu and sigma are the global moments of each full series
(population convention, so the lag-0 value is an exact Pearson
correlation) and E averages the N - |j| overlapping pairs. Positive j
means the powered series lies in the future of the return series;
negative j pairs returns with past volatility.

Profiles over many lags can be evaluated either by per-lag dot products
or via FFT cross-correlation (`numpy.fft`); both must agree with the
brute-force definition, which is the normative reference (tests enforce
1e-10).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, LagOutOfRange, MissingValues
from .returns import abs_power

MIN_PAIRS = 10


@dataclass
class CorrelationProfile:
    """CC_d(j) over a lag grid for one power d.

    values is None until a sweep fills it (see `sweep_grid`), and
    sigmas until jackknife error estimation does.
    """

    d: float
    lags: np.ndarray
    values: np.ndarray | None
    pair_counts: np.ndarray
    sigmas: np.ndarray | None = None

    def __len__(self):
        return len(self.lags)

    def value_at(self, lag):
        if self.values is None:
            raise MissingValues(f"profile for d={self.d} has no CC values")
        k = int(np.searchsorted(self.lags, lag))
        if k >= len(self.lags) or self.lags[k] != lag:
            raise LagOutOfRange(f"lag {lag} not in profile grid")
        return float(self.values[k])


@dataclass
class SweepResult:
    """One CorrelationProfile per d over a shared lag grid."""

    d_grid: np.ndarray
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
    n = int(round((hi - lo) / step))
    grid = [round(lo + k * step, 10) for k in range(n + 1)]
    if not all(g > 0 for g in grid):
        raise ValueError("powers must be positive")
    return grid


def _centered(x):
    """Center by the full-series mean; raise if the series is constant."""
    x = np.asarray(x, dtype=np.float64)
    # cheap scalar guard first; the full scan only runs when it matches
    if x[0] == x[-1] and np.all(x == x[0]):
        raise DegenerateVariance("series is constant")
    mu = x.mean()
    xc = x - mu
    sigma = math.sqrt(float(np.mean(xc * xc)))
    if sigma == 0.0:
        raise DegenerateVariance("series has zero variance")
    return xc, sigma


def _check_lags(n, lags):
    lags = np.asarray(lags, dtype=np.int64)
    pairs = n - np.abs(lags)
    if np.any(pairs < MIN_PAIRS):
        worst = int(lags[np.argmin(pairs)])
        raise LagOutOfRange(
            f"lag {worst} leaves {n - abs(worst)} pairs (< {MIN_PAIRS}) at N={n}")
    return lags, pairs


def _lag_sums_direct(rc, pc, lags):
    n = len(rc)
    out = np.empty(len(lags))
    for k, j in enumerate(lags):
        j = int(j)
        if j >= 0:
            out[k] = np.dot(rc[:n - j], pc[j:])
        else:
            out[k] = np.dot(rc[-j:], pc[:n + j])
    return out


def next_fast_len(n, real=False):
    """Smallest 5-smooth (real=True) or 11-smooth integer >= n >= 1.

    These are the lengths pocketfft transforms fastest, and the values
    `scipy.fft.next_fast_len` returns. Each odd smooth number q below the
    next power of two is lifted by the fewest doublings that reach n.
    """
    top = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5) if real else (3, 5, 7, 11):
        more = []
        for q in odd:
            q *= p
            while q < top:
                more.append(q)
                q *= p
        odd += more
    return min(q << ((n - 1) // q).bit_length() for q in odd)


def _pick_method(n, lags, method):
    if method != "auto":
        return method
    max_abs = int(np.max(np.abs(lags))) if len(lags) else 0
    nfft = next_fast_len(n + max_abs + 1)
    direct_cost = 2.0 * n * len(lags)
    fft_cost = 15.0 * nfft * math.log2(nfft)
    return "fft" if fft_cost < direct_cost else "direct"


class _LagKernel:
    """Lag sums of one centered return vector against many powered vectors.

    Centers and validates the return side once; `values(pv)` then yields
    the CC profile for any aligned powered series. The FFT of the return
    side is cached, which is what makes jackknife sweeps (one return
    vector, many powers) cheap.
    """

    def __init__(self, rv, lags, method="auto"):
        self.n = len(rv)
        self.lags, self.pairs = _check_lags(self.n, lags)
        self.rc, self.sig_r = _centered(rv)
        self.how = _pick_method(self.n, self.lags, method)
        if self.how == "fft":
            max_abs = int(np.max(np.abs(self.lags)))
            self.nfft = next_fast_len(self.n + max_abs + 1)
            self.rc_fft = np.conj(np.fft.rfft(self.rc, self.nfft))
            self.idx = np.where(self.lags >= 0, self.lags, self.nfft + self.lags)
        elif self.how != "direct":
            raise ValueError(f"unknown method {self.how!r}")

    def values(self, pv):
        if len(pv) != self.n:
            raise ValueError("series length mismatch")
        pc, sig_p = _centered(pv)
        if self.how == "fft":
            corr = np.fft.irfft(self.rc_fft * np.fft.rfft(pc, self.nfft), self.nfft)
            sums = corr[self.idx]
        else:
            sums = _lag_sums_direct(self.rc, pc, self.lags)
        return sums / self.pairs / (self.sig_r * sig_p)


def _profile_values(rv, pv, lags, method="auto"):
    """CC values over `lags` for raw arrays rv (returns) and pv (powered)."""
    kernel = _LagKernel(rv, lags, method=method)
    return kernel.values(pv), kernel.pairs


def cross_correlation(r, pw, j):
    """CC_d(j) for one signed lag.

    Parameters
    ----------
    r : NormalizedReturns
    pw : PoweredSeries
        Powered absolute values of the same series.
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
    """
    values, _ = _profile_values(r.values, pw.values, [int(j)], method="direct")
    return float(values[0])


def correlation_profile(r, d, lag_min, lag_max, method="auto"):
    """CC_d(j) for every lag in [lag_min, lag_max].

    The lag grid must straddle zero. `method` picks the evaluation
    strategy ("direct", "fft", or "auto" by estimated cost); the result
    is the same to well below 1e-10 either way.
    """
    if not (lag_min <= 0 <= lag_max):
        raise ValueError("lag range must contain 0")
    lags = np.arange(lag_min, lag_max + 1, dtype=np.int64)
    pw = abs_power(r, d)
    values, pairs = _profile_values(r.values, pw.values, lags, method=method)
    return CorrelationProfile(float(d), lags, values, pairs)


def sweep_grid(r, d_grid, lag_min, lag_max):
    """The profiles of a power sweep before anything is computed.

    Checks the d grid (positive, strictly increasing) and the lag range
    (straddles 0, >= 10 pairs at every lag) and returns a SweepResult
    whose profiles carry their pair counts, with values and sigmas None.
    """
    d_grid = [float(d) for d in d_grid]
    if not d_grid:
        raise ValueError("empty d grid")
    if any(d <= 0 for d in d_grid):
        raise ValueError("powers must be positive")
    if any(b <= a for a, b in zip(d_grid, d_grid[1:])):
        raise ValueError("d grid must be strictly increasing")
    if not (lag_min <= 0 <= lag_max):
        raise ValueError("lag range must contain 0")
    lags, pairs = _check_lags(len(r), np.arange(lag_min, lag_max + 1))
    return SweepResult(np.asarray(d_grid), [
        CorrelationProfile(d, lags, None, pairs) for d in d_grid])


def sweep_powers(r, d_grid, lag_min, lag_max, method="auto"):
    """One correlation profile per power d, over a shared lag grid.

    Every power is correlated with the same centred returns, whose
    transform is computed once.
    """
    sweep = sweep_grid(r, d_grid, lag_min, lag_max)
    kernel = _LagKernel(r.values, sweep.profiles[0].lags, method=method)
    return SweepResult(sweep.d_grid, [
        CorrelationProfile(p.d, p.lags, kernel.values(abs_power(r, p.d).values),
                           p.pair_counts)
        for p in sweep.profiles])
