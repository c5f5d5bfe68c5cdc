"""Synthetic return series with known asymmetry, used as estimator oracles.

All generators are pure functions of (parameters, seed) on the frozen
splitmix64 + Box-Muller stream from `retvol.rng`, so every run (and any
faithful reimplementation) reproduces the same series.
"""

import numpy as np
from dataclasses import dataclass

from . import rng
from .errors import ConfigInvalid, NonStationarySpec
from .fitting import FitPoints
from .ingest import TickSeries
from .returns import ReturnSeries


@dataclass(frozen=True)
class GarchSpec:
    """Asymmetric GARCH(1,1) with an extra ARCH load on negative shocks.

    sigma2_t = omega + (a_arch + leverage * 1[eps_{t-1} < 0]) * eps_{t-1}^2
               + b_garch * sigma2_{t-1}
    """

    omega: float
    a_arch: float
    b_garch: float
    leverage: float
    n: int
    seed: int

    def __post_init__(self):
        if self.omega < 0 or self.a_arch < 0 or self.b_garch < 0:
            raise NonStationarySpec("omega, a_arch, b_garch must be >= 0")
        if self.a_arch + self.leverage < 0:
            raise NonStationarySpec(
                "negative-shock variance loading a_arch + leverage must be >= 0")
        if self.persistence >= 1.0:
            raise NonStationarySpec(
                f"a_arch + b_garch + leverage/2 = {self.persistence} must be < 1")
        if self.n < 1:
            raise NonStationarySpec("n must be >= 1")

    @property
    def persistence(self):
        return self.a_arch + self.b_garch + self.leverage / 2.0

    @property
    def unconditional_variance(self):
        return self.omega / (1.0 - self.persistence)

    @property
    def burn_in(self):
        return int(round(10.0 / (1.0 - self.persistence)))


def gen_iid_gaussian(n, seed, delta_t=120):
    """Standard normal return series; the null model with no asymmetry."""
    if n < 100:
        raise ConfigInvalid(f"need n >= 100 iid returns, got {n}")
    values = rng.standard_normals(seed, n)
    return ReturnSeries(values, delta_t, np.zeros(n, dtype=bool))


def gen_asym_garch(spec, delta_t=120):
    """Simulate the asymmetric GARCH recursion of `spec`.

    Starts from the unconditional variance, discards the spec's burn-in
    prefix, and returns the remaining n values. Positive `leverage`
    makes volatility respond more to negative returns, producing a
    negative return-volatility cross-correlation at small positive lags.
    """
    total = spec.n + spec.burn_in
    z = rng.standard_normals(spec.seed, total)
    eps = _garch_recursion(z, spec.omega, spec.a_arch, spec.b_garch,
                           spec.leverage, spec.unconditional_variance)
    return ReturnSeries(eps[spec.burn_in:], delta_t,
                        np.zeros(spec.n, dtype=bool))


def _garch_recursion(z, omega, a, b, lev, var0):
    # sequential by nature; plain Python loop over pre-drawn shocks
    n = len(z)
    eps = np.empty(n)
    zl = z.tolist()
    s2 = var0
    for t in range(n):
        e = (s2 ** 0.5) * zl[t]
        eps[t] = e
        s2 = omega + (a + (lev if e < 0.0 else 0.0)) * e * e + b * s2
    return eps


def gen_profile_series(model, params, lags, sigma, seed=0, noise_scale=1.0):
    """FitPoints following a decay law plus seeded Gaussian noise.

    Parameters
    ----------
    model : {"power_law", "exponential"}
    params : tuple
        (kappa, gamma) or (alpha, tau).
    lags : sequence of int
        Positive lags used as x.
    sigma : float or array
        Per-point uncertainty; also scales the added noise.
    seed : int
    noise_scale : float
        Noise stddev in units of sigma; 0 gives noise-free points.
    """
    x = np.asarray(lags, dtype=np.float64)
    if np.any(x <= 0):
        raise ConfigInvalid("lags must be positive")
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), x.shape).copy()
    if np.any(sig <= 0):
        raise ConfigInvalid("sigma must be positive")
    if model == "power_law":
        kappa, gamma = params
        y = kappa * x ** (-gamma)
    elif model == "exponential":
        alpha, tau = params
        y = alpha * np.exp(-x / tau)
    else:
        raise ConfigInvalid(f"unknown profile model {model!r}")
    if noise_scale != 0.0:
        y = y + noise_scale * sig * rng.standard_normals(seed, len(x))
    return FitPoints(x, y, sig)


def ticks_from_returns(returns, t0=1420848000, spacing=None, p0=100.0):
    """Turn a return series into an equally spaced tick series.

    One trade per grid step at price p0 * exp(cumsum(returns)), spaced
    `spacing` seconds apart (defaults to the series delta_t) starting at
    t0 rounded up to a spacing multiple, so resampling at `spacing`
    reproduces the prices exactly.
    """
    spacing = int(spacing if spacing is not None else returns.delta_t)
    t_start = -(-int(t0) // spacing) * spacing
    log_p = np.concatenate(([0.0], np.cumsum(returns.values)))
    prices = p0 * np.exp(log_p)
    n = len(prices)
    times = t_start + spacing * np.arange(n, dtype=np.int64)
    return TickSeries(times, prices, np.ones(n), source_label="synthetic")
