"""Log returns, normalized returns, and powered absolute returns."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DegenerateVariance
from .sampling import CARRY_FORWARD, DROP_INTERVAL

_MIN_LEN = 2


@dataclass
class ReturnSeries:
    """Log returns on a fixed grid; one value per consecutive price pair.

    source_gap_mask[i] is True when the interval ending the i-th return
    had no trades (the return is then an exact zero under carry-forward
    sampling).
    """

    values: np.ndarray
    delta_t: int
    source_gap_mask: np.ndarray

    def __len__(self):
        return len(self.values)


@dataclass
class NormalizedReturns:
    """Returns centered and scaled to unit sample standard deviation."""

    values: np.ndarray
    mean_raw: float
    sigma_raw: float

    def __len__(self):
        return len(self.values)


def log_returns(prices):
    """Logarithmic price differences of a PriceSeries.

    values[i] = ln(prices[i+1]) - ln(prices[i]); length N-1. The gap
    mask shifts with the interval that *ends* each return.
    """
    p = np.asarray(prices.prices, dtype=np.float64)
    values = np.diff(np.log(p))
    return ReturnSeries(values, prices.delta_t, prices.gap_mask[1:].copy())


def drop_gap_returns(returns):
    """Remove returns whose interval had no trades (drop_interval policy)."""
    keep = ~returns.source_gap_mask
    return ReturnSeries(returns.values[keep], returns.delta_t,
                        np.zeros(int(keep.sum()), dtype=bool))


def check_gap_policy(policy):
    """ConfigInvalid unless `policy` is carry_forward or drop_interval."""
    if policy not in (CARRY_FORWARD, DROP_INTERVAL):
        raise ConfigInvalid(f"unknown gap policy (--gap-policy) {policy!r}")


def apply_gap_policy(returns, policy=CARRY_FORWARD):
    """Returns under a gap policy: carry_forward keeps the exact-zero
    returns of trade-free intervals, drop_interval removes them."""
    check_gap_policy(policy)
    return drop_gap_returns(returns) if policy == DROP_INTERVAL else returns


def standardize(returns):
    """Center and scale returns: r_i = (R_i - mean) / sample_std.

    Uses the sample (N-1 denominator) standard deviation; the raw mean
    and sigma are kept on the result for reporting.

    Raises
    ------
    DegenerateVariance
        The input is constant.
    """
    r = np.asarray(returns.values, dtype=np.float64)
    if len(r) < _MIN_LEN:
        raise DegenerateVariance("need >= 2 returns to standardize")
    mean = float(r.mean())
    sigma = float(r.std(ddof=1))
    if sigma == 0.0 or np.all(r == r[0]):
        raise DegenerateVariance("constant return series")
    return NormalizedReturns((r - mean) / sigma, mean, sigma)


def abs_power(r, d):
    """Elementwise |r_i|^d as a new numpy array, for d > 0 (else
    ConfigInvalid); |0|^d is exactly 0."""
    if not d > 0:
        raise ConfigInvalid(f"power d must be > 0, got {d}")
    values = r.values if isinstance(r, NormalizedReturns) else np.asarray(r)
    powered = np.abs(values, dtype=np.float64)
    powered **= float(d)
    return powered
