"""Fixed-interval price grids from irregular ticks (previous-tick sampling)."""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigInvalid, InsufficientData, InvalidPriceSeries,
                     InvalidTicks)

# gap policies: what the returns module does with a gap point's return
CARRY_FORWARD = "carry_forward"
DROP_INTERVAL = "drop_interval"

SECONDS_PER_DAY = 86400


@dataclass
class PriceSeries:
    """Prices on a regular grid t0 + k*delta_t (unix seconds, UTC).

    gap_mask[k] is True when no trade occurred in (t[k-1], t[k]]; the
    grid point then repeats the previous price.
    """

    delta_t: int
    t0: int
    prices: np.ndarray
    gap_mask: np.ndarray

    def __post_init__(self):
        if len(self.prices) < 2:
            raise InsufficientData("price series needs >= 2 grid points")
        if not np.all(self.prices > 0):
            raise InvalidPriceSeries("prices must be positive")
        if len(self.gap_mask) != len(self.prices):
            raise InvalidPriceSeries("gap_mask must align with prices")

    def __len__(self):
        return len(self.prices)

    @property
    def times(self):
        return self.t0 + self.delta_t * np.arange(len(self.prices), dtype=np.int64)

    @property
    def gap_fraction(self):
        """Share of grid points carried forward through trade-free intervals."""
        return float(np.mean(self.gap_mask))


def check_delta_t(delta_t):
    """delta_t as an int; ConfigInvalid unless it is a number >= 1 second."""
    try:
        if int(delta_t) >= 1:
            return int(delta_t)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigInvalid("delta_t (--delta-t) must be >= 1 second")


def resample(ticks, delta_t):
    """Sample a tick series onto a fixed grid with the previous-tick rule.

    The grid is anchored at multiples of `delta_t` from the UTC epoch:
    the first point is the first tick's timestamp rounded up, the last
    is the first grid time at or after the final tick, so every grid
    point has a defined price and the last trade is always represented.
    Points with no trade since the one before are flagged in `gap_mask`;
    the gap policy, applied to the returns, decides what becomes of them.

    Parameters
    ----------
    ticks : TickSeries
        Non-empty, sorted by timestamp.
    delta_t : int
        Grid spacing in seconds, > 0.

    Returns
    -------
    PriceSeries

    Raises
    ------
    ConfigInvalid
        delta_t < 1.
    InsufficientData
        Fewer than 2 grid points are covered by the ticks.
    InvalidTicks
        Timestamps out of order.
    """
    delta_t = check_delta_t(delta_t)
    n = len(ticks)
    if n == 0:
        raise InsufficientData("empty tick series")
    t = ticks.timestamps
    if n > 1 and not np.all(t[1:] >= t[:-1]):
        raise InvalidTicks("tick series must be sorted by timestamp")

    t_first = int(t[0])
    t_last = int(t[-1])
    t0 = -(-t_first // delta_t) * delta_t
    # last grid point: the first grid time at or after the final tick
    n_grid = -(-(t_last - t0) // delta_t) + 1 if t_last >= t0 else 1
    if n_grid < 2:
        raise InsufficientData(
            f"ticks cover {n_grid} grid point(s) at delta_t={delta_t}")

    grid = t0 + delta_t * np.arange(n_grid, dtype=np.int64)
    # index of the last tick at or before each grid time; ties resolve to
    # the last record in file order, matching previous-tick semantics
    idx = np.searchsorted(t, grid, side="right") - 1
    prices = ticks.prices[idx]
    gap_mask = np.empty(n_grid, dtype=bool)
    gap_mask[0] = False
    gap_mask[1:] = idx[1:] == idx[:-1]
    return PriceSeries(delta_t, t0, prices, gap_mask)


def daily_close_series(ticks):
    """One price per UTC calendar day: the last trade at or before the
    following midnight. Identical to `resample` at delta_t = 86400,
    whose epoch-multiple anchor is exactly UTC midnight.
    """
    return resample(ticks, SECONDS_PER_DAY)
