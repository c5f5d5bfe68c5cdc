"""Delete-one-block jackknife errors for cross-correlation profiles.

Returns are serially dependent (volatility clustering), so the deleted
unit is a contiguous block, not a single point (Künsch 1989). Deleting
block b splices its neighbours together, and theta_b is CC_d(j) of that
reduced series with its global moments re-estimated from scratch.

No reduced series is ever built. A lag sum is a sum of window sums: a
window holds the pairs whose return element lies in one segment of
whole blocks, so it spans the segment plus max|lag| points beyond
either edge. Deleting b changes only b's own segment and the windows
that reach across b into the splice; those few are recomputed over the
reduced series, and every other window is shared by all deletions.
rFFTs over blocks of window rows give every window sum. The reduced
moments come from per-block sums and centred sums of squares, combined
as in the pairwise update of Chan, Golub & LeVeque (1983). Each theta_b
is summed one window at a time in reduced-series order, reusing the
sequential prefix of the windows before b, so identical reduced series
give bit-identical thetas. Work per power and the shared index and x
spectrum grow as N + B * max|lag|; recomputing reduced series costs B * N.

The same pass yields CC_d(j) itself: the full-series windows, summed in
series order, are the full-series lag sums, scaled by the global
moments. Powers are independent, so `workers` threads each take one
power at a time; results come back in grid order and do not depend on
the thread count. Each thread holds its power's N-long arrays and
window lag sums, and transforms the windows a block of rows at a time.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .crosscorr import (CorrelationProfile, SweepResult, _check_lags,
                        _sweep_lags, next_fast_len)
from .errors import ConfigInvalid, DegenerateVariance
from .returns import abs_power

# window rows are transformed in blocks of this many bytes of nfft-long rows
_ROW_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class JackknifeConfig:
    """Delete-one-block block count; each block must keep >= 20 points."""

    n_blocks: int = 100

    def __post_init__(self):
        if self.n_blocks < 2:
            raise ConfigInvalid("n_blocks must be >= 2")

    def validate_for(self, n):
        if self.n_blocks > n // 20:
            raise ConfigInvalid(
                f"n_blocks={self.n_blocks} too large for N={n}: "
                f"each block must keep >= 20 points")


def block_bounds(n, n_blocks):
    """Contiguous block boundaries: block b is [bounds[b], bounds[b+1])."""
    return [(b * n) // n_blocks for b in range(n_blocks + 1)]


class _Deletions:
    """Index layout of every window and reduced series; power-independent.

    Windows belong to segments of g whole blocks, at least max|lag|
    long, so a deletion changes at most the windows of its own segment
    and of the two next to it (g = 1 once blocks reach max|lag|).
    Window rows 0..S-1 are the segments' windows in the full series.
    After them come, for each deleted block b in turn, the windows that
    reach across b into the splice, laid over b's reduced series; b's
    own segment loses b there. b's lag sums add, in series order, the
    full-series windows before `lead[b]`, the rows `spliced[b]` (-1
    pads) and the full-series windows t with `before[t] > b`.
    """

    def __init__(self, n, n_blocks, lags):
        bounds = np.asarray(block_bounds(n, n_blocks))
        self.starts, ends = bounds[:-1], bounds[1:]
        self.lens = ends - self.starts
        self.m = n - self.lens
        self.lags, _ = _check_lags(int(self.m.min()), lags)
        self.pairs = self.m[:, None] - np.abs(self.lags)
        left = -int(self.lags.min(initial=0))
        right = int(self.lags.max(initial=0))
        reach = max(left, right)

        g = max(1, -(-reach // int(self.lens.min())))
        seg_lo = self.starts[::g]
        seg_hi = np.append(seg_lo[1:], n)
        n_seg = len(seg_lo)
        blocks = np.arange(n_blocks)
        own = blocks // g
        # segments before b's own whose window ends past b's start, and
        # after it whose window starts before b's end
        self.lead = np.minimum(
            np.searchsorted(seg_hi + right, self.starts, "right"), own)
        last = np.maximum(
            np.searchsorted(seg_lo - left, ends, "left") - 1, own)
        self.spliced = np.full((n_blocks, int(np.max(last - self.lead)) + 1), -1)
        row_b, row_t = [], []
        for b in blocks:
            ts = [t for t in range(self.lead[b], last[b] + 1)
                  if t != own[b] or seg_hi[t] - seg_lo[t] > self.lens[b]]
            self.spliced[b, :len(ts)] = n_seg + len(row_t) + np.arange(len(ts))
            row_b += [b] * len(ts)
            row_t += ts
        # segment t's own window comes after the splice of every b < before[t]
        self.before = np.searchsorted(last, np.arange(n_seg), "left")
        self.n_seg = n_seg

        # each row's return elements [x_lo, x_hi) in its reduced series
        rb = np.concatenate((np.full(n_seg, -1), row_b)).astype(np.int64)
        rt = np.concatenate((np.arange(n_seg), row_t)).astype(np.int64)
        gone = np.where(rb >= 0, self.lens[rb], 0)
        mine = np.where(rb >= 0, own[rb], n_seg)
        x_lo = seg_lo[rt] - gone * (rt > mine)
        x_hi = seg_hi[rt] - gone * (rt >= mine)
        self.nfft = next_fast_len(int(np.max(x_hi - x_lo)) + left + right)
        step = max(1, _ROW_BLOCK_BYTES // (8 * self.nfft))
        self.row_blocks = [slice(i, i + step) for i in range(0, len(rt), step)]
        # window column c is position x_lo - left + c: x fills the columns
        # [left, x_end), y reaches max|lag| past them (n: the appended 0)
        self.left, self.x_end = left, (x_hi - x_lo + left)[:, None]
        y_hi = np.minimum(x_hi + right, n - gone)[:, None]
        self.y_idx = np.empty((len(rt), self.nfft), np.intp)
        for rows in self.row_blocks:
            pos = (x_lo[rows] - left)[:, None] + np.arange(self.nfft)
            self.y_idx[rows] = np.where((pos >= 0) & (pos < y_hi[rows]),
                                        self._full_index(pos, rb[rows, None]), n)

        edge = np.arange(reach)
        self.head_idx = self._full_index(edge[None, :], blocks[:, None])
        self.tail_idx = self._full_index(self.m[:, None] - 1 - edge,
                                         blocks[:, None])

    def _full_index(self, pos, b):
        """Full-series index of position `pos` of b's reduced series.

        b = -1 stands for the full series itself.
        """
        return pos + np.where((b >= 0) & (pos >= self.starts[b]), self.lens[b], 0)

    def moments(self, v):
        """Moments of every reduced series of v, built from per-block ones.

        Returns v shifted by its full-series mean with a 0 appended, the
        full-series population sigma, the reduced sums, means and
        population sigmas (B,), and the sums of the first and of the last
        i points of each reduced series (B, max|lag| + 1).
        """
        other = ~np.eye(len(self.starts), dtype=bool)
        lo = np.minimum.reduceat(v, self.starts)
        hi = np.maximum.reduceat(v, self.starts)
        if np.any(np.where(other, hi, -np.inf).max(axis=1)
                  == np.where(other, lo, np.inf).min(axis=1)):
            raise DegenerateVariance("series is constant")

        shifted = np.zeros(len(v) + 1)
        v = np.subtract(v, v.mean(), out=shifted[:-1])
        # the global moment of `_centered`, which the CC values use
        sd = math.sqrt(float(np.mean(v * v)))
        s = np.add.reduceat(v, self.starts)
        mu_k = s / self.lens
        dev = v - np.repeat(mu_k, self.lens)
        dev *= dev
        m2 = np.add.reduceat(dev, self.starts)
        # cumsum adds the blocks one at a time in series order; the
        # deleted block contributes an exact 0
        total = np.cumsum(np.where(other, s, 0.0), axis=1)[:, -1]
        mu = total / self.m
        ss = np.cumsum(np.where(other, m2 + self.lens * (mu_k - mu[:, None]) ** 2,
                                0.0), axis=1)[:, -1]
        if sd == 0.0 or np.any(ss == 0.0):
            raise DegenerateVariance("series has zero variance")

        zero = np.zeros((len(self.starts), 1))
        head = np.hstack((zero, np.cumsum(shifted[self.head_idx], axis=1)))
        tail = np.hstack((zero, np.cumsum(shifted[self.tail_idx], axis=1)))
        return shifted, sd, total, mu, np.sqrt(ss / self.m), head, tail

    def in_reduced_order(self, rows):
        """The full-series sum of the window rows (lags,), and per
        deletion b the sum of its windows' rows (B, lags)."""
        lead = np.cumsum(rows[:self.n_seg], axis=0)
        acc = np.where((self.lead > 0)[:, None], lead[self.lead - 1], 0.0)
        for col in self.spliced.T:
            has = col >= 0
            acc[has] += rows[col[has]]
        for t, n_b in enumerate(self.before):
            acc[:n_b] += rows[t]
        return lead[-1], acc


def _sigma_from_thetas(thetas):
    nb = thetas.shape[0]
    # shift by theta_0 before centering so identical estimates give an
    # exact zero instead of mean-rounding dust
    dev = thetas - thetas[0]
    dev -= dev.mean(axis=0)
    return np.sqrt((nb - 1) / nb * np.sum(dev * dev, axis=0))


def _sweep(r, ds, lags, cfg, workers=1):
    """CC_d(j) and its jackknife sigma, each (len(ds), len(lags)), per d in ds."""
    x = np.asarray(r.values, dtype=np.float64)
    cfg.validate_for(len(x))
    dl = _Deletions(len(x), cfg.n_blocks, lags)
    cut, fwd = np.abs(dl.lags), dl.lags > 0
    full_pairs = len(x) - cut

    x, sdx, tx, mx, sx, xhead, xtail = dl.moments(x)
    cols = np.arange(dl.nfft)
    x_spec = np.empty((len(dl.y_idx), dl.nfft // 2 + 1), complex)
    for rows in dl.row_blocks:
        x_in = (cols >= dl.left) & (cols < dl.x_end[rows])
        x_spec[rows] = np.conj(np.fft.rfft(np.where(x_in, x[dl.y_idx[rows]], 0.0)))
    # the pairs at lag j leave out the last (j > 0) or first |j| returns
    sum_x = tx[:, None] - np.where(fwd, xtail[:, cut], xhead[:, cut])

    def one(d):
        y, sdy, ty, my, sy, yhead, ytail = dl.moments(abs_power(r, d).values)
        windows = np.empty((len(dl.y_idx), len(dl.lags)))
        for rows in dl.row_blocks:
            spec = np.fft.rfft(y[dl.y_idx[rows]])
            spec *= x_spec[rows]
            windows[rows] = np.fft.irfft(spec, dl.nfft)[:, dl.lags % dl.nfft]
        sum_y = ty[:, None] - np.where(fwd, yhead[:, cut], ytail[:, cut])
        full, reduced = dl.in_reduced_order(windows)
        cov = (reduced - my[:, None] * sum_x
               - mx[:, None] * sum_y + dl.pairs * (mx * my)[:, None])
        return (full / full_pairs / (sdx * sdy),
                _sigma_from_thetas(cov / dl.pairs / (sx * sy)[:, None]))

    if workers > 1 and len(ds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(one, ds))
    else:
        out = [one(d) for d in ds]
    values, sigmas = zip(*out)
    return np.array(values), np.array(sigmas)


def jackknife_sigma(r, d, lags, cfg=JackknifeConfig(), workers=1):
    """One-sigma jackknife errors of CC_d(j) at the given lags.

    For each of the B blocks, CC_d(j) is recomputed with that block
    deleted (theta_b); the variance estimate is

        sigma^2(j) = (B - 1) / B * sum_b (theta_b - mean_b theta)^2

    Parameters
    ----------
    r : NormalizedReturns
    d : float
        Power applied to absolute returns.
    lags : sequence of int
        Signed lags, same convention as `cross_correlation`.
    cfg : JackknifeConfig
    workers : int
        Accepted for compatibility: a single power runs on one thread
        (`sweep_with_sigmas` spreads powers over threads), and the
        result is identical for any value.

    Returns
    -------
    numpy.ndarray
        sigma(j) >= 0 aligned with `lags`.
    """
    return _sweep(r, [float(d)], lags, cfg)[1][0]


def sweep_with_sigmas(r, d_grid, lag_min, lag_max, cfg=JackknifeConfig(),
                      workers=1):
    """CC_d(j) and its jackknife sigma for every d in `d_grid` and every
    lag in [lag_min, lag_max].

    The grid and lags are checked as in `sweep_powers`, and one pass per
    power gives both values and sigmas. The values agree with
    `sweep_powers` to rounding, and each profile's sigmas equal
    `jackknife_sigma` at its power bit for bit. The powers are spread
    over `workers` threads, which changes no result.
    """
    ds, lags, pairs = _sweep_lags(len(r), d_grid, lag_min, lag_max)
    values, sigmas = _sweep(r, ds, lags, cfg, workers)
    return SweepResult(np.asarray(ds), [
        CorrelationProfile(d, lags, v, pairs, sigmas=s)
        for d, v, s in zip(ds, values, sigmas)])
