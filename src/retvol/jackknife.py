"""Delete-one-block jackknife errors for cross-correlation profiles.

Returns are serially dependent (volatility clustering), so the deleted
unit is a contiguous block, not a single point (Künsch 1989). Deleting
block b = [s_b, e_b) splices its neighbours together, and theta_b is
CC_d(j) of that reduced series with its global moments re-estimated.

No reduced series is ever built. With R = max|lag|, lag sums are
taken over these pairs:

    P_b   the pairs inside block b;
    J(p)  the pairs crossing boundary p: R points either side of it;
    Sp_b  the pairs across the splice left by deleting b (the R points
          before s_b against the R after e_b), at reduced lags;
    X_b   the same pairs at full lags, which straddle all of b: nonzero
          only if b is shorter than R, read from Sp_b's output.

A pair crossing several boundaries straddles the blocks between them,
so the full-series lag sums are S = sum P_b + sum J(p) - sum X_b, and
deleting b leaves S - ((P_b + J(e_b)) + (J(s_b) - Sp_b)) + X_b, where
J(s_0), J(e_{B-1}) and the end blocks' Sp and X are 0. Work per power
grows as N + B * R instead of B * N. J(s_b) - Sp_b is exactly 0 when
the R points after s_b equal those after e_b, so a series of identical
blocks of at least max|lag| points gives sigma exactly 0. A reduced
series' sums of v and v^2 are the full series' less the deleted
block's, with v centred on the full-series mean, and its sum of squares
about its own mean mu is sum v^2 - m mu^2. The lag sums are centred
with sums over a reduced series' first and last R points, the full
series' unless the deleted block lies within R of that end.

The same pass yields CC_d(j) itself from S and the global moments.
Powers are independent, so `workers` threads each take one power at a
time, transforming its rows a block of rows at a time; results come
back in grid order and do not depend on the thread count.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .crosscorr import (POWER_OVERFLOW, CorrelationProfile, SweepResult,
                        _check_lags, check_sweep_grid)
from .errors import ConfigInvalid, DegenerateVariance
from .sampling import check_integers

# rows go through the FFTs in cache-sized blocks of this many bytes
_ROW_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class JackknifeConfig:
    """Delete-one-block block count, an integer; `validate_for(N)` checks
    it is 2 to N // 20, so that each block keeps >= 20 points."""

    n_blocks: int = 100

    def __post_init__(self):
        check_integers("jackknife blocks (--jk-blocks)", self.n_blocks)

    def validate_for(self, n):
        if not 2 <= self.n_blocks <= n // 20:
            raise ConfigInvalid(
                f"jackknife blocks (--jk-blocks) must be 2 to N // 20 = {n // 20}"
                f" at N={n}, each block >= 20 points; got {self.n_blocks}")


def block_bounds(n, n_blocks):
    """Contiguous block boundaries: block b is [bounds[b], bounds[b+1])."""
    return [(b * n) // n_blocks for b in range(n_blocks + 1)]


class _Deletions:
    """Index layout of the block and junction rows; power-independent.

    Block row b holds block b's points, and junction row i the R points
    before and the R points from boundary s_{i+1}, each from column 0.
    Positions outside the series index the 0 appended past its end.
    """

    def __init__(self, n, n_blocks, lags):
        bounds = np.asarray(block_bounds(n, n_blocks))
        self.starts, ends = bounds[:-1], bounds[1:]
        self.lens = ends - self.starts
        self.m = n - self.lens
        self.local = threading.local()
        self.lags, _ = _check_lags(int(self.m.min()), lags)
        self.pairs = self.m[:, None] - np.abs(self.lags)
        self.reach = reach = int(np.abs(self.lags).max(initial=0))

        cols = np.arange(int(self.lens.max()))
        # blocks of one length are rows of a view of the series
        self.block_idx = None if n % n_blocks == 0 else np.where(
            cols < self.lens[:, None], self.starts[:, None] + cols, n)
        self.block_nfft = next_fast_len(len(cols) + reach)
        self.block_rows = _row_blocks(n_blocks, self.block_nfft)
        edge = np.arange(reach)
        at = self.starts[1:, None] + edge
        self.before_idx = np.where(at >= reach, at - reach, n)
        self.after_idx = np.minimum(at, n)
        self.junction_nfft = nj = next_fast_len(max(3 * reach, 1))
        self.junction_rows = _row_blocks(n_blocks - 1, nj)

        # X_b(j) is nonzero only at the `wide` lags |j| > len_b, where it
        # is Sp_b at reduced lag j -+ len_b: flat index b * nj + column
        self.wide = np.flatnonzero(np.abs(self.lags) > self.lens.min())
        wide = self.lags[self.wide]
        self.straddle = np.abs(wide) > self.lens[:, None]
        self.straddle_at = (np.arange(n_blocks)[:, None] * nj
                            + (wide - np.sign(wide) * self.lens[:, None]) % nj)

        # indices of the first and last R points of the full series (end
        # row 0) and of each reduced series that deletes points from them
        near = (self.starts < reach) | (ends > n - reach)
        self.end_row = np.cumsum(near) * near
        at = np.append(n, self.starts[near])[:, None]
        width = np.append(0, self.lens[near])[:, None]
        self.head_idx, self.tail_idx = (
            pos + np.where(pos >= at, width, 0)
            for pos in (edge, n - width - 1 - edge))

    def moments(self, v):
        """Moments of every reduced series of v, built from per-block ones.

        Returns v less its full-series mean with a 0 appended (this
        thread's buffer until its next call), the full-series population
        sigma, the reduced sums, means and population sigmas (B,), and in
        column R + i (R - i) the sum of each end row's last (first) i points.
        """
        lo = np.minimum.reduceat(v, self.starts)
        hi = np.maximum.reduceat(v, self.starts)
        # all blocks but b span the overall range, bar the next extreme
        hi_out, lo_out = np.full((2, len(hi)), [[hi.max()], [lo.min()]])
        hi_out[hi.argmax()], lo_out[lo.argmin()] = (np.partition(hi, -2)[-2],
                                                    np.partition(lo, 1)[1])
        if np.any(hi_out == lo_out):
            raise DegenerateVariance("series is constant")

        shifted = self.scratch("shifted", len(v) + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.subtract(v, v.mean(), out=shifted[:-1])
            sq = np.multiply(v, v, out=self.scratch("sq", len(v)))
            # the global moment of `_centered`, which the CC values use
            sd = math.sqrt(float(np.mean(sq)))
        if not math.isfinite(sd):
            raise ConfigInvalid(POWER_OVERFLOW)
        total, squares = (a.sum() - a for a in (
            np.add.reduceat(v, self.starts), np.add.reduceat(sq, self.starts)))
        mu = total / self.m
        ss = squares - total * mu
        if sd == 0.0 or np.any(ss <= 0.0):
            raise DegenerateVariance("series has zero variance")

        head = np.cumsum(shifted[self.head_idx], axis=1)
        tail = np.cumsum(shifted[self.tail_idx], axis=1)
        ends = np.hstack((head[:, ::-1], np.zeros((len(head), 1)), tail))
        return shifted, sd, total, mu, np.sqrt(ss / self.m), ends

    def blocks(self, v, rows):
        """Block rows `rows` of v, a series with a 0 appended."""
        return (v[:-1].reshape(len(self.lens), -1)[rows]
                if self.block_idx is None else v[self.block_idx[rows]])

    def scratch(self, name, shape):
        """This thread's array `name`: fresh ones fault in every page."""
        if not hasattr(self.local, name):
            setattr(self.local, name, np.zeros(shape))
        return getattr(self.local, name)


def next_fast_len(n):
    """Smallest 5-smooth integer >= n >= 1.

    These are the lengths at which pocketfft transforms real input
    fastest. Each odd smooth number q below the next power of two is
    lifted by the fewest doublings that reach n.
    """
    top = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5):
        more = []
        for q in odd:
            q *= p
            while q < top:
                more.append(q)
                q *= p
        odd += more
    return min(q << ((n - 1) // q).bit_length() for q in odd)


def _row_blocks(n_rows, nfft):
    """Slices of rows that keep each block near `_ROW_BLOCK_BYTES`."""
    step = max(1, _ROW_BLOCK_BYTES // (8 * nfft))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def _sweep(r, ds, lags, cfg, workers=1):
    """CC_d(j) and its jackknife sigma, each (len(ds), len(lags)), per d in ds."""
    series = np.asarray(r.values, dtype=np.float64)
    # a constant |r|, so |r|^d, comes before the block count; real data
    # fails the scalar guard and is spared the scan
    if len(series) and abs(series[0]) == abs(series[-1]) and np.all(
            np.abs(series) == abs(series[0])):
        raise DegenerateVariance("series is constant")
    cfg.validate_for(len(series))
    dl = _Deletions(len(series), cfg.n_blocks, lags)
    full_pairs = len(series) - np.abs(dl.lags)

    # x is read only here, before a power on this thread reuses its buffer
    x, sdx, tx, mx, sx, xends = dl.moments(series)
    nb, nj, reach = dl.block_nfft, dl.junction_nfft, dl.reach
    x_block = np.empty((len(dl.lens), nb // 2 + 1), complex)
    for rows in dl.block_rows:
        x_block[rows] = np.conj(np.fft.rfft(dl.blocks(x, rows), nb))
    # y's junction points start at column 0 and x's sit at their offset
    # from y's first point (the R before a boundary wrap to the row's
    # end), so an output column is the lag of its pairs
    xa, xb = np.zeros((2, len(dl.before_idx), nj))
    xa[:, nj - reach:] = x[dl.before_idx]
    xb[:, reach:2 * reach] = x[dl.after_idx]
    xa, xb = np.conj(np.fft.rfft(xa)), np.conj(np.fft.rfft(xb))
    # the pairs at lag j leave out the last (j > 0) or first |j| returns;
    # with the powers' means, these centre each reduced series' lag sums
    x_centre = (tx[:, None] - xends[:, reach + dl.lags][dl.end_row]
                - dl.pairs * mx[:, None])
    x_scale = 1.0 / (dl.pairs * sx[:, None])
    block_cols, junction_cols = dl.lags % nb, dl.lags % nj
    near_end = np.flatnonzero(dl.end_row)

    def one(d):
        # |r|^d goes into the zero-padded buffer and is centred in place
        y = np.abs(series, out=dl.scratch("shifted", len(x))[:-1])
        with np.errstate(over="ignore"):  # moments reports an overflow
            y **= d
        y, sdy, ty, my, sy, yends = dl.moments(y)
        # acc[b] starts as P_b; junction[p] is J(s_p) (0 at both ends),
        # splice[b] Sp_b and straddle[b] X_b (0 for the end blocks)
        acc, splice = dl.scratch("sums", (2, len(dl.lens), len(dl.lags)))
        junction = dl.scratch("junction", (len(dl.lens) + 1, len(dl.lags)))
        straddle = np.empty(dl.straddle.shape)
        junction[[0, -1]] = splice[[0, -1]] = straddle[[0, -1]] = 0.0
        for rows in dl.block_rows:
            spec = np.fft.rfft(dl.blocks(y, rows), nb)
            spec *= x_block[rows]
            acc[rows] = np.fft.irfft(spec, nb)[:, block_cols]
        for rows in dl.junction_rows:
            i, k = rows.start, rows.stop - rows.start
            before = np.fft.rfft(y[dl.before_idx[rows]], nj)
            after = np.fft.rfft(y[dl.after_idx[i:i + k + 1]], nj)
            # J(s_{i+1}) .. J(s_{i+k}), then Sp of the blocks i + 1 .. i + k2
            # (those with two neighbours); J and Sp multiply in the same
            # operand order, so equal inputs give bit-equal spectra
            k2 = len(after) - 1
            b = slice(i + 1, i + 1 + k2)
            spec = np.empty((k + k2, nj // 2 + 1), complex)
            np.multiply(xa[rows], after[:k], out=spec[:k])
            np.multiply(xa[i:i + k2], after[1:], out=spec[k:])
            spec[k:] += np.multiply(before[:k2], xb[b], out=after[1:])
            before *= xb[rows]
            spec[:k] += before
            out = np.fft.irfft(spec, nj)
            sums = out[:, junction_cols]
            junction[i + 1:i + 1 + k], splice[b] = sums[:k], sums[k:]
            at = dl.straddle_at[b] - (i + 1) * nj
            straddle[b] = out[k:].take(at) * dl.straddle[b]
        full = acc.sum(axis=0) + junction.sum(axis=0)
        full[dl.wide] -= straddle.sum(axis=0)
        acc += junction[1:]
        acc += np.subtract(junction[:-1], splice, out=splice)
        cov = np.subtract(full, acc, out=acc)
        cov[:, dl.wide] += straddle
        # the centring terms, each row's end sums from its end row
        ye = yends[:, reach - dl.lags]
        term = np.multiply(mx[:, None], ye[0], out=splice)
        term[near_end] = mx[near_end, None] * ye[dl.end_row[near_end]]
        term -= (mx * ty)[:, None]
        cov += term
        cov -= np.multiply(x_centre, my[:, None], out=splice)
        cov *= x_scale
        cov *= (1.0 / sy)[:, None]
        # the jackknife variance of the thetas; shifting them by theta_0
        # first gives identical estimates an exact 0, not rounding dust
        cov -= cov[0].copy()
        cov -= cov.mean(axis=0)
        return full / full_pairs / (sdx * sdy), np.sqrt(
            (len(cov) - 1) / len(cov) * np.einsum("ij,ij->j", cov, cov))

    if workers > 1 and len(ds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(one, ds))
    else:
        out = [one(d) for d in ds]
    values, sigmas = zip(*out)
    return np.array(values), np.array(sigmas)


def jackknife_sigma(r, d, lags, cfg=JackknifeConfig()):
    """One-sigma jackknife errors sigma(j) >= 0 of CC_d(j), d > 0, at the
    signed integer lags `lags` (as in `cross_correlation`), in their order.

    For each of the B blocks, CC_d(j) is recomputed with that block
    deleted (theta_b); the variance estimate is

        sigma^2(j) = (B - 1) / B * sum_b (theta_b - mean_b theta)^2
    """
    if not d > 0:
        raise ConfigInvalid(f"power d must be > 0, got {d}")
    return _sweep(r, [float(d)], lags, cfg)[1][0]


def sweep_with_sigmas(r, d_grid, lag_min, lag_max, cfg=JackknifeConfig(),
                      workers=1):
    """CC_d(j) and its jackknife sigma for every d in `d_grid` and every
    lag in [lag_min, lag_max].

    The grid and lags are checked as in `sweep_powers`, and one pass per
    power gives both values and sigmas. The values agree with
    `sweep_powers` to rounding, and each profile's sigmas equal
    `jackknife_sigma` at its power bit for bit. The powers are spread
    over `workers` threads, which changes no result. A good grid can
    still fail on the series, in this order: LagOutOfRange (< 10 pairs),
    DegenerateVariance (constant |r|), ConfigInvalid (block count not 2
    to N // 20), LagOutOfRange (< 10 pairs once a block is deleted), then
    each power's moments: ConfigInvalid (no finite sigma of |r|^d) or
    DegenerateVariance (a deletion leaves a series without variance).
    """
    ds = check_sweep_grid(d_grid, lag_min, lag_max)
    lags, pairs = _check_lags(len(r), np.arange(lag_min, lag_max + 1))
    values, sigmas = _sweep(r, ds, lags, cfg, workers)
    return SweepResult([
        CorrelationProfile(d, lags, v, pairs, sigmas=s)
        for d, v, s in zip(ds, values, sigmas)])
