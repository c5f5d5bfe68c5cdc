"""Seeded workload inputs, the defect ledger, and reference returns.

Everything here is a pure function of (workload, seed, size): the same
seed writes the same bytes. The tick files come from retvol's own GARCH
generator and CSV writer, because their cost is part of `setup_s`. The
reference returns are computed with plain numpy and share no code with
retvol's sampling and returns modules.
"""

import gzip
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from retvol.ingest import TickSeries, serialize_tick_csv
from retvol.synth import GarchSpec, gen_asym_garch, ticks_from_returns
from workloads import GARCH, RETURN_SCALE, TICK_SCALE, WORKLOADS

# one template list per skip reason of the lenient parser
BAD_LINES = {
    "field_count": ["{t},{p}", "{t},{p},{v},1", ""],
    "non_numeric": ["{t},abc,{v}", "{t}.5,{p},{v}", "x{t},{p},{v}"],
    "non_finite_or_negative_volume": ["{t},nan,{v}", "{t},{p},inf",
                                      "{t},{p},-{v}"],
    "non_positive_price": ["{t},0.0,{v}", "{t},-{p},{v}"],
}

DUPLICATE_SHARE = 0.05
BAD_SHARE = 0.02
SAME_SECOND_SHARE = 0.03
TICKS_PER_IDLE_STRETCH = 50_000
GZIP_LEVEL = 1


@dataclass
class Inputs:
    files: dict        # role -> path, handed to the client
    ledger: dict       # defects written into the input (zeros when clean)
    truth: dict        # arrays the reference is computed from
    timings: dict      # seconds per set-up stage
    input_bytes: int


def _garch(n, seed, delta_t, scale):
    spec = GarchSpec(n=n, seed=seed, **GARCH)
    rets = gen_asym_garch(spec, delta_t=delta_t)
    rets.values *= scale
    return rets


def _tick_volumes(n, seed):
    rng = np.random.default_rng([seed, 1])
    return np.round(rng.exponential(1.0, n) + 1e-3, 6)


def _add_defects(t, p, v, seed):
    """Remove idle stretches, add same-second trades, duplicates and bad
    lines. Returns the valid lines in file order, the bad lines with their
    insertion points, the unique valid ticks and the ledger."""
    rng = np.random.default_rng([seed, 2])
    n = len(t)
    n_idle = max(1, n // TICKS_PER_IDLE_STRETCH)
    starts = rng.integers(n // 20, n - n // 20, n_idle)
    lengths = rng.integers(600, 2400, n_idle)
    idle = np.zeros(n, dtype=bool)
    for s, length in zip(starts, lengths):
        idle[s:s + length] = True  # one tick per second: index = seconds
    t, p, v = t[~idle], p[~idle], v[~idle]

    m = len(t)
    extra = np.flatnonzero(rng.random(m) < SAME_SECOND_SHARE)
    k = len(extra)
    side = np.where(rng.random(k) < 0.5, -0.5, 0.5)
    ext_p = p[extra] * np.exp(rng.choice([-1.0, 1.0], k)
                              * rng.uniform(1e-5, 1e-3, k))
    ext_v = _tick_volumes(k, seed + 1)
    order = np.argsort(np.concatenate((np.arange(m, dtype=np.float64),
                                       extra + side)), kind="stable")
    t = np.concatenate((t, t[extra]))[order]
    p = np.concatenate((p, ext_p))[order]
    v = np.concatenate((v, ext_v))[order]
    unique = (t, p, v)

    dup = rng.random(len(t)) < DUPLICATE_SHARE
    reps = 1 + dup.astype(np.int64)
    lt, lp, lv = np.repeat(t, reps), np.repeat(p, reps), np.repeat(v, reps)

    n_valid = len(lt)
    n_bad = int(round(BAD_SHARE * n_valid / (1.0 - BAD_SHARE)))
    where = np.sort(rng.integers(0, n_valid + 1, n_bad))
    reasons = list(BAD_LINES)
    reason_idx = rng.integers(0, len(reasons), n_bad)
    form_pick = rng.random(n_bad)
    bad = []
    by_reason = dict.fromkeys(reasons, 0)
    for pos, ri, fp in zip(where.tolist(), reason_idx.tolist(),
                           form_pick.tolist()):
        reason = reasons[ri]
        forms = BAD_LINES[reason]
        near = min(pos, n_valid - 1)
        text = forms[int(fp * len(forms))].format(
            t=int(lt[near]), p=repr(float(lp[near])), v=repr(float(lv[near])))
        bad.append((pos, text))
        by_reason[reason] += 1

    ledger = {
        "lines": n_valid + n_bad,
        "lines_skipped": n_bad,
        "skipped_by_reason": by_reason,
        "duplicates": int(dup.sum()),
        "same_second_trades": k,
        "idle_stretches": n_idle,
        "idle_seconds": int(idle.sum()),
        "ticks_after_dedup": len(unique[0]),
    }
    return (lt, lp, lv), bad, unique, ledger


def _write_lines(fh, t, p, v, bad):
    start = 0
    for pos, text in bad:
        serialize_tick_csv(TickSeries(t[start:pos], p[start:pos],
                                      v[start:pos]), fh)
        fh.write(text + "\n")
        start = pos
    serialize_tick_csv(TickSeries(t[start:], p[start:], v[start:]), fh)


def _flush(fh):
    # write the file back now, not during the measured ops
    fh.flush()
    os.fsync(fh.fileno())


def _tick_file(path, n, seed, dirty, compress):
    """Write a 1-second GARCH tick file; returns (unique ticks, ledger, timings)."""
    timings = {}
    t0 = time.perf_counter()
    ticks = ticks_from_returns(_garch(n, seed, 1, TICK_SCALE), spacing=1)
    v = _tick_volumes(len(ticks), seed)
    timings["synth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if dirty:
        lines, bad, unique, ledger = _add_defects(ticks.timestamps,
                                                  ticks.prices, v, seed)
    else:
        lines = unique = (ticks.timestamps, ticks.prices, v)
        bad = []
        ledger = {"lines": len(ticks), "lines_skipped": 0,
                  "duplicates": 0, "ticks_after_dedup": len(ticks)}
    timings["defects"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if compress:
        buf = io.StringIO()
        _write_lines(buf, *lines, bad)
        timings["serialize"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        data = gzip.compress(buf.getvalue().encode("ascii"),
                             compresslevel=GZIP_LEVEL, mtime=0)
        with open(path, "wb") as fh:
            fh.write(data)
            _flush(fh)
        timings["compress"] = time.perf_counter() - t0
    else:
        with open(path, "w") as fh:
            _write_lines(fh, *lines, bad)
            _flush(fh)
        timings["serialize"] = time.perf_counter() - t0
    return unique, ledger, timings


def build(name, seed, size, work):
    """Generate the inputs of one workload run into directory `work`."""
    w = WORKLOADS[name]
    n = w["sizes"][size]["n"]
    warm_seed = seed + 1_000_003
    if w["kind"] == "cli":
        suffix = ".csv.gz" if w["gzip"] else ".csv"
        path = work / f"ticks{suffix}"
        unique, ledger, timings = _tick_file(path, n, seed, w["dirty"],
                                             w["gzip"])
        warm = work / f"warmup{suffix}"
        _tick_file(warm, w["warmup_n"], warm_seed, w["dirty"], w["gzip"])
        return Inputs({"ticks": str(path), "warmup": str(warm)}, ledger,
                      {"t": unique[0], "p": unique[1]}, timings,
                      path.stat().st_size)

    timings = {"defects": 0.0, "serialize": 0.0}
    t0 = time.perf_counter()
    ticks = ticks_from_returns(_garch(n, seed, w["delta_t"], RETURN_SCALE))
    warm = ticks_from_returns(_garch(w["warmup_n"], warm_seed, w["delta_t"],
                                     RETURN_SCALE))
    timings["synth"] = time.perf_counter() - t0
    files = {}
    for role, tk in (("ticks", ticks), ("warmup", warm)):
        for col in ("timestamps", "prices", "volumes"):
            files[f"{role}_{col}"] = str(work / f"{role}_{col}.npy")
            np.save(files[f"{role}_{col}"], getattr(tk, col))
    ledger = {"lines": len(ticks), "lines_skipped": 0, "duplicates": 0,
              "ticks_after_dedup": len(ticks)}
    return Inputs(files, ledger, {"t": ticks.timestamps, "p": ticks.prices},
                  timings, 0)


def reference_returns(t, p, delta_t, drop_gaps):
    """Standardized returns by the previous-tick rule, without retvol.

    Each tick falls in the grid interval (g_{k-1}, g_k] with
    k = ceil((t - g_0) / delta_t); the price at g_k is the last tick of
    interval k in file order, or the price at g_{k-1} when the interval
    has no trade. Returns (r, gap_fraction, grid_points).
    """
    t = np.asarray(t, dtype=np.int64)
    g0 = -(-int(t[0]) // delta_t) * delta_t
    k = np.maximum(0, -(-(t - g0) // delta_t))
    last = np.append(np.flatnonzero(np.diff(k)), len(k) - 1)
    n_grid = int(k[-1]) + 1
    src = np.full(n_grid, -1, dtype=np.int64)
    src[k[last]] = last
    gap = src < 0
    src = np.maximum.accumulate(src)
    rets = np.diff(np.log(np.asarray(p)[src]))
    if drop_gaps:
        rets = rets[~gap[1:]]
    r = (rets - rets.mean()) / rets.std(ddof=1)
    return r, float(np.mean(gap)), n_grid
