"""Workload definitions shared by the orchestrator and the client.

Pure data, no heavy imports: the client imports this module before it
starts timing the import of retvol.

The tick file holds 1e6 ticks rather than 3e6 so that its three set-up
passes stay short next to a 45 s run on a 2-CPU machine; the ratios
between the stages are the same (see README.md).
"""

GARCH = {"omega": 0.05, "a_arch": 0.05, "b_garch": 0.85, "leverage": 0.10}

# analysis grid of `retvol analyze` with its defaults: d 0.1:3.0:0.1,
# lags -200..200, fit range 1..200, B = 100
FULL_ANALYSIS = {"d_grid": [0.1, 3.0, 0.1], "lags": [-200, 200],
                 "fit_range": [1, 200], "blocks": 100}
TINY_ANALYSIS = {"d_grid": [0.5, 2.0, 0.5], "lags": [-20, 20],
                 "fit_range": [1, 20], "blocks": 10}
WARMUP_ANALYSIS = {"d_grid": [1.0, 2.0, 1.0], "lags": [-5, 5],
                   "fit_range": [1, 5], "blocks": 4}

WORKLOADS = {
    "ticks_gz_dirty": {
        "kind": "cli",
        "why": "`retvol analyze` on gzipped 1-second ticks with duplicates, "
               "bad lines, same-second trades and gaps; ingest dominates",
        "dirty": True, "gzip": True, "gap_policy": "drop_interval",
        "delta_t": 120, "workers": 1, "leverage_check": False,
        "sizes": {"full": {"n": 1_000_000, "analysis": FULL_ANALYSIS},
                  "tiny": {"n": 60_000, "analysis": TINY_ANALYSIS}},
        "warmup_n": 24_000,
    },
    "garch_returns": {
        "kind": "report",
        "why": "1e5 in-memory GARCH returns, analyze_ticks + write_report "
               "at 2 workers; nothing parsed, the jackknife dominates",
        "gap_policy": "carry_forward", "delta_t": 120, "workers": 2,
        "leverage_check": True,
        "sizes": {"full": {"n": 100_000, "analysis": FULL_ANALYSIS},
                  "tiny": {"n": 100_000, "analysis": TINY_ANALYSIS}},
        "warmup_n": 2_000,
    },
}

# per-second return scale of the tick workload and the 120 s scale of
# the in-memory series (the `retvol synth` default)
TICK_SCALE = 5e-4
RETURN_SCALE = 2e-3

SETUP_REPEATS = 3

# Two planned workloads are left out (see README.md). ticks_csv, the
# same command on a clean plain CSV, had wall_s quartile spreads of
# 0.24-0.37 in 20 s runs, and three workloads at the longer run length
# do not fit the time a full set of runs may take. single_lag_jk
# (CC_2(1) plus a B=100, workers=2 jackknife on 1e6 returns): on a
# shared 2-CPU machine its two memory-bound threads gave run medians
# from 0.5 s to 1.2 s over minutes (quartile spread 0.2-0.7 of the
# median) and a peak RSS that moved in 8 MB steps with thread timing
# (spread ~0.1).
