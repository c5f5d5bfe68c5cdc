"""Property test: any tick stream ends the whole pipeline in one of two
ways, a typed RetvolError or a report whose every number is finite.

The streams are seeded and adversarial: trades that share a second,
exact duplicates, long trade-free gaps, constant-price stretches, prices
rounded to a coarse tick, both gap policies, 2-20 jackknife blocks and
lags up to the pair limit. Overflow, invalid operations and division by
zero raise inside numpy, so none of them can hide behind a finite-looking
result. Underflow stays quiet: the exponential fit's tau bracket drives
exp(-x / tau) to 0 by design.
"""

import json
from collections import Counter

import numpy as np

from retvol.errors import RetvolError
from retvol.ingest import TickSeries
from retvol.pipeline import AnalysisConfig, analyze_ticks
from retvol.report import write_report
from retvol.sampling import CARRY_FORWARD, DROP_INTERVAL

N_CASES = 300


def adversarial_case(seed):
    """A tick series and an analysis config, both drawn from `seed`."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 1500))
    delta_t = int(rng.choice([60, 120, 300]))
    # most steps land in a new sampling interval; some are ties or
    # same-interval trades, a few are gaps of up to 40 intervals
    steps = rng.integers(1, 2 * delta_t, n).astype(np.int64)
    steps[rng.random(n) < rng.uniform(0, 0.4)] = 0
    gaps = rng.random(n) < rng.uniform(0, 0.03)
    steps[gaps] = rng.integers(3, 40, int(gaps.sum())) * delta_t
    times = 1_420_848_000 + int(rng.integers(0, 86_400)) + np.cumsum(steps)

    moves = rng.standard_normal(n) * rng.uniform(1e-4, 2e-2)
    for _ in range(int(rng.integers(0, 4))):  # constant-price stretches
        lo = int(rng.integers(0, n))
        moves[lo:lo + int(rng.integers(5, n // 2 + 6))] = 0.0
    prices = 100.0 * np.exp(np.cumsum(moves))
    if rng.random() < 0.5:  # rounded to a tick of 0.01 to 0.5
        tick = float(rng.choice([0.01, 0.1, 0.5]))
        prices = np.maximum(np.round(prices / tick) * tick, tick)
    volumes = np.round(rng.exponential(1.0, n), 3)

    dup = np.flatnonzero(rng.random(n) < rng.uniform(0, 0.1))
    order = np.sort(np.concatenate((np.arange(n), dup)), kind="stable")
    ticks = TickSeries(times[order], prices[order], volumes[order],
                       source_label=f"adversarial-{seed}")

    # lags up to the pair limit of the grid this span gives, or (more
    # often) up to about one block
    approx_returns = max(int((times[-1] - times[0]) // delta_t), 2)
    reach = approx_returns if rng.random() < 0.3 else approx_returns // 20 + 2
    lag_max = int(rng.integers(1, reach))
    lag_min = -lag_max if rng.random() < 0.7 else -int(rng.integers(0, lag_max + 1))
    cfg = AnalysisConfig(
        delta_t=delta_t,
        gap_policy=CARRY_FORWARD if rng.random() < 0.5 else DROP_INTERVAL,
        d_grid=sorted(rng.choice([0.1, 0.5, 1.0, 1.5, 2.0, 3.0],
                                 int(rng.integers(1, 5)), replace=False)),
        lag_min=lag_min, lag_max=lag_max,
        fit_lo=1, fit_hi=int(rng.integers(3, lag_max + 4)),
        jk_blocks=int(rng.integers(2, 21)),
        fit_filter=None if rng.random() < 0.8 else float(rng.uniform(0, 2)))
    return ticks, cfg


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


def assert_report_finite(out_dir, manifest):
    """Every number in every file `write_report` emitted is finite."""
    doc = json.loads((out_dir / "report.json").read_text(),
                     parse_constant=_reject_constant)
    assert doc["body_sha256"] == manifest["body_sha256"]
    json.loads((out_dir / "fits.json").read_text(),
               parse_constant=_reject_constant)
    for name in manifest["files"]:
        if name.endswith(".csv"):
            rows = (out_dir / name).read_text().splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")]
            assert np.all(np.isfinite(values)), name


def test_pipeline_ends_typed_or_finite(tmp_path):
    outcomes = Counter()
    for seed in range(N_CASES):
        ticks, cfg = adversarial_case(seed)
        out = tmp_path / str(seed)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                manifest = write_report(analyze_ticks(ticks, cfg), out)
            except RetvolError as exc:
                outcomes[type(exc).__name__] += 1
                continue
            except Exception as exc:
                raise AssertionError(f"seed {seed}: raw {exc!r}") from exc
        assert_report_finite(out, manifest)
        outcomes["finite report"] += 1
    # the streams reach both endings, and more than one kind of error
    assert outcomes["finite report"] >= N_CASES // 2, outcomes
    assert len(outcomes) >= 3, outcomes
