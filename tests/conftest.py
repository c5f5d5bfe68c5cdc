import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread it started alive, such as an
    unjoined parse or engine pool."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left alive: {left}"


@pytest.fixture(scope="session")
def seed3_reports():
    """analyze_ticks reports of both benchmark workloads' seed-3 inputs,
    built from perfbench's generators (its files, loaded by path): the
    10^5 GARCH returns at 2 workers, and the dirty file's unique valid
    ticks, which the CLI's lenient read and dedup give back, at 1."""
    import sys
    from pathlib import Path

    from retvol.crosscorr import power_grid
    from retvol.ingest import TickSeries
    from retvol.pipeline import AnalysisConfig, analyze_ticks

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
        from workloads import RETURN_SCALE, TICK_SCALE, WORKLOADS
    finally:
        sys.path.pop(0)
    grid = power_grid(0.1, 3.0, 0.1)
    garch = inputs.ticks_from_returns(inputs._garch(
        WORKLOADS["garch_returns"]["sizes"]["full"]["n"], 3, 120,
        RETURN_SCALE))
    ticks = inputs.ticks_from_returns(inputs._garch(
        WORKLOADS["ticks_gz_dirty"]["sizes"]["full"]["n"], 3, 1, TICK_SCALE),
        spacing=1)
    _, _, unique, _ = inputs._add_defects(
        ticks.timestamps, ticks.prices, inputs._tick_volumes(len(ticks), 3), 3)
    return {
        "garch_returns": analyze_ticks(garch, AnalysisConfig(
            d_grid=grid, workers=2)),
        "ticks_gz_dirty": analyze_ticks(TickSeries(*unique), AnalysisConfig(
            d_grid=grid, gap_policy="drop_interval")),
    }
