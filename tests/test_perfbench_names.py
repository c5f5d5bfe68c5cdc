"""perfbench's tracer wraps retvol functions by name, and its client runs
`retvol analyze` with a fixed argv, so renaming a function or removing a
flag or setting breaks every benchmark run. These tests read what the
benchmark needs from `perfbench/spans.py` and `perfbench/client.py`
(loaded from their files, left unchanged)."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from retvol import cli, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_client():
    # the client imports its sibling modules spans and workloads by name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_client", PERFBENCH / "client.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.pop(0)
    return module


def test_traced_names_are_bound_where_the_tracer_looks():
    spans = load_spans()
    missing = [n for n in spans.PIPELINE_NAMES if not hasattr(pipeline, n)]
    assert not missing
    assert callable(cli.run_analysis)


def test_jackknife_counter_finds_its_arguments():
    # the tracer reads `cfg` off the bound call and re-runs it at workers=1
    params = inspect.signature(pipeline.sweep_with_sigmas).parameters
    assert {"cfg", "workers"} <= set(params)


@pytest.mark.parametrize("size", ["full", "tiny"])
@pytest.mark.parametrize("workload", ["ticks_gz_dirty", "garch_returns"])
def test_client_analyze_argv_parses_and_builds_a_config(
        workload, size, monkeypatch):
    client = load_client()
    w = client.WORKLOADS[workload]
    argv = client._cli_argv("ticks.csv.gz", "out", w,
                            w["sizes"][size]["analysis"])
    args = cli.build_parser().parse_args(argv)
    assert (args.command, args.input, args.out_dir) == (
        "analyze", "ticks.csv.gz", "out")
    # main builds the AnalysisConfig, then hands it to run_analysis
    seen = []

    def run_analysis(path, cfg, out_dir):
        seen.append(cfg)
        return {"files": [], "out_dir": out_dir, "argmax_kappa_d": None,
                "body_sha256": ""}

    monkeypatch.setattr(cli, "run_analysis", run_analysis)
    assert cli.main(argv) == 0
    (cfg,) = seen
    assert (cfg.delta_t, cfg.gap_policy, cfg.workers) == (
        w["delta_t"], w["gap_policy"], w["workers"])
