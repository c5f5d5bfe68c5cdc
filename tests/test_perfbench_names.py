"""perfbench's tracer wraps retvol functions by name, so renaming one
breaks every traced benchmark run. These tests read the names it needs
from `perfbench/spans.py` (loaded from its file, left unchanged)."""

import importlib.util
import inspect
from pathlib import Path

from retvol import cli, pipeline

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
