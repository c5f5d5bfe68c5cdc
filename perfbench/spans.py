"""In-memory spans around the calls into retvol's modules.

The tracer replaces, for the length of one traced op, the names that
`retvol.pipeline` and `retvol.cli` bind, read_tick_file through
write_report. Nothing inside `src/retvol` is instrumented. Each span
carries a name, start, end, parent and op id; counters are kept per op
next to the spans.
"""

import inspect
import time
from contextlib import contextmanager

# wrapped function -> metric its self time counts towards
LAYER_OF = {
    "read_tick_file": "ingest.parse_s",
    "deduplicate": "ingest.dedup_s",
    "resample": "sampling.resample_s",
    "log_returns": "returns.s",
    "apply_gap_policy": "returns.s",
    "standardize": "returns.s",
    "sweep_powers": "crosscorr.sweep_s",
    "sweep_with_sigmas": "jackknife.s",
    "fit_points_from_profile": "fitting.s",
    "fit_power_law": "fitting.s",
    "fit_exponential": "fitting.s",
    "fit_quadratic_gamma": "fitting.s",
    "compare_models": "fitting.s",
    "long_range_flag": "fitting.s",
    "write_report": "report.write_s",
    "run_analysis": "pipeline.self_s",
    "analyze_ticks": "pipeline.self_s",
    "op": "pipeline.self_s",
}
TIME_METRICS = sorted(set(LAYER_OF.values()))
# traced names bound in retvol.pipeline (cli binds run_analysis)
PIPELINE_NAMES = [name for name in LAYER_OF if name not in ("run_analysis", "op")]

COUNTERS = [
    "ingest.lines_read", "ingest.lines_skipped", "ingest.duplicates_collapsed",
    "sampling.grid_points", "sampling.carried_forward_fraction", "returns.n",
    "crosscorr.cc_values", "jackknife.deletions", "fitting.fits_attempted",
    "fitting.fits_failed", "fitting.iterations",
]

FITS = ("fit_power_law", "fit_exponential", "fit_quadratic_gamma")


def _count(c, name, args, out):
    """Per-op counters from a wrapped call's arguments and result."""
    if name == "read_tick_file":
        c["ingest.lines_read"] += len(out) + out.n_skipped
        c["ingest.lines_skipped"] += out.n_skipped
    elif name == "deduplicate":
        c["ingest.duplicates_collapsed"] += len(args["ticks"]) - len(out)
    elif name == "resample":
        c["sampling.grid_points"] = len(out)
        c["sampling.carried_forward_fraction"] = out.gap_fraction
    elif name == "standardize":
        c["returns.n"] = len(out)
    elif name == "sweep_powers":
        c["crosscorr.cc_values"] += sum(len(p) for p in out.profiles)
    elif name == "sweep_with_sigmas":
        c["jackknife.deletions"] += args["cfg"].n_blocks * len(out.profiles)
    elif name in FITS:
        c["fitting.iterations"] += out.n_iterations


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = []        # one dict per traced op
        self.jackknife_call = None  # (function, bound arguments, result)
        self._stack = []
        self._op = None

    def _open(self, name):
        span = {"id": len(self.spans), "name": name,
                "layer": LAYER_OF[name].split(".")[0], "op": self._op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one op; counters start from zero."""
        self._op = op_id
        self.counters.append({k: 0 for k in COUNTERS})
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def wrap(self, fn, name):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self._close(span)
                span["error"] = True
                if name in FITS:
                    self.counters[-1]["fitting.fits_attempted"] += 1
                    self.counters[-1]["fitting.fits_failed"] += 1
                raise
            self._close(span)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            c = self.counters[-1]
            if name in FITS:
                c["fitting.fits_attempted"] += 1
            if name == "sweep_with_sigmas":
                self.jackknife_call = (fn, bound, out)
            _count(c, name, bound.arguments, out)
            return out

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace module attributes by traced wrappers, restoring them after."""
        saved = []
        for module, name in targets:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, self.wrap(getattr(module, name), name))
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)



def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_table(spans, n_ops):
    """Per-op mean self time of each time metric, plus a per-name table."""
    own = self_times(spans)
    by_metric = dict.fromkeys(TIME_METRICS, 0.0)
    by_name = {}
    for s in spans:
        by_metric[LAYER_OF[s["name"]]] += own[s["id"]]
        row = by_name.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[s["id"]]
    return ({k: v / n_ops for k, v in by_metric.items()},
            {k: {"calls_per_op": v["calls"] / n_ops,
                 "self_s_per_op": v["self_s"] / n_ops}
             for k, v in sorted(by_name.items())})
