"""Closed-loop client: one process runs one op after another.

    python3 perfbench/client.py PLAN.json

The orchestrator (run.py) writes the plan and generates the inputs in
its own process, so this process's peak memory covers import, warm-up
and the ops only. The client imports retvol, runs one small warm-up op,
then runs ops back to back for `seconds`; with tracing on, every second
op is traced. After each op it reads back, outside the timer, what the
checks need. It writes the result next to the plan; its stdout (the
CLI's own messages) is not used.
"""

import gc
import json
import resource
import sys
import time
from pathlib import Path

from spans import PIPELINE_NAMES, Tracer, layer_table
from workloads import WARMUP_ANALYSIS, WORKLOADS


def _cli_argv(path, out_dir, w, a):
    lo, hi, step = a["d_grid"]
    return ["analyze", "--input", path, "--out-dir", out_dir,
            "--delta-t", str(w["delta_t"]), "--gap-policy", w["gap_policy"],
            "--d-grid", f"{lo:g}:{hi:g}:{step:g}",
            f"--lags={a['lags'][0]}:{a['lags'][1]}",
            "--fit-range", f"{a['fit_range'][0]}:{a['fit_range'][1]}",
            "--jk-blocks", str(a["blocks"]), "--workers", str(w["workers"])]


def _read_report(out_dir, samples):
    """What the checks need from a written report directory."""
    out = Path(out_dir)
    doc = json.loads((out / "report.json").read_text())
    meta = doc["body"]["metadata"]
    rows = {}
    for d in sorted({d for d, _ in samples}):
        with open(out / f"profile_d{d:g}.csv") as fh:
            next(fh)
            for line in fh:
                _, lag, cc, sigma, _ = line.split(",")
                rows[(d, int(lag))] = (float(cc), float(sigma))
    return {
        "sha": doc["body_sha256"],
        "n_skipped_lines": meta["n_skipped_lines"],
        "n_ticks": meta["n_ticks"],
        "carried_forward_fraction": meta["carried_forward_fraction"],
        "n_returns": meta["n_returns"],
        "report_bytes": sum(f.stat().st_size for f in out.iterdir()),
        "samples": [[d, j, *rows[(d, j)]] for d, j in samples],
    }


def main(plan_path):
    plan = json.loads(Path(plan_path).read_text())
    t_start = time.perf_counter()
    sys.path.insert(0, plan["src"])
    import numpy as np
    from retvol import cli, pipeline
    from retvol.crosscorr import power_grid
    from retvol.ingest import TickSeries
    from retvol.pipeline import AnalysisConfig
    import_s = time.perf_counter() - t_start

    t_load = time.perf_counter()
    w = WORKLOADS[plan["workload"]]
    files, out_dir, samples = plan["files"], plan["out_dir"], plan["samples"]
    samples = [(float(d), int(j)) for d, j in samples]

    if w["kind"] == "cli":
        def make_op(path, analysis, dest):
            argv = _cli_argv(path, dest, w, analysis)

            def op():
                if cli.main(argv) != 0:
                    raise RuntimeError("retvol analyze exited non-zero")
            return op

        run_op = make_op(files["ticks"], plan["analysis"], out_dir)
        warm_op = make_op(files["warmup"], WARMUP_ANALYSIS, out_dir + "-warmup")
    else:
        def make_op(role, analysis, dest):
            ticks = TickSeries(*(np.load(files[f"{role}_{col}"]) for col in
                                 ("timestamps", "prices", "volumes")),
                               source_label=plan["workload"])
            a = analysis
            cfg = AnalysisConfig(
                delta_t=w["delta_t"], gap_policy=w["gap_policy"],
                d_grid=power_grid(*a["d_grid"]),
                lag_min=a["lags"][0], lag_max=a["lags"][1],
                fit_lo=a["fit_range"][0], fit_hi=a["fit_range"][1],
                jk_blocks=a["blocks"], workers=w["workers"])

            def op():
                pipeline.write_report(pipeline.analyze_ticks(ticks, cfg), dest)
            return op

        run_op = make_op("ticks", plan["analysis"], out_dir)
        warm_op = make_op("warmup", WARMUP_ANALYSIS, out_dir + "-warmup")
    targets = [(pipeline, name) for name in PIPELINE_NAMES]
    targets.append((cli, "run_analysis"))
    load_s = time.perf_counter() - t_load

    t_warm = time.perf_counter()
    warm_op()
    warmup_s = time.perf_counter() - t_warm

    tracer = Tracer() if plan["trace"] else None
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        rec = {"traced": traced}
        gc.collect()  # each op starts from the same heap state
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        try:
            if traced:
                with tracer.installed(targets), tracer.op(i):
                    run_op()
                root = next(s for s in reversed(tracer.spans) if s["name"] == "op")
                rec["wall_s"] = root["end"] - root["start"]
                rec["counters"] = tracer.counters[-1]
            else:
                t0 = time.perf_counter()
                run_op()
                rec["wall_s"] = time.perf_counter() - t0
            rec["out"] = _read_report(out_dir, samples)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rec["error"] = f"{type(exc).__name__}: {exc}"
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        rec["rusage"] = {k: getattr(ru1, k) - getattr(ru0, k) for k in
                         ("ru_utime", "ru_stime", "ru_minflt", "ru_nivcsw")}
        ops.append(rec)
        done = time.perf_counter() - start >= plan["seconds"]
        if done and (tracer is None or len(ops) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"import_s": import_s, "load_s": load_s, "warmup_s": warmup_s,
              "peak_rss_mb": peak_rss_mb, "ops": ops}

    # the thread-pool baseline (jackknife.w1_s): the last traced
    # jackknife call again at one worker, whose sigmas must be identical
    if tracer is not None and tracer.jackknife_call is not None:
        fn, bound, out = tracer.jackknife_call
        if bound.arguments["workers"] == 1:
            result["w1"] = {"s": None, "identical": True}
        else:
            bound.arguments["workers"] = 1
            t0 = time.perf_counter()
            out1 = fn(*bound.args, **bound.kwargs)
            result["w1"] = {"s": time.perf_counter() - t0, "identical": all(
                np.array_equal(p.sigmas, q.sigmas)
                for p, q in zip(out.profiles, out1.profiles))}

    if tracer is not None:
        n_traced = sum(1 for op in ops if op["traced"])
        result["layers"], result["by_name"] = layer_table(tracer.spans, n_traced)
        result["spans"] = [dict(s, start=s["start"] - start, end=s["end"] - start)
                           for s in tracer.spans]
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
