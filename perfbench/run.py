"""retvol benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/retvol and
tests/oracles.py). The run

1. generates the workload's inputs from the seed SETUP_REPEATS times in
   this process, timing each pass (set-up is reported as their median
   plus the client's import and warm-up);
2. starts the client (client.py) in a child process, which runs ops
   back to back for S seconds, every second op traced when --trace 1;
3. checks every op against independent references (checks.py);
4. writes a run record with machine info, per-op results, the self-time
   table and, when traced, every span to .perfbench/runs/;
5. prints one JSON line: end-to-end metrics with --trace 0, per-layer
   metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
DEADLINE_S = 175.0

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
PER_LAYER = [
    ("ingest.parse_s", "s"), ("ingest.dedup_s", "s"),
    ("ingest.serialize_s", "s"), ("ingest.input_mb", "MB"),
    ("ingest.lines_read", "count"), ("ingest.lines_skipped", "count"),
    ("ingest.duplicates_collapsed", "count"),
    ("sampling.resample_s", "s"), ("sampling.grid_points", "count"),
    ("sampling.carried_forward_fraction", "fraction"),
    ("returns.s", "s"), ("returns.n", "count"),
    ("crosscorr.sweep_s", "s"),
    ("crosscorr.cc_values", "count"),
    ("jackknife.s", "s"), ("jackknife.w1_s", "s"),
    ("jackknife.deletions", "count"),
    ("fitting.s", "s"), ("fitting.fits_attempted", "count"),
    ("fitting.fits_failed", "count"), ("fitting.iterations", "count"),
    ("report.write_s", "s"), ("report.bytes", "bytes"),
    ("pipeline.self_s", "s"), ("synth.gen_s", "s"),
    ("trace.op_s", "s"), ("trace.overhead_s", "s"),
    ("error_rate", "fraction"),
]


def _git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_info(seed):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "retvol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def sample_points(w, size, seed):
    """(d, j) pairs checked on every op: three drawn from the seed, plus
    the leverage point CC_2(1)."""
    import numpy as np
    from checks import LEVERAGE_POINT
    from retvol.crosscorr import power_grid
    a = w["sizes"][size]["analysis"]
    grid = power_grid(*a["d_grid"])
    rng = np.random.default_rng([seed, 3])
    points = {(float(grid[rng.integers(len(grid))]),
               int(rng.integers(a["lags"][0], a["lags"][1] + 1)))
              for _ in range(3)}
    points.add(LEVERAGE_POINT)
    return sorted(points)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def run(workload, seed, seconds, trace, size="full", fault=None):
    """One benchmark run; returns (result line dict, run record dict).

    `fault` ("ledger" or "cc") corrupts the reference ledger or the CC
    values read back, for the self-test that proves the checks can fail.
    """
    from checks import op_problems, reference
    from inputs import build
    from spans import COUNTERS
    from workloads import SETUP_REPEATS, WORKLOADS

    t_run = time.perf_counter()
    w = WORKLOADS[workload]
    info = machine_info(seed)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen_s, stages = [], {}
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = build(workload, seed, size, work)
            gen_s.append(time.perf_counter() - t0)
            for k, v in inputs.timings.items():
                stages.setdefault(k, []).append(v)

        samples = sample_points(w, size, seed)
        plan = {"workload": workload, "seconds": seconds, "trace": trace,
                "src": str(ROOT / "src"), "files": inputs.files,
                "analysis": w["sizes"][size]["analysis"],
                "samples": samples, "out_dir": str(work / "out"),
                "result": str(work / "result.json")}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        # one client process, at most `workers` (<= 2) compute threads
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        budget = DEADLINE_S - (time.perf_counter() - t_run)
        subprocess.run([sys.executable, str(HERE / "client.py"), str(plan_path)],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       timeout=budget, check=True)
        res = json.loads(Path(plan["result"]).read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref = reference(w, inputs.truth, samples, plan["analysis"]["blocks"])
    ledger = dict(inputs.ledger)
    ops = res["ops"]
    if fault == "ledger":
        ledger["lines_skipped"] += 1
    elif fault == "cc":
        for op in ops:
            if "out" in op:
                op["out"]["samples"][0][2] += 1e-9
    first_sha = next((op["out"]["sha"] for op in ops if "out" in op), None)
    for op in ops:
        op["problems"] = op_problems(op, w, ref, ledger, first_sha)
    if not res.get("w1", {}).get("identical", True):
        traced_ops = [op for op in ops if op["traced"]]
        traced_ops[-1]["problems"].append(
            "jackknife sigmas at workers=1 differ from the traced call's")
    failed = sum(1 for op in ops if op["problems"])

    untraced = [op["wall_s"] for op in ops if "wall_s" in op and not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    if not untraced:
        raise RuntimeError("no op completed: " + "; ".join(
            p for op in ops for p in op["problems"]))
    setup_s = (statistics.median(gen_s) + res["import_s"] + res["load_s"]
               + res["warmup_s"])
    if not trace:
        values = {"wall_s": statistics.median(untraced),
                  "peak_rss_mb": res["peak_rss_mb"], "setup_s": setup_s}
        units = END_TO_END
    else:
        counters = {k: _mean([op["counters"][k] for op in traced
                              if "counters" in op])
                    for k in COUNTERS}
        layers = res["layers"]
        w1_s = res.get("w1", {}).get("s")
        traced_walls = [op["wall_s"] for op in traced if "wall_s" in op]
        values = dict(layers)
        values.update(counters)
        values.update({
            "ingest.serialize_s": statistics.median(stages["serialize"]),
            "ingest.input_mb": inputs.input_bytes / 2**20,
            "jackknife.w1_s": w1_s if w1_s is not None else layers["jackknife.s"],
            "report.bytes": _mean([op["out"]["report_bytes"]
                                   for op in traced if "out" in op]),
            "synth.gen_s": statistics.median(stages["synth"]),
            "trace.op_s": _mean(traced_walls),
            "trace.overhead_s": (statistics.median(traced_walls)
                                 - statistics.median(untraced)),
            "error_rate": failed / len(ops),
        })
        units = PER_LAYER
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units}
    line = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}

    info["loadavg_end"] = os.getloadavg()
    record = {
        "workload": workload, "size": size, "seconds": seconds, "trace": trace,
        "info": info, "ledger": inputs.ledger, "samples": samples,
        "setup": {"generate_s": gen_s, "stages_s": stages,
                  "import_s": res["import_s"], "load_s": res["load_s"],
                  "warmup_s": res["warmup_s"]},
        "ops": [{k: v for k, v in op.items() if k != "out"} for op in ops],
        "result": line,
    }
    if trace:
        record["self_time_by_name"] = res["by_name"]
        record["spans"] = res["spans"]
    return line, record


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/retvol/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a retvol source checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    line, record = run(args.workload, args.seed, args.seconds, args.trace,
                       size=args.size)
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (runs / name).write_text(json.dumps(record, indent=1))
    print("run_info " + json.dumps(record["info"]))
    print(f"{args.workload} seed={args.seed}: {line['attempted']} ops, "
          f"{line['failed']} failed; record in {runs / name}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
