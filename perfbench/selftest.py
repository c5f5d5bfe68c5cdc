"""Self-test of the benchmark at tiny sizes (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

Checks that
- every workload prints, with --trace 0 and --trace 1, a result line with
  exactly the metrics and units BENCHMARK.json names, and no failed op;
- the traced layer self times add up to the traced op time;
- the same seed writes the same input bytes;
- a wrong ledger or a perturbed CC value makes every op count as failed,
  so the checks can fail;
- a directory holding only BENCHMARK.json and the benchmark exits non-zero
  without a result line.
Exits non-zero if any of these does not hold.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench" / "bare"


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def _digests(work):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.iterdir())}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import run
    from inputs import build
    from spans import TIME_METRICS

    failures = []

    def check(ok, what):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, name, trace)
            if proc.returncode != 0:
                check(False, f"{name} trace={trace} exits 0: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(set(line) == {"correct", "attempted", "failed", "metrics"}
                  and got == want,
                  f"{name} trace={trace} emits every {key} metric with its unit")
            check(line["correct"] and line["failed"] == 0
                  and line["attempted"] >= 1,
                  f"{name} trace={trace}: {line['attempted']} ops, none failed")
            if trace:
                m = line["metrics"]
                layers = sum(m[k]["value"] for k in TIME_METRICS)
                op = m["trace.op_s"]["value"]
                check(abs(layers - op) <= 1e-9 * op,
                      f"{name}: layer self times {layers:.6f} s add up to "
                      f"the traced op {op:.6f} s")

        work = ROOT / ".perfbench" / f"selftest-{name}"
        sums = []
        for _ in range(2):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            build(name, 7, "tiny", work)
            sums.append(_digests(work))
        shutil.rmtree(work, ignore_errors=True)
        check(sums[0] == sums[1], f"{name}: seed 7 writes the same bytes twice")

    for name, fault in (("ticks_gz_dirty", "ledger"), ("ticks_gz_dirty", "cc"),
                        ("garch_returns", "cc")):
        line, _ = run.run(name, 1, 0.5, 0, size="tiny", fault=fault)
        check(line["failed"] == line["attempted"] and not line["correct"],
              f"{name}: a wrong {fault} fails all {line['attempted']} ops")

    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, BARE / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    proc = _run(BARE, "ticks_gz_dirty", 0)
    shutil.rmtree(BARE, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without the sources: exit {proc.returncode}, no result line")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
