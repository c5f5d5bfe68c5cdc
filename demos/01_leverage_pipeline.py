"""End-to-end walk through the tick -> report pipeline.

Synthesizes trades from an asymmetric GARCH process whose volatility
reacts more to negative returns (a leverage effect by construction),
writes them as a Bitcoincharts-style CSV, then runs the full analysis:
previous-tick resampling, normalized returns, the return-volatility
cross-correlation CC_d(j) with jackknife errors, decay fits, and the
report files.

Run:  python demos/01_leverage_pipeline.py
"""

import tempfile
from pathlib import Path

from retvol import (AnalysisConfig, GarchSpec, analyze_ticks, gen_asym_garch,
                    parse_tick_csv, serialize_tick_csv, ticks_from_returns,
                    write_report)

# --- 1. make a market with a built-in leverage effect -----------------
spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                 n=100_000, seed=20150110)
returns = gen_asym_garch(spec)
returns.values *= 0.002  # scale to crypto-like 2-min return magnitudes
ticks = ticks_from_returns(returns, spacing=120, p0=280.0)
print(f"synthesized {len(ticks)} ticks spanning "
      f"{(ticks.timestamps[-1] - ticks.timestamps[0]) / 86400:.0f} days "
      f"(GARCH seed {spec.seed})")

# --- 2. round-trip through the CSV wire format ------------------------
workdir = Path(tempfile.mkdtemp(prefix="retvol_demo_"))
csv_path = workdir / "ticks.csv"
with open(csv_path, "w") as fh:
    serialize_tick_csv(ticks, fh)
with open(csv_path) as fh:
    ticks = parse_tick_csv(fh, strictness="lenient", source_label="demo")
print(f"parsed back {len(ticks)} records, {ticks.n_skipped} skipped")

# --- 3. analyze: 2-min grid, d grid, lags, jackknife, fits -------------
cfg = AnalysisConfig(delta_t=120, d_grid=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                     lag_min=-100, lag_max=100, fit_lo=1, fit_hi=100,
                     jk_blocks=50, workers=2)
report = analyze_ticks(ticks, cfg)

prof = report.sweep.profile_for(2.0)
at1 = int((prof.lags == 1).argmax())
print(f"\nCC_2(1) = {prof.values[at1]:+.4f} +- {prof.sigmas[at1]:.4f} "
      f"({abs(prof.values[at1]) / prof.sigmas[at1]:.1f} sigma from zero)")
print("negative and significant: the engineered leverage effect is detected")

# --- 4. emit the report ------------------------------------------------
manifest = write_report(report, workdir / "report")
print(f"\nreport files in {manifest['out_dir']}:")
for name in manifest["files"]:
    print(f"  {name}")
print((workdir / "report" / "summary.txt").read_text())
