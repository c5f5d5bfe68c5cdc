"""Sweeping the power d: where is the cross-correlation strongest?

Squared returns (d = 2) are the conventional volatility proxy, but the
correlation between returns and |r|^d can peak elsewhere. This script
runs the d sweep on a leverage-generating synthetic market, fits the
power-law decay per d, and plots (as text) the exponent curve gamma(d)
with its quadratic fit and the strength curve kappa(d) with its
interior maximum.

Run:  python demos/03_power_sweep.py
"""

import numpy as np

from retvol import (FitPoints, GarchSpec, JackknifeConfig, fit_points_from_profile,
                    fit_power_law, fit_quadratic_gamma, gen_asym_garch,
                    power_grid, standardize, sweep_with_sigmas)

# leverage-generating market; heavier tails than the iid null
spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.88, leverage=0.08,
                 n=150_000, seed=314)
nr = standardize(gen_asym_garch(spec))
print(f"{len(nr)} normalized returns; sweeping d over the 0.2..3.0 grid\n")

grid = power_grid(0.2, 3.0, 0.2)
sweep = sweep_with_sigmas(nr, grid, -60, 60, JackknifeConfig(50), workers=2)

rows = []
for prof in sweep.profiles:
    pts = fit_points_from_profile(prof, 1, 60)
    fit = fit_power_law(pts, (1, 60))
    rows.append((prof.d, fit.params[0], fit.param_errors[0],
                 fit.params[1], fit.param_errors[1]))

print("d      kappa            gamma            kappa bar")
kmax = max(r[1] for r in rows)
for d, kappa, kerr, gamma, gerr in rows:
    bar = "#" * int(round(40 * kappa / kmax))
    print(f"{d:4.1f}  {kappa:.4f}+-{kerr:.4f}  {gamma:.4f}+-{gerr:.4f}  {bar}")

best = max(rows, key=lambda r: r[1])
print(f"\nmaximum correlation strength at d = {best[0]:g} "
      f"(not at the conventional d = 2)")

quad = fit_quadratic_gamma(FitPoints(
    np.array([r[0] for r in rows]),
    np.array([r[3] for r in rows]),
    np.array([r[4] for r in rows])))
a, b, c = quad.params
print(f"quadratic exponent curve: gamma(d) = {a:.4f} d^2 + {b:.4f} d + {c:.4f}")
print(f"small-d limit of gamma: {c:.3f}; gamma stays below 1 on the grid, "
      f"so the decay is long-ranged everywhere")
