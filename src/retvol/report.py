"""Deterministic report and plot-data emission.

Machine outputs (profile CSVs, fit JSON, gamma/kappa table) print floats
with shortest round-trip formatting so re-importing reproduces every
value bit-exactly. The human summary table uses 10 significant digits
plus parenthesized-error notation like 0.0184(13). Nothing in the data
body depends on the wall clock: byte-identical inputs and configuration
give byte-identical files, and report.json carries a hash of its own
body with the generation timestamp kept outside the hashed content.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .crosscorr import CorrelationProfile
from .errors import MissingSigmas
from .fitting import (GAMMA_BRACKET, PARAM_NAMES, TAU_SPAN_BRACKET,
                      THETA_TOL)

PROFILE_HEADER = "d,lag,cc,sigma,pairs"
GAMMA_KAPPA_HEADER = "d,gamma,gamma_err,kappa,kappa_err,chi2red"


def _r(x):
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def emit_profile_csv(profile, path, filter_sigma=None):
    """Write one profile as `d,lag,cc,sigma,pairs` rows.

    filter_sigma = s drops rows with |cc| <= s * sigma (plot-filter
    semantics; the header always remains). Requires jackknife sigmas.
    """
    if profile.sigmas is None:
        raise MissingSigmas("attach jackknife sigmas before export")
    keep = np.ones(len(profile), dtype=bool)
    if filter_sigma is not None:
        keep = np.abs(profile.values) > filter_sigma * profile.sigmas
    lines = [PROFILE_HEADER]
    for k in range(len(profile)):
        if not keep[k]:
            continue
        lines.append(
            f"{_r(profile.d)},{int(profile.lags[k])},{_r(profile.values[k])},"
            f"{_r(profile.sigmas[k])},{int(profile.pair_counts[k])}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_profile_csv(path):
    """Read profiles written by `emit_profile_csv`; one per distinct d."""
    groups = {}
    order = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != PROFILE_HEADER:
            raise ValueError(f"unexpected profile header {header!r}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            ds, lag, cc, sig, pairs = line.split(",")
            d = float(ds)
            if d not in groups:
                groups[d] = ([], [], [], [])
                order.append(d)
            g = groups[d]
            g[0].append(int(lag))
            g[1].append(float(cc))
            g[2].append(float(sig))
            g[3].append(int(pairs))
    profiles = []
    for d in order:
        lags, ccs, sigs, pairs = groups[d]
        profiles.append(CorrelationProfile(
            d, np.array(lags, dtype=np.int64), np.array(ccs),
            np.array(pairs, dtype=np.int64), sigmas=np.array(sigs)))
    return profiles


def emit_gamma_kappa_table(power_fits, path):
    """Write the per-d power-law fit table and return argmax_d kappa.

    `power_fits` maps d to the power-law FitResult. kappa is the fitted
    cross-correlation strength at lag 1.
    """
    lines = [GAMMA_KAPPA_HEADER]
    best_d = None
    best_kappa = -math.inf
    for d in sorted(power_fits):
        fit = power_fits[d]
        if fit is None:
            continue
        kappa, gamma = fit.params
        kerr, gerr = fit.param_errors
        lines.append(f"{_r(d)},{_r(gamma)},{_r(gerr)},{_r(kappa)},{_r(kerr)},"
                     f"{_r(fit.reduced_chi2)}")
        if kappa > best_kappa:
            best_kappa, best_d = float(kappa), float(d)
    Path(path).write_text("\n".join(lines) + "\n")
    return best_d


def format_value_error(value, err, err_digits=2):
    """Parenthesized-error notation: format_value_error(0.0184, 0.0013)
    gives '0.0184(13)'."""
    value = float(value)
    err = float(err)
    if not math.isfinite(value) or not math.isfinite(err):
        return f"{value}({err})"
    if err <= 0:
        return f"{_r(value)}(0)"
    mag = math.floor(math.log10(err))
    lsd = mag - (err_digits - 1)
    scaled = round(err / 10.0 ** lsd)
    if scaled >= 10 ** err_digits:
        lsd += 1
        scaled = round(err / 10.0 ** lsd)
    if lsd <= 0:
        return f"{value:.{-lsd}f}({scaled})"
    unit = 10 ** lsd
    return f"{round(value / unit) * unit:.0f}({scaled * unit})"


def _sci(x):
    """10 significant digits, scientific notation."""
    return f"{float(x):.9e}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def fit_to_json(fit, provenance=None):
    """Machine-readable record of one fit."""
    out = {
        "model": fit.model,
        "param_names": list(PARAM_NAMES[fit.model]),
        "params": _jsonable(fit.params),
        "param_errors": _jsonable(fit.param_errors),
        "covariance": _jsonable(fit.covariance),
        "reduced_chi2": float(fit.reduced_chi2),
        "fit_range": _jsonable(list(fit.fit_range)),
        "n_points": int(fit.n_points),
        "excluded_points": _jsonable(fit.excluded_x),
    }
    if provenance is not None:
        out["provenance"] = _jsonable(provenance)
    return out


FIT_PROVENANCE = {
    "objective": "weighted least squares, chi2 = sum(((y - f(x)) / sigma)^2)",
    "optimizer": "variable projection: y = c * g(x; theta), g = 1 at the "
                 "smallest fitted x, c = sum(w^2 g y) / sum(w^2 g^2) in "
                 "closed form; theta = gamma or log(tau) is the root of "
                 "d chi2 / d theta found by Brent's method",
    "initial_guess": "none: theta is bracketed, an optimum on an edge "
                     "is a failed fit",
    "convergence": {"gamma_bracket": list(GAMMA_BRACKET),
                    "tau_over_x_span_bracket": list(TAU_SPAN_BRACKET),
                    "theta_abs_tol": THETA_TOL},
    "error_convention": "asymptotic standard errors: covariance = "
                        "inv(J'WJ) * reduced_chi2",
    "nonpositive_y": "excluded from the chi2 sum and counted",
}


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, ready for emission."""

    metadata: dict
    sweep: object
    power_fits: dict
    exp_fits: dict
    comparisons: dict
    quadratic_fit: object = None
    argmax_kappa_d: float | None = None
    long_range: dict = field(default_factory=dict)


def _summary_lines(report):
    lines = ["retvol analysis summary", "=" * 40, "", "[metadata]"]
    for key in sorted(report.metadata):
        val = report.metadata[key]
        if isinstance(val, dict):
            lines.append(f"{key}:")
            for k2 in sorted(val):
                lines.append(f"  {k2}: {val[k2]}")
        else:
            lines.append(f"{key}: {val}")
    lines += ["", "[power-law and exponential fits, positive lags]",
              "d      kappa            gamma            gamma+-err     "
              "chi2red(pow)     chi2red(exp)     winner       long_range"]
    for d in sorted(report.power_fits):
        pf = report.power_fits[d]
        if pf is None:
            lines.append(f"{d:<6g} fit unavailable")
            continue
        ef = report.exp_fits.get(d)
        comp = report.comparisons.get(d)
        kappa, gamma = pf.params
        kerr, gerr = pf.param_errors
        row = (f"{d:<6g} {_sci(kappa)} {_sci(gamma)} "
               f"{format_value_error(gamma, gerr):<14} {_sci(pf.reduced_chi2)}")
        row += f" {_sci(ef.reduced_chi2)}" if ef is not None else " " + "-" * 15
        row += f" {comp.winner or 'inconclusive':<12}" if comp is not None else " -"
        row += f" {report.long_range.get(d, '-')}"
        lines.append(row)
    if report.quadratic_fit is not None:
        q = report.quadratic_fit
        a, b, c = q.params
        ea, eb, ec = q.param_errors
        lines += ["", "[quadratic exponent curve gamma(d) = alpha d^2 + beta d + rho]",
                  f"alpha = {format_value_error(a, ea)}",
                  f"beta  = {format_value_error(b, eb)}",
                  f"rho   = {format_value_error(c, ec)}",
                  f"reduced_chi2 = {_sci(q.reduced_chi2)}"]
    if report.argmax_kappa_d is not None:
        lines += ["", f"max correlation strength (kappa, the fitted value at "
                      f"lag 1) on the d grid: d = {report.argmax_kappa_d:g}"]
    return lines


def write_report(report, out_dir):
    """Emit all report files into `out_dir`; returns a manifest dict.

    Files: one profile CSV per d, gamma_kappa.csv, fits.json,
    summary.txt, report.json. Only report.json's `generated_at` field
    is non-deterministic; the body hash covers everything else.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    profile_files = []
    for prof in report.sweep.profiles:
        name = f"profile_d{prof.d:g}.csv"
        emit_profile_csv(prof, out / name)
        profile_files.append(name)

    argmax = emit_gamma_kappa_table(report.power_fits, out / "gamma_kappa.csv")

    fits_doc = {"provenance": FIT_PROVENANCE, "fits": []}
    for d in sorted(report.power_fits):
        for fits in (report.power_fits, report.exp_fits):
            fit = fits.get(d)
            if fit is None:
                continue
            entry = fit_to_json(fit)
            entry["d"] = float(d)
            fits_doc["fits"].append(entry)
    if report.quadratic_fit is not None:
        fits_doc["quadratic_gamma"] = fit_to_json(report.quadratic_fit)
    fits_json = json.dumps(fits_doc, indent=1, sort_keys=True)
    (out / "fits.json").write_text(fits_json + "\n")

    summary = "\n".join(_summary_lines(report)) + "\n"
    (out / "summary.txt").write_text(summary)

    body = {
        "metadata": _jsonable(report.metadata),
        "argmax_kappa_d": argmax,
        "long_range": _jsonable({f"{d:g}": v for d, v in report.long_range.items()}),
        "files": profile_files + ["gamma_kappa.csv", "fits.json", "summary.txt"],
        "comparisons": {
            f"{d:g}": {"winner": c.winner, "chi2red": [c.chi2red_a, c.chi2red_b]}
            for d, c in sorted(report.comparisons.items())
        },
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    doc = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "body_sha256": digest,
        "body": body,
    }
    (out / "report.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return {"out_dir": str(out), "files": body["files"], "body_sha256": digest,
            "argmax_kappa_d": argmax}
