"""Deterministic report and plot-data emission.

Machine outputs (profile CSVs, fit JSON, gamma/kappa table) print floats
with shortest round-trip formatting so re-importing reproduces every
value bit-exactly. The human summary table uses 10 significant digits
plus parenthesized-error notation like 0.0184(13). Nothing in the data
body depends on the wall clock: byte-identical inputs and configuration
give byte-identical files. report.json's body holds the sha256 of
every other file written, and report.json carries a hash of that body,
so the hash covers every byte but the generation timestamp, which is
kept outside the body.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .crosscorr import CorrelationProfile
from .errors import MalformedProfile, MissingSigmas
from .fitting import (GAMMA_BRACKET, PARAM_NAMES, TAU_SPAN_BRACKET,
                      THETA_TOL)

PROFILE_HEADER = "d,lag,cc,sigma,pairs"
GAMMA_KAPPA_HEADER = "d,gamma,gamma_err,kappa,kappa_err,chi2red"


def _r(x):
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def emit_profile_csv(profile, path, filter_sigma=None):
    """Write one profile as `d,lag,cc,sigma,pairs` rows; returns the bytes.

    filter_sigma = s drops rows with |cc| <= s * sigma (plot-filter
    semantics; the header always remains). Requires jackknife sigmas.
    """
    if profile.sigmas is None:
        raise MissingSigmas("attach jackknife sigmas before export")
    keep = np.ones(len(profile), dtype=bool)
    if filter_sigma is not None:
        keep = np.abs(profile.values) > filter_sigma * profile.sigmas
    d = _r(profile.d)
    rows = zip(np.asarray(profile.lags, dtype=np.int64).tolist(),
               np.asarray(profile.values, dtype=np.float64).tolist(),
               np.asarray(profile.sigmas, dtype=np.float64).tolist(),
               np.asarray(profile.pair_counts, dtype=np.int64).tolist(),
               keep.tolist())
    lines = [PROFILE_HEADER]
    lines += [f"{d},{j},{cc!r},{s!r},{n}" for j, cc, s, n, k in rows if k]
    return _write(path, "\n".join(lines) + "\n")


def _write(path, text):
    """Write `text` to `path`; returns the bytes written."""
    Path(path).write_bytes(data := text.encode())
    return data


def read_profile_csv(path):
    """Read profiles written by `emit_profile_csv`; one per distinct d."""
    groups = {}  # d -> rows, in the order the d values first appear
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != PROFILE_HEADER:
            raise MalformedProfile(f"unexpected profile header {header!r}")
        for line in filter(None, (line.rstrip("\n") for line in fh)):
            ds, lag, cc, sig, pairs = line.split(",")
            groups.setdefault(float(ds), []).append(
                (int(lag), float(cc), float(sig), int(pairs)))
    profiles = []
    for d, rows in groups.items():
        lags, ccs, sigs, pairs = zip(*rows)
        profiles.append(CorrelationProfile(
            d, np.array(lags, dtype=np.int64), np.array(ccs),
            np.array(pairs, dtype=np.int64), sigmas=np.array(sigs)))
    return profiles


def emit_gamma_kappa_table(power_fits, path):
    """Write the per-d power-law fit table; returns the bytes written.

    `power_fits` maps d to the power-law FitResult, or None where the
    fit failed. kappa is the fitted cross-correlation strength at lag 1.
    """
    lines = [GAMMA_KAPPA_HEADER]
    for d, fit in sorted(power_fits.items()):
        if fit is None:
            continue
        (kappa, gamma), (kerr, gerr) = fit.params, fit.param_errors
        lines.append(f"{_r(d)},{_r(gamma)},{_r(gerr)},{_r(kappa)},{_r(kerr)},"
                     f"{_r(fit.reduced_chi2)}")
    return _write(path, "\n".join(lines) + "\n")


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


def _dumps(doc, **kw):
    """Sorted-key JSON; numpy arrays and scalars become Python values."""
    return json.dumps(doc, sort_keys=True, default=lambda o: o.tolist(), **kw)


def fit_to_json(fit):
    """Machine-readable record of one fit."""
    return {
        "model": fit.model,
        "param_names": list(PARAM_NAMES[fit.model]),
        "params": fit.params.tolist(),
        "param_errors": fit.param_errors.tolist(),
        "covariance": fit.covariance.tolist(),
        "reduced_chi2": float(fit.reduced_chi2),
        "fit_range": list(fit.fit_range),
        "n_points": int(fit.n_points),
        "excluded_points": fit.excluded_x,
    }


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
    is non-deterministic. The body lists the sha256 of the bytes written
    to each other file (`file_sha256`), so its hash, `body_sha256`,
    covers every byte but that field.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    names = [f"profile_d{prof.d:g}.csv" for prof in report.sweep.profiles]
    written = {name: emit_profile_csv(prof, out / name)
               for name, prof in zip(names, report.sweep.profiles)}
    written["gamma_kappa.csv"] = emit_gamma_kappa_table(
        report.power_fits, out / "gamma_kappa.csv")

    fits_doc = {"provenance": FIT_PROVENANCE, "fits": [
        {**fit_to_json(fit), "d": float(d)} for d in sorted(report.power_fits)
        for fit in (report.power_fits[d], report.exp_fits.get(d)) if fit]}
    if report.quadratic_fit is not None:
        fits_doc["quadratic_gamma"] = fit_to_json(report.quadratic_fit)
    for name, text in (("fits.json", _dumps(fits_doc, indent=1)),
                       ("summary.txt", "\n".join(_summary_lines(report)))):
        written[name] = _write(out / name, text + "\n")

    body = {
        "metadata": report.metadata,
        "argmax_kappa_d": report.argmax_kappa_d,
        "long_range": {f"{d:g}": v for d, v in report.long_range.items()},
        "files": names + ["gamma_kappa.csv", "fits.json", "summary.txt"],
        "file_sha256": {name: hashlib.sha256(data).hexdigest()
                        for name, data in written.items()},
        "comparisons": {
            f"{d:g}": {"winner": c.winner, "chi2red": [c.chi2red_a, c.chi2red_b]}
            for d, c in sorted(report.comparisons.items())
        },
    }
    canonical = _dumps(body, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    doc = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "body_sha256": digest,
        "body": body,
    }
    _write(out / "report.json", _dumps(doc, indent=1) + "\n")
    return {"out_dir": str(out), "files": body["files"], "body_sha256": digest,
            "argmax_kappa_d": report.argmax_kappa_d}
