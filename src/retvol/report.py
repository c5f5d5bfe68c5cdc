"""Deterministic report and plot-data emission.

Machine outputs (profile CSVs, fit JSON, gamma/kappa table) print floats
with shortest round-trip formatting so re-importing reproduces every
value bit-exactly; `_float_field` formats the CSVs' in one numpy pass,
byte for byte as `repr`, which takes each value the pass does not
prove. The human summary table uses 10 significant digits plus
parenthesized-error notation like 0.0184(13). Nothing in the data body
depends on the wall clock: byte-identical inputs and configuration give
byte-identical files. report.json's body holds the sha256 of every
other file written, and report.json carries a hash of that body, so
the hash covers every byte but the generation timestamp, which is kept
outside the body.
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
from .fitting import EXPONENTIAL, FIT_PROVENANCE, PARAM_NAMES, POWER_LAW
from .ingest import _P10_HI, _P10_LO, _POW10F, _split

PROFILE_HEADER = "d,lag,cc,sigma,pairs"
GAMMA_KAPPA_HEADER = "d,gamma,gamma_err,kappa,kappa_err,chi2red"


def _r(x):
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


_U, _C = np.uint64, np.arange(24)
# row 24 a + b: bytes a..b of a 24-byte field set, as three words
_SPAN = ((_C[:, None, None] <= _C) & (_C <= _C[:, None])).reshape(
    576, 24).astype(np.uint8).view(_U) * _U(255)
_DOT = np.eye(24, dtype=np.uint8).view(_U) * _U(ord("."))


def _float_field(x):
    """`repr` of each float as a NUL-padded row of 24 bytes.

    |x| 10**q = hi + lo exactly (TwoProduct), hi an integer in [1e16,
    1e17); x rounds from hi + lo +- h there, h in [0.55, 11]. `repr`
    prints, with a dot after its digit 23 - q, the n nearest hi + lo of
    that interval's multiples of the largest power of ten (1, 10 or 100,
    then unique). `repr` itself takes each value this does not prove: 0,
    non-finite, |x| outside [1e-4, 1e16) (an exponent form), powers of
    two (an uneven interval), log10 rounding leaving hi < 1e16, and ends
    or candidate ties within 2**-40 of exact.
    """
    if len(x) > 4096:  # small temporaries reuse heap pages; fresh ones fault
        return np.concatenate([_float_field(x[i:i + 4096])
                               for i in range(0, len(x), 4096)])
    a = np.abs(x := np.asarray(x, dtype=np.float64))
    ok = (a >= 1e-4) & (a < 1e16) & (x.view(np.int64) & (1 << 52) - 1 != 0)
    a[~ok] = 1.5
    q = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, ph, pl = (np.take(t, q) for t in (_POW10F, _P10_HI, _P10_LO))
    hi = a * p
    ok &= hi >= 1e16
    ah, al = _split(a)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    # half an ulp of a normal double: its exponent less 53
    h = ((a.view(np.int64) & 0x7FF << 52) - (53 << 52)).view(np.float64) * p
    below, above = lo - h, lo + h
    hi = hi.astype(np.int64)
    first = hi + np.floor(below).astype(np.int64) + 1
    last = hi + np.ceil(above).astype(np.int64) - 1
    r100 = last - last // 100 * 100
    by100 = r100 <= last - first  # then by10 too
    unit = 1 + 9 * (last - last // 10 * 10 <= last - first) + 90 * by100
    r10 = hi - hi // 10 * 10
    t = (r10 + lo) / unit
    n = hi - r10 + np.rint(t).astype(np.int64) * unit
    n += unit * ((n < first).view(np.int8) - (n > last).view(np.int8))
    n = np.where(by100, last - r100, n).view(_U)
    for v in (below, above, t - 0.5):
        ok &= np.abs(v - np.rint(v)) >= 2.0**-40
    del a, p, ph, pl, hi, ah, al, lo, h, below, above, first, last, t, v
    # n's 24 digits as bytes 0-9, 8 to a word (multiply-shift lanes)
    w = np.stack((n // _U(10**16), n // _U(10**8) % _U(10**8), n % _U(10**8)))
    for div, width, magic, shift, mask in (
            (10**4, 32, 109951163, 40, 2**32 - 1),
            (100, 16, 5243, 19, 0x0000007F0000007F),
            (10, 8, 103, 10, 0x000F000F000F000F)):
        lane = w * _U(magic) >> _U(shift) & _U(mask)
        w -= lane * _U(div)
        w <<= _U(width)
        w |= lane
    # the last nonzero digit is the top byte of the last nonzero word
    k = np.where(w[2] != 0, 2, w[1] != 0)
    top = np.frexp(np.where(k == 2, w[2], np.where(k, w[1], w[0])) * 1.0)[1]
    last = 8 * k + (top - 1) // 8
    dot = 23 - q
    first = np.minimum(8 - (n >= 10**16) - (n >= 10**17), dot)
    w = np.bitwise_or(w.T, _U(0x3030303030303030), order="C")
    # the integer part moves down a byte for the dot; the sign takes byte 0
    r = w >> _U(8)
    r.ravel()[:-1] |= w.ravel()[1:] << _U(56)
    r &= np.take(_SPAN, 24 * first + dot - 25, axis=0, mode="clip")
    w &= np.take(_SPAN, 24 * dot + np.maximum(last, dot + 1) + 24, axis=0,
                 mode="clip")
    w |= r | np.take(_DOT, dot, axis=0, mode="clip")
    w[:, 0] |= (x < 0) * _U(ord("-"))
    field = w.view(np.uint8)
    field[~ok] = np.array([_r(v) for v in x[~ok]], "S24").view(
        np.uint8).reshape(-1, 24)
    return field


def _csv(fields):
    """Lines of comma-separated NUL-padded fields, NULs removed."""
    comma = np.full((len(fields[0]), 1), ord(","), dtype=np.uint8)
    rows = np.concatenate([c for f in fields for c in (f, comma)], axis=1)
    rows[:, -1] = ord("\n")
    flat = rows.ravel()
    return flat[flat != 0].tobytes()


def _profile_csvs(profiles):
    """`emit_profile_csv`'s bytes for each profile, formatted together."""
    if any(prof.sigmas is None for prof in profiles):
        raise MissingSigmas("attach jackknife sigmas before export")
    lags, cc, sigma, pairs = map(np.concatenate, zip(*(
        (p.lags, p.values, p.sigmas, p.pair_counts) for p in profiles)))
    sizes, n = [len(prof) for prof in profiles], len(cc)
    ds, floats = np.split(_float_field(np.concatenate((
        [prof.d for prof in profiles], cc, sigma))), [len(profiles)])
    # ints repeat from profile to profile: each distinct one gets `str`
    uniq, at = np.unique(np.append(lags, pairs).astype(np.int64),
                         return_inverse=True)
    ints = np.array([str(i) for i in uniq.tolist()], dtype="S").view(np.uint8)
    ints = np.take(ints.reshape(len(uniq), -1), at, axis=0)
    text = _csv([np.repeat(ds[:, ds.any(axis=0)], sizes, axis=0), ints[:n],
                 floats[:n], floats[n:], ints[n:]])
    # the offset of each line, then of each profile's first line
    lines = np.cumsum([0] + sizes)
    at = np.append(0, np.flatnonzero(np.frombuffer(text, np.uint8) == 10) + 1)
    header = (PROFILE_HEADER + "\n").encode()
    return [header + text[a:b] for a, b in zip(at[lines[:-1]], at[lines[1:]])]


def emit_profile_csv(profile, path):
    """Write one profile as `d,lag,cc,sigma,pairs` rows; returns the bytes.
    Requires jackknife sigmas."""
    return _write(path, _profile_csvs([profile])[0])


def _write(path, data):
    """Write the bytes `data` to `path`; returns them."""
    Path(path).write_bytes(data)
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
    table = np.array([(d, fit.params[1], fit.param_errors[1], fit.params[0],
                        fit.param_errors[0], fit.reduced_chi2)
                       for d, fit in sorted(power_fits.items())
                       if fit is not None], dtype=np.float64).reshape(-1, 6)
    fields = _float_field(table.ravel()).reshape(-1, 6, 24)
    return _write(path, (GAMMA_KAPPA_HEADER + "\n").encode()
                  + _csv([fields[:, k] for k in range(6)]))


def format_value_error(value, err):
    """Parenthesized-error notation with two error digits:
    format_value_error(0.0184, 0.0013) gives '0.0184(13)'."""
    value = float(value)
    err = float(err)
    if not math.isfinite(value) or not math.isfinite(err):
        return f"{value}({err})"
    if err <= 0:
        return f"{_r(value)}(0)"
    mag = math.floor(math.log10(err))
    lsd = mag - 1
    scaled = round(err / 10.0 ** lsd)
    if scaled >= 100:
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
    failed_fits: list = field(default_factory=list)  # pipeline._failure


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
    failed = {(f["d"], f["model"]): f["error"] for f in report.failed_fits}
    for d in sorted(report.power_fits):
        pf = report.power_fits[d]
        if pf is None:
            lines.append(f"{d:<6g} fit unavailable ({failed.get((d, POWER_LAW), '-')})")
            continue
        ef = report.exp_fits.get(d)
        comp = report.comparisons.get(d)
        kappa, gamma = pf.params
        kerr, gerr = pf.param_errors
        row = (f"{d:<6g} {_sci(kappa)} {_sci(gamma)} "
               f"{format_value_error(gamma, gerr):<14} {_sci(pf.reduced_chi2)}")
        row += (f" {_sci(ef.reduced_chi2)}" if ef is not None else
                f" {failed.get((d, EXPONENTIAL), '-' * 15):<15}")
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
    written = {name: _write(out / name, data) for name, data in
               zip(names, _profile_csvs(report.sweep.profiles))}
    written["gamma_kappa.csv"] = emit_gamma_kappa_table(
        report.power_fits, out / "gamma_kappa.csv")

    fits_doc = {"provenance": FIT_PROVENANCE, "fits": [
        {**fit_to_json(fit), "d": float(d)} for d in sorted(report.power_fits)
        for fit in (report.power_fits[d], report.exp_fits.get(d)) if fit]}
    if report.quadratic_fit is not None:
        fits_doc["quadratic_gamma"] = fit_to_json(report.quadratic_fit)
    if report.failed_fits:
        fits_doc["failed"] = report.failed_fits
    for name, text in (("fits.json", _dumps(fits_doc, indent=1)),
                       ("summary.txt", "\n".join(_summary_lines(report)))):
        written[name] = _write(out / name, (text + "\n").encode())

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
    _write(out / "report.json", (_dumps(doc, indent=1) + "\n").encode())
    return {"out_dir": str(out), "files": body["files"], "body_sha256": digest,
            "argmax_kappa_d": report.argmax_kappa_d}
