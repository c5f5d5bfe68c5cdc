"""Independent brute-force references shared by the test modules.

Everything here is deliberately written with plain Python loops and
math.fsum, sharing no code with the library paths it checks. Two
references are earlier library code kept as it was: the per-row
profile CSV writer and the Brent-method decay fit.
"""

import io
import math

import numpy as np


def oracle_cc(r, d, j):
    """Cross-correlation of r with |r|^d at signed lag j, from scratch."""
    r = [float(v) for v in r]
    n = len(r)
    pw = [abs(v) ** d for v in r]
    mu_r = math.fsum(r) / n
    mu_p = math.fsum(pw) / n
    sig_r = math.sqrt(math.fsum((v - mu_r) ** 2 for v in r) / n)
    sig_p = math.sqrt(math.fsum((v - mu_p) ** 2 for v in pw) / n)
    if j >= 0:
        prods = [(r[t] - mu_r) * (pw[t + j] - mu_p) for t in range(n - j)]
    else:
        prods = [(r[t] - mu_r) * (pw[t + j] - mu_p) for t in range(-j, n)]
    return math.fsum(prods) / len(prods) / (sig_r * sig_p)


def oracle_jackknife_sigma(values, d, lags, n_blocks):
    """Leave-one-block-out recomputation, naively coded end to end."""
    values = [float(v) for v in values]
    n = len(values)
    bounds = [(b * n) // n_blocks for b in range(n_blocks + 1)]
    thetas = []
    for b in range(n_blocks):
        reduced = values[:bounds[b]] + values[bounds[b + 1]:]
        thetas.append([oracle_cc(reduced, d, j) for j in lags])
    thetas = np.asarray(thetas)
    theta_bar = thetas.mean(axis=0)
    var = (n_blocks - 1) / n_blocks * ((thetas - theta_bar) ** 2).sum(axis=0)
    return np.sqrt(var)


def oracle_weighted_quadratic(x, y, sigma):
    """Weighted quadratic fit via lstsq on the whitened system."""
    x = np.asarray(x, float)
    w = 1.0 / np.asarray(sigma, float)
    design = np.column_stack((x * x, x, np.ones_like(x)))
    coef, *_ = np.linalg.lstsq(design * w[:, None], np.asarray(y, float) * w,
                               rcond=None)
    return coef


def oracle_decay_chi2(model, x, y, sigma, params):
    """chi^2 of a power-law or exponential decay, summed with math.fsum."""
    a, b = (float(v) for v in params)
    chi2 = []
    for xi, yi, si in zip(x, y, sigma):
        f = a * xi ** (-b) if model == "power_law" else a * math.exp(-xi / b)
        chi2.append(((yi - f) / si) ** 2)
    return math.fsum(chi2)


def oracle_fit(model, x, y, sigma, p0):
    """Weighted decay fit by scipy `least_squares` with every tolerance at
    1e-15, started at `p0`; returns (params, chi2)."""
    from scipy.optimize import least_squares

    x, y, sigma = (np.asarray(v, float) for v in (x, y, sigma))

    def resid(p):
        f = p[0] * (x ** (-p[1]) if model == "power_law" else np.exp(-x / p[1]))
        return (y - f) / sigma

    sol = least_squares(resid, np.asarray(p0, float), xtol=1e-15, ftol=1e-15,
                        gtol=1e-15)
    return sol.x, oracle_decay_chi2(model, x, y, sigma, sol.x)


def oracle_parse_tick_csv(stream, strictness="strict"):
    """Line-at-a-time tick CSV parse: (timestamps, prices, volumes, n_skipped).

    Byte streams are decoded as ASCII with replacement and universal
    newlines; text streams are iterated as they come. Strict mode
    raises the library's error types for the first bad line.
    """
    from retvol.errors import EmptyInput, MalformedLine, NonPositivePrice

    if isinstance(stream.read(0), bytes):
        stream = io.TextIOWrapper(stream, encoding="ascii", errors="replace")
    strict = strictness == "strict"
    ts, ps, vs = [], [], []
    skipped = 0
    for line_no, line in enumerate(stream, start=1):
        parts = line.rstrip("\r\n").split(",")
        try:
            if len(parts) != 3:
                raise MalformedLine(line_no,
                                    f"expected 3 fields, got {len(parts)}")
            try:
                t = int(parts[0])
                p = float(parts[1])
                v = float(parts[2])
            except ValueError:
                raise MalformedLine(line_no, "non-numeric field") from None
            if not (math.isfinite(p) and math.isfinite(v)) or v < 0:
                raise MalformedLine(line_no,
                                    "non-finite value or negative volume")
            if p <= 0:
                raise NonPositivePrice(line_no)
            if not -2**63 <= t < 2**63:
                raise MalformedLine(line_no,
                                    "timestamp outside the int64 range")
        except (MalformedLine, NonPositivePrice):
            if strict:
                raise
            skipped += 1
            continue
        ts.append(t)
        ps.append(p)
        vs.append(v)
    if not ts:
        raise EmptyInput("no valid tick records in input")
    t_arr = np.array(ts, dtype=np.int64)
    order = np.argsort(t_arr, kind="stable")
    return (t_arr[order], np.array(ps, dtype=np.float64)[order],
            np.array(vs, dtype=np.float64)[order], skipped)


def oracle_deduplicate(timestamps, prices, volumes):
    """Indices kept by collapsing exact (t, p, v) duplicates over the
    whole series, first occurrence kept, in their original order."""
    rows = np.empty(len(timestamps), dtype=[("t", np.int64), ("p", np.float64),
                                            ("v", np.float64)])
    rows["t"], rows["p"], rows["v"] = timestamps, prices, volumes
    _, first_idx = np.unique(rows, return_index=True)
    return np.sort(first_idx)


def oracle_profile_csv(profile):
    """Profile CSV text, one f-string with `repr` floats per row."""
    d = repr(float(profile.d))
    lines = ["d,lag,cc,sigma,pairs"]
    lines += [f"{d},{j},{cc!r},{s!r},{n}" for j, cc, s, n in zip(
        *(np.asarray(col).tolist() for col in (
            profile.lags, profile.values, profile.sigmas,
            profile.pair_counts)))]
    return "\n".join(lines) + "\n"


def _oracle_zeroin(h, a, b, ha, hb, tol):
    """Root of h in [a, b] given h(a) < 0 < h(b), by Brent's method
    (Brent 1973, ch. 4). Returns (root, evaluations)."""
    eps = np.finfo(float).eps
    c, hc = a, ha
    d = e = b - a
    evals = 0
    while True:
        if (hb > 0.0) == (hc > 0.0):
            c, hc = a, ha
            d = e = b - a
        if abs(hc) < abs(hb):
            a, b, c = b, c, b
            ha, hb, hc = hb, hc, hb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or hb == 0.0:
            return b, evals
        if abs(e) >= tol1 and abs(ha) > abs(hb):
            s = hb / ha
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = ha / hc, hb / hc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, ha = b, hb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        hb = h(b)
        evals += 1


def oracle_decay_fit(model, points, fit_range):
    """Variable-projection decay fit with Brent's method on d chi^2 /
    d theta and a LAPACK-inverted normal matrix, under the library's
    brackets, tolerance and failure rules. Returns (params, errors,
    reduced chi^2) or raises the library's exception for the failure."""
    from retvol.errors import (InsufficientPoints, NoConvergence,
                               NonPositiveData, NonPositiveX)
    from retvol.fitting import GAMMA_BRACKET, TAU_SPAN_BRACKET, THETA_TOL

    lo, hi = fit_range
    in_range = (points.x >= lo) & (points.x <= hi)
    if int(in_range.sum()) < 3:
        raise InsufficientPoints("too few points in range")
    positive = in_range & (points.y > 0)
    if int(positive.sum()) < 3:
        raise NonPositiveData(points.x[in_range & ~(points.y > 0)])
    x, y, sigma = points.x[positive], points.y[positive], points.sigma[positive]
    if model == "power_law" and np.any(x <= 0):
        raise NonPositiveX("power-law fit requires x > 0")
    w = 1.0 / sigma
    wy = w * y
    x0 = float(x.min())
    if model == "power_law":
        bracket, u = GAMMA_BRACKET, np.log(x) - math.log(x0)

        def rate(theta):
            return theta, 1.0
    else:
        u = x - x0
        span = float(u.max()) or 1.0
        bracket = tuple(math.log(v * span) for v in TAU_SPAN_BRACKET)

        def rate(theta):
            s = math.exp(-theta)
            return s, -s

    def project(theta):
        wg = w * np.exp(-rate(theta)[0] * u)
        c = (wg @ wy) / (wg @ wg)
        return c, wg, wy - c * wg

    def slope(theta):
        _, wg, r = project(theta)
        return rate(theta)[1] * ((u * wg) @ r)

    h_lo, h_hi = slope(bracket[0]), slope(bracket[1])
    if h_lo < 0.0 < h_hi:
        theta, _ = _oracle_zeroin(slope, *bracket, h_lo, h_hi, THETA_TOL)
    else:
        theta = bracket[0 if h_lo >= 0.0 else 1]
    c, wg, r = project(theta)
    chi2 = float(r @ r)
    f = c * wg / w
    b = theta if model == "power_law" else math.exp(theta)
    try:
        a = c * (x0 ** b if model == "power_law" else math.exp(x0 / b))
    except OverflowError:
        a = math.inf
    if theta in bracket or not 0.0 < a < math.inf:
        raise NoConvergence("optimum on a bracket edge or amplitude "
                            "outside the float range")
    dfdb = -f * np.log(x) if model == "power_law" else f * x / (b * b)
    jw = np.column_stack((f / a, dfdb)) * w[:, None]
    chi2red = chi2 / (len(x) - 2)
    try:
        cov = np.linalg.inv(jw.T @ jw) * chi2red
    except np.linalg.LinAlgError:
        raise NoConvergence("singular normal matrix") from None
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.diag(cov) >= 0.0):
        raise NoConvergence("normal matrix singular to working precision")
    return np.array([a, b]), np.sqrt(np.diag(cov)), chi2red


def oracle_gamma_kappa_csv(power_fits):
    """gamma_kappa.csv text, one `repr` per float, per fitted d."""
    lines = ["d,gamma,gamma_err,kappa,kappa_err,chi2red"]
    for d, fit in sorted(power_fits.items()):
        if fit is not None:
            (kappa, gamma), (kerr, gerr) = fit.params, fit.param_errors
            lines.append(",".join(repr(float(v)) for v in (
                d, gamma, gerr, kappa, kerr, fit.reduced_chi2)))
    return "\n".join(lines) + "\n"
