"""Independent brute-force references shared by the test modules.

Everything here is deliberately written with plain Python loops and
math.fsum, sharing no code with the library paths it checks.
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
