"""Correctness checks of every op, made outside the timer.

The references are independent of the library: the CC values come from
the brute-force `oracle_cc` in tests/oracles.py, the jackknife sigmas
from the plain numpy delete-one-block recomputation below, and the
returns both are computed on from `inputs.reference_returns`.
"""

from dataclasses import dataclass

import numpy as np

from inputs import reference_returns
from oracles import oracle_cc

CC_TOL = 1e-12
SIGMA_RTOL = 1e-9
LEVERAGE_POINT = (2.0, 1)


def cc_numpy(x, d, j):
    """CC_d(j) of one series with global population moments."""
    p = np.abs(x) ** d
    xc = x - x.mean()
    pc = p - p.mean()
    n = len(x)
    s = np.dot(xc[:n - j], pc[j:]) if j >= 0 else np.dot(xc[-j:], pc[:n + j])
    return s / (n - abs(j)) / np.sqrt(np.mean(xc * xc) * np.mean(pc * pc))


def jackknife_sigma_numpy(r, d, j, blocks):
    """Delete-one-block jackknife sigma of CC_d(j), every deletion from scratch."""
    n = len(r)
    bounds = [(b * n) // blocks for b in range(blocks + 1)]
    thetas = np.array([
        cc_numpy(np.concatenate((r[:bounds[b]], r[bounds[b + 1]:])), d, j)
        for b in range(blocks)])
    dev = thetas - thetas.mean()
    return float(np.sqrt((blocks - 1) / blocks * np.sum(dev * dev)))


@dataclass
class Reference:
    cc: dict            # (d, j) -> oracle CC
    sigma: dict         # (d, j) -> numpy jackknife sigma
    n_returns: int
    gap_fraction: float
    grid_points: int


def reference(w, truth, samples, blocks):
    r, gap, grid = reference_returns(truth["t"], truth["p"], w["delta_t"],
                                     w["gap_policy"] == "drop_interval")
    return Reference({(d, j): oracle_cc(r, d, j) for d, j in samples},
                     {(d, j): jackknife_sigma_numpy(r, d, j, blocks)
                      for d, j in samples},
                     len(r), gap, grid)


def op_problems(op, w, ref, ledger, first_sha):
    """Every way one op's outputs disagree with the references; [] if none."""
    if "error" in op:
        return [op["error"]]
    out = op["out"]
    bad = []
    for d, j, cc, sigma in out["samples"]:
        want = ref.cc[(d, j)]
        if not abs(cc - want) <= CC_TOL:
            bad.append(f"CC_{d:g}({j}) = {cc!r}, oracle {want!r}")
        want = ref.sigma[(d, j)]
        if not abs(sigma - want) <= SIGMA_RTOL * abs(want):
            bad.append(f"sigma_{d:g}({j}) = {sigma!r}, numpy {want!r}")
        if (w["leverage_check"] and (d, j) == LEVERAGE_POINT
                and not (cc < 0 and abs(cc) > 3 * sigma)):
            bad.append(f"CC_2(1) = {cc!r} not below -3 sigma ({sigma!r})")
    if out["sha"] != first_sha:
        bad.append(f"body_sha256 {out['sha']} differs from first op's")
    expect = {"n_skipped_lines": ledger["lines_skipped"],
              "n_ticks": ledger["ticks_after_dedup"],
              "carried_forward_fraction": round(ref.gap_fraction, 6),
              "n_returns": ref.n_returns}
    bad += [f"report {k} = {out[k]!r}, expected {v!r}"
            for k, v in expect.items() if out[k] != v]
    counters = op.get("counters")
    if counters is not None:
        expect = {"ingest.duplicates_collapsed": ledger["duplicates"],
                  "sampling.carried_forward_fraction": ref.gap_fraction,
                  "sampling.grid_points": ref.grid_points,
                  "returns.n": ref.n_returns}
        if w["kind"] == "cli":
            expect["ingest.lines_read"] = ledger["lines"]
            expect["ingest.lines_skipped"] = ledger["lines_skipped"]
        bad += [f"traced {k} = {counters[k]!r}, expected {v!r}"
                for k, v in expect.items() if counters[k] != v]
    return bad
