import copy
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_gamma_kappa_csv, oracle_profile_csv
from retvol import errors
from retvol.crosscorr import CorrelationProfile, power_grid
from retvol.fitting import FitPoints, FitResult, fit_power_law
from retvol.pipeline import AnalysisConfig, analyze_ticks
from retvol.report import (emit_gamma_kappa_table, emit_profile_csv,
                           fit_to_json, format_value_error, read_profile_csv,
                           write_report)
from retvol.synth import GarchSpec, gen_asym_garch, ticks_from_returns


def make_profile(seed=0, n_lags=9, d=2.0):
    rng = np.random.default_rng(seed)
    lags = np.arange(-(n_lags // 2), n_lags // 2 + 1)
    values = rng.uniform(-0.1, 0.1, n_lags)
    sigmas = rng.uniform(0.01, 0.05, n_lags)
    return CorrelationProfile(d, lags, values, 5000 - np.abs(lags),
                              sigmas=sigmas)


def test_profile_csv_roundtrip_bit_exact(tmp_path):
    prof = make_profile(1)
    path = tmp_path / "profile.csv"
    emit_profile_csv(prof, path)
    (again,) = read_profile_csv(path)
    assert again.d == prof.d
    assert np.array_equal(again.lags, prof.lags)
    assert np.array_equal(again.values, prof.values)
    assert np.array_equal(again.sigmas, prof.sigmas)
    assert np.array_equal(again.pair_counts, prof.pair_counts)


def test_profile_csv_requires_sigmas(tmp_path):
    prof = make_profile(2)
    prof.sigmas = None
    with pytest.raises(errors.MissingSigmas):
        emit_profile_csv(prof, tmp_path / "x.csv")


def test_bad_profile_header_is_a_typed_error(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("d,lag,cc\n1.0,1,0.5\n")
    with pytest.raises(errors.MalformedProfile,
                       match="unexpected profile header") as info:
        read_profile_csv(path)
    assert isinstance(info.value, ValueError)


def test_gamma_kappa_table_and_argmax(tmp_path):
    fits = {}
    for d, (kappa, gamma) in {0.5: (0.2, 0.5), 1.4: (0.9, 0.6),
                              3.0: (0.4, 0.9)}.items():
        x = np.arange(1.0, 51.0)
        fits[d] = fit_power_law(
            FitPoints(x, kappa * x ** (-gamma), np.full(50, 0.01)), (1, 50))
    path = tmp_path / "gk.csv"
    emit_gamma_kappa_table(fits, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "d,gamma,gamma_err,kappa,kappa_err,chi2red"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.5 and abs(float(first[3]) - 0.2) < 1e-8


def test_format_value_error_reference_style():
    assert format_value_error(0.0184, 0.0013) == "0.0184(13)"
    assert format_value_error(0.0470, 0.0035) == "0.0470(35)"
    assert format_value_error(0.5630, 0.0018) == "0.5630(18)"
    assert format_value_error(1.234, 0.0) == "1.234(0)"
    assert format_value_error(12347.0, 230.0) == "12350(230)"
    assert format_value_error(0.047, 0.00999) == "0.047(10)"


def test_fit_json_contents():
    x = np.arange(1.0, 101.0)
    fit = fit_power_law(FitPoints(x, 0.5 * x ** (-0.7), np.full(100, 0.01)),
                        (1, 100))
    doc = fit_to_json(fit)
    assert doc["model"] == "power_law"
    assert doc["param_names"] == ["kappa", "gamma"]
    assert len(doc["covariance"]) == 2
    json.dumps(doc)  # must be serializable as-is


def _tiny_report():
    spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.85, leverage=0.10,
                     n=30_000, seed=5)
    rets = gen_asym_garch(spec)
    rets.values *= 0.002
    ticks = ticks_from_returns(rets, spacing=120)
    cfg = AnalysisConfig(delta_t=120, d_grid=[0.5, 1.0, 2.0],
                         lag_min=-20, lag_max=20, fit_lo=1, fit_hi=20,
                         jk_blocks=20, workers=2)
    return analyze_ticks(ticks, cfg)


def test_write_report_deterministic(tmp_path):
    report = _tiny_report()
    m1 = write_report(report, tmp_path / "a")
    m2 = write_report(report, tmp_path / "b")
    assert m1["body_sha256"] == m2["body_sha256"]
    for name in m1["files"]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["body"] == rb["body"]
    assert ra["body_sha256"] == rb["body_sha256"]


def _spoil_cc(report):
    report.sweep.profiles[0].values[3] += 0.1


def _spoil_sigma(report):
    report.sweep.profiles[1].sigmas[2] *= 2.0


def _spoil_fit(report):
    report.power_fits[2.0].params[0] *= 1.5


def _spoil_metadata(report):
    report.metadata["source"] = "elsewhere"


@pytest.mark.parametrize("spoil", [_spoil_cc, _spoil_sigma, _spoil_fit,
                                   _spoil_metadata],
                         ids=["cc_value", "sigma", "fit_parameter",
                              "metadata"])
def test_body_hash_covers_every_file(tmp_path, spoil):
    report = _tiny_report()
    base = write_report(report, tmp_path / "a")
    changed = copy.deepcopy(report)
    spoil(changed)
    assert (write_report(changed, tmp_path / "b")["body_sha256"]
            != base["body_sha256"])
    body = json.loads((tmp_path / "a" / "report.json").read_text())["body"]
    assert sorted(body["file_sha256"]) == sorted(base["files"])
    for name, digest in body["file_sha256"].items():
        assert hashlib.sha256((tmp_path / "a" / name).read_bytes()
                              ).hexdigest() == digest, name


def test_report_files_and_summary(tmp_path):
    report = _tiny_report()
    manifest = write_report(report, tmp_path / "out")
    assert set(manifest["files"]) >= {"gamma_kappa.csv", "fits.json",
                                      "summary.txt"}
    assert manifest["argmax_kappa_d"] == report.argmax_kappa_d
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "quadratic exponent curve" in summary
    assert "max correlation strength" in summary
    fits = json.loads((tmp_path / "out" / "fits.json").read_text())
    assert "provenance" in fits
    models = {f["model"] for f in fits["fits"]}
    assert models == {"power_law", "exponential"}


def test_gjr_pipeline_kappa_curve_shape():
    # the correlation-strength curve from the leverage pipeline has an
    # interior maximum and turns convex in the large-d tail
    spec = GarchSpec(omega=0.05, a_arch=0.05, b_garch=0.88, leverage=0.08,
                     n=120_000, seed=11)
    rets = gen_asym_garch(spec)
    rets.values *= 0.002
    ticks = ticks_from_returns(rets, spacing=120)
    cfg = AnalysisConfig(delta_t=120, d_grid=power_grid(0.2, 3.0, 0.2),
                         lag_min=-60, lag_max=60, fit_lo=1, fit_hi=60,
                         jk_blocks=50, workers=2)
    report = analyze_ticks(ticks, cfg)
    ds = sorted(report.power_fits)
    kappa = np.array([report.power_fits[d].params[0] for d in ds])
    peak = int(np.argmax(kappa))
    assert 0 < peak < len(kappa) - 1
    assert report.argmax_kappa_d == ds[peak]
    # rises into the peak, falls after it, convex far tail
    assert np.all(np.diff(kappa[:peak + 1]) > 0)
    assert np.all(np.diff(kappa[peak:]) < 0)
    assert np.diff(kappa, 2)[-1] > 0


def edge_floats():
    """Where `repr` changes form or the shortest digits are hard to prove:
    the ends of its positional range and their neighbours, powers of two,
    ties and 17-digit values, zeros, subnormals and non-finite values."""
    vals = [1e-4, 1e16, 0.1, 1 / 3, 2 / 3, 5e-324, 2.2250738585072014e-308,
            0.0, np.inf, np.nan, 1.7976931348623157e308, 0.30000000000000004,
            123456789012345.67, 9999999999999998.0, 1.2345678901234567,
            0.00012345678901234567, 4.35, 2.675, 1e15 + 0.5, 9.5, 0.5e-4]
    for v in (1e-4, 1e16, 1e-3, 1.0, 1e8):
        vals += [np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    vals += [2.0 ** k for k in range(-20, 60, 3)]
    vals += [10.0 ** k for k in range(-6, 18)]
    return np.array(vals + [-v for v in vals])


def profile_of(values, sigmas, d=1.5):
    lags = np.arange(len(values)) - len(values) // 2
    return CorrelationProfile(d, lags, np.asarray(values, dtype=float),
                              1000 - np.abs(lags),
                              sigmas=np.asarray(sigmas, dtype=float))


@pytest.mark.parametrize("workload", ["garch_returns", "ticks_gz_dirty"])
def test_profile_csv_matches_per_row_oracle_on_seeded_workloads(
        seed3_reports, workload):
    for prof in seed3_reports[workload].sweep.profiles:
        assert (emit_profile_csv(prof, os.devnull)
                == oracle_profile_csv(prof).encode())


def test_report_files_match_per_row_oracles(seed3_reports, tmp_path):
    # write_report formats every profile of a report in one pass
    for workload, report in seed3_reports.items():
        write_report(report, tmp_path / workload)
        for prof in report.sweep.profiles:
            path = tmp_path / workload / f"profile_d{prof.d:g}.csv"
            assert path.read_bytes() == oracle_profile_csv(prof).encode()
        assert ((tmp_path / workload / "gamma_kappa.csv").read_bytes()
                == oracle_gamma_kappa_csv(report.power_fits).encode())


def test_profile_csv_matches_repr_at_the_edges():
    vals = edge_floats()
    for d in (0.1, 1.0, 2.5):
        prof = profile_of(vals, vals[::-1], d)
        assert (emit_profile_csv(prof, os.devnull)
                == oracle_profile_csv(prof).encode())


floats_of_any_bits = st.one_of(
    st.integers(0, 2**64 - 1).map(
        lambda b: float(np.array([b], dtype=np.uint64).view(np.float64)[0])),
    st.floats(1e-5, 1e17), st.floats(-1e17, -1e-5))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(floats_of_any_bits, floats_of_any_bits),
                min_size=1, max_size=30))
def test_profile_csv_matches_repr_on_any_bit_pattern(pairs):
    values, sigmas = zip(*pairs)
    prof = profile_of(values, sigmas)
    assert (emit_profile_csv(prof, os.devnull)
            == oracle_profile_csv(prof).encode())


def test_gamma_kappa_table_matches_per_row_oracle(tmp_path):
    vals = edge_floats()
    fits = {float(d): FitResult(
        "power_law", vals[[i, i + 1]], vals[[i + 2, i + 3]], np.eye(2),
        vals[i + 4], (1, 2), 3) for i, d in enumerate(vals[:-4])
        if np.isfinite(d)}
    fits[1e9] = None
    assert (emit_gamma_kappa_table(fits, tmp_path / "gk.csv")
            == oracle_gamma_kappa_csv(fits).encode())
