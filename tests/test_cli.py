import gzip
import json

import pytest

from retvol.cli import main
from retvol.report import read_profile_csv


def test_synth_then_analyze_end_to_end(tmp_path, capsys):
    csv = tmp_path / "ticks.csv"
    rc = main(["synth", "--kind", "garch", "--n", "20000", "--seed", "3",
               "--leverage", "0.10", "--out", str(csv)])
    assert rc == 0
    assert "wrote 20001 ticks" in capsys.readouterr().out
    assert csv.exists()
    first = csv.read_text().splitlines()[0]
    assert len(first.split(",")) == 3

    out = tmp_path / "out"
    rc = main(["analyze", "--input", str(csv), "--delta-t", "120",
               "--d-grid", "0.5:2.0:0.5", "--lags=-15:15",
               "--fit-range", "1:15", "--jk-blocks", "20",
               "--workers", "2", "--out-dir", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "body sha256:" in captured
    assert (out / "report.json").exists()
    assert (out / "summary.txt").exists()
    assert (out / "gamma_kappa.csv").exists()
    profs = read_profile_csv(out / "profile_d0.5.csv")
    assert profs[0].d == 0.5
    assert profs[0].sigmas is not None

    doc = json.loads((out / "report.json").read_text())
    assert doc["body"]["metadata"]["delta_t"] == 120
    assert doc["body"]["metadata"]["jackknife_blocks"] == 20


def test_analyze_accepts_gzip(tmp_path):
    csv = tmp_path / "ticks.csv"
    main(["synth", "--kind", "iid", "--n", "5000", "--seed", "1",
          "--out", str(csv)])
    gz = tmp_path / "ticks.csv.gz"
    gz.write_bytes(gzip.compress(csv.read_bytes()))
    out = tmp_path / "gzout"
    rc = main(["analyze", "--input", str(gz), "--delta-t", "120",
               "--d-grid", "1.0:2.0:1.0", "--lags=-10:10",
               "--fit-range", "1:10", "--jk-blocks", "10",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()


def test_analyze_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a\nvalid file\n")
    rc = main(["analyze", "--input", str(bad), "--out-dir",
               str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_grid_argument(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("0,1.0,1\n120,2.0,1\n240,1.5,1\n")
    with pytest.raises(SystemExit):
        main(["analyze", "--input", str(csv), "--d-grid", "nope",
              "--out-dir", str(tmp_path / "y")])


@pytest.mark.parametrize("flag", [
    "--d-grid=1:2:0",      # zero step
    "--d-grid=2:1:0.1",    # empty grid
    "--lags=5:10",         # lag range without 0
    "--delta-t=0",
])
def test_bad_flag_is_a_usage_error(tmp_path, capsys, flag):
    # the input does not exist: the flag is rejected before it is read
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(tmp_path / "absent.csv"), flag,
              "--out-dir", str(tmp_path / "y")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag.split('=')[0]}" in err
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("flag", [
    "--fit-range=5:1", "--fit-range=-3:0", "--workers=0", "--fit-filter=nan",
    "--fit-filter=-1"])
def test_bad_setting_is_a_usage_error_before_the_input_is_read(
        tmp_path, capsys, flag):
    # the input does not exist: the config is checked before it is read
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(tmp_path / "absent.csv"), flag,
              "--out-dir", str(tmp_path / "y")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "retvol analyze: error:" in err
    assert f"({flag.split('=')[0]}" in err
    assert not (tmp_path / "y").exists()


def test_synth_nonstationary_spec_fails_cleanly(tmp_path, capsys):
    rc = main(["synth", "--kind", "garch", "--n", "1000", "--seed", "1",
               "--a-arch", "0.2", "--b-garch", "0.9",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


UNREADABLE = {
    "truncated.csv.gz": gzip.compress("".join(
        f"{t},{t % 97}.5,1\n" for t in range(50_000)).encode(), mtime=0)[:20_000],
    "plain.csv.gz": b"10,1.0,1\n20,2.0,1\n",
    "absent.csv": None,
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_input_is_reported_not_raised(tmp_path, capsys, name):
    path = tmp_path / name
    if UNREADABLE[name] is not None:
        path.write_bytes(UNREADABLE[name])
    rc = main(["analyze", "--input", str(path), "--out-dir",
               str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--delta-t=0", "--n=0", "--n=-5"])
def test_bad_synth_flag_is_a_usage_error(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["synth", flag, "--out", str(tmp_path / "z.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag.split('=')[0]}" in err
    assert not (tmp_path / "z.csv").exists()


def test_synth_too_few_iid_returns_fails_cleanly(tmp_path, capsys):
    rc = main(["synth", "--kind", "iid", "--n", "50",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "z.csv").exists()
