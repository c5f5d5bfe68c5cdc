import gzip
import io

import numpy as np
import pytest

from retvol import errors
from retvol.ingest import (TickSeries, deduplicate, parse_tick_csv,
                           read_tick_file, serialize_tick_csv)


def parse(text, strictness="strict"):
    return parse_tick_csv(io.StringIO(text), strictness=strictness)


def test_single_record_field_mapping():
    ts = parse("1420848000,280.00,1.5\n")
    assert len(ts) == 1
    assert ts.timestamps.dtype == np.int64 and ts.timestamps[0] == 1420848000
    assert ts.prices[0] == 280.00 and ts.volumes[0] == 1.5


def test_malformed_line_strict():
    with pytest.raises(errors.MalformedLine) as exc:
        parse("abc,1,2\n")
    assert exc.value.line_no == 1


def test_malformed_line_number_points_at_offender():
    with pytest.raises(errors.MalformedLine) as exc:
        parse("10,1,0\n20,2,0\nbad line\n")
    assert exc.value.line_no == 3


def test_records_sorted_by_timestamp():
    ts = parse("10,1.0,0\n5,2.0,0\n7,3.0,0\n")
    assert list(ts.timestamps) == [5, 7, 10]
    assert list(ts.prices) == [2.0, 3.0, 1.0]


def test_sort_is_stable_for_ties():
    ts = parse("5,1.0,0\n5,2.0,0\n5,3.0,0\n")
    assert list(ts.prices) == [1.0, 2.0, 3.0]


def test_sorted_for_any_permutation():
    rng = np.random.default_rng(3)
    base = [(int(t), float(p), 1.0)
            for t, p in zip(rng.integers(0, 1000, 50), rng.uniform(1, 9, 50))]
    for _ in range(5):
        perm = rng.permutation(len(base))
        text = "".join(f"{base[i][0]},{base[i][1]},{base[i][2]}\n" for i in perm)
        out = parse(text)
        assert np.all(np.diff(out.timestamps) >= 0)
        assert sorted(zip(out.timestamps, out.prices)) == sorted(
            (b[0], b[1]) for b in base)


def test_non_positive_price_strict():
    with pytest.raises(errors.NonPositivePrice) as exc:
        parse("10,1.0,0\n20,-3.0,1\n")
    assert exc.value.line_no == 2
    with pytest.raises(errors.NonPositivePrice):
        parse("10,0.0,0\n")


def test_lenient_skips_and_counts():
    text = "10,1.0,0\njunk\n20,0,1\n30,2.0,1\n40,2.0,-1\n\n"
    ts = parse(text, strictness="lenient")
    assert len(ts) == 2
    assert ts.n_skipped == 4
    # skipped + accepted == input line count
    assert ts.n_skipped + len(ts) == 6


def test_empty_input():
    with pytest.raises(errors.EmptyInput):
        parse("", strictness="lenient")
    with pytest.raises(errors.EmptyInput):
        parse("garbage\n", strictness="lenient")


def test_unknown_strictness_raises_config_invalid():
    with pytest.raises(errors.ConfigInvalid,
                       match="unknown strictness 'loose'"):
        parse("10,1.5,2\n", strictness="loose")


def test_crlf_and_bytes_stream():
    ts = parse_tick_csv(io.BytesIO(b"10,1.5,2\r\n20,2.5,0\r\n"))
    assert list(ts.prices) == [1.5, 2.5]


def test_roundtrip_serialize_parse():
    rng = np.random.default_rng(11)
    n = 200
    ticks = TickSeries(
        np.sort(rng.integers(0, 10**6, n)).astype(np.int64),
        np.exp(rng.normal(3, 1, n)),
        np.abs(rng.normal(0, 2, n)),
    )
    buf = io.StringIO()
    serialize_tick_csv(ticks, buf)
    again = parse(buf.getvalue())
    assert again == ticks


def test_dedup_exact_duplicates():
    ts = parse("10,1.0,2.0\n10,1.0,2.0\n")
    out = deduplicate(ts)
    assert len(out) == 1


def test_dedup_keeps_distinct_trades_at_same_time():
    ts = parse("10,1.0,2.0\n10,2.0,2.0\n10,1.0,2.0\n")
    out = deduplicate(ts)
    assert len(out) == 2
    assert list(out.prices) == [1.0, 2.0]


def test_dedup_never_grows():
    rng = np.random.default_rng(5)
    t = np.sort(rng.integers(0, 20, 100)).astype(np.int64)
    p = rng.choice([1.0, 2.0], 100)
    v = rng.choice([0.5, 1.5], 100)
    ts = TickSeries(t, p, v)
    out = deduplicate(ts)
    assert 1 <= len(out) <= len(ts)
    # idempotent
    assert deduplicate(out) == out


def test_gzip_file_roundtrip(tmp_path):
    path = tmp_path / "ticks.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("10,1.0,0.5\n20,2.0,0.25\n")
    ts = read_tick_file(path)
    assert len(ts) == 2
    assert ts.source_label.endswith("ticks.csv.gz")


def test_timestamp_beyond_int64_is_a_malformed_line():
    text = "10,1.0,1\n99999999999999999999,1.0,1\n20,2.0,1\n"
    with pytest.raises(errors.MalformedLine) as exc:
        parse(text)
    assert exc.value.line_no == 2
    ts = parse(text, strictness="lenient")
    assert list(ts.timestamps) == [10, 20]
    assert ts.n_skipped == 1


@pytest.mark.parametrize("block", [2, 1 << 16])
def test_serialize_matches_per_row_formatting(monkeypatch, block):
    import retvol.ingest
    monkeypatch.setattr(retvol.ingest, "_SERIALIZE_ROWS", block)
    values = np.array([1e-05, 1e16, 100.0, 2.5e-310, 5e-324, 0.1, 1.0 / 3])
    ticks = TickSeries(np.arange(len(values), dtype=np.int64) - 3, values,
                       values[::-1].copy())
    buf = io.StringIO()
    serialize_tick_csv(ticks, buf)
    want = "".join(f"{ticks.timestamps[i]},{float(ticks.prices[i])!r},"
                   f"{float(ticks.volumes[i])!r}\n" for i in range(len(ticks)))
    assert buf.getvalue() == want
    assert "1e-05" in want and "1e+16" in want and "5e-324" in want


def _gzip_csv(n=20_000):
    text = "".join(f"{1_420_000_000 + i},{100 + i * 1e-3!r},{0.5 + i % 7}\n"
                   for i in range(n))
    return gzip.compress(text.encode("ascii"), mtime=0)


def _corrupt_middle(data):
    mid = len(data) // 2
    return data[:mid] + b"\xff" * 64 + data[mid + 64:]


UNREADABLE = {
    "truncated.csv.gz": lambda: _gzip_csv()[:20_000],
    "plain.csv.gz": lambda: b"10,1.0,1\n20,2.0,1\n",
    "corrupt.csv.gz": lambda: _corrupt_middle(_gzip_csv()),
    "absent.csv": None,
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_file_is_a_typed_error(tmp_path, name):
    path = tmp_path / name
    if UNREADABLE[name] is not None:
        path.write_bytes(UNREADABLE[name]())
    with pytest.raises(errors.UnreadableInput) as exc:
        read_tick_file(path)
    assert str(path) in str(exc.value)
