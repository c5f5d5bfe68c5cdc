"""The vectorized tick parser and dedup against line-at-a-time oracles."""

import gzip
import io

import numpy as np
import pytest
from oracles import oracle_deduplicate, oracle_parse_tick_csv

from retvol import ingest
from retvol.errors import RetvolError
from retvol.ingest import (TickSeries, deduplicate, parse_tick_csv,
                           read_tick_file, serialize_tick_csv)


def outcome(parse, make_stream, strictness):
    """(t, p, v bytes, n_skipped) of a parse, or (type, line_no, message)."""
    try:
        t, p, v, skipped = parse(make_stream(), strictness)
    except RetvolError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return t.tobytes(), p.tobytes(), v.tobytes(), skipped


def library(stream, strictness):
    ts = parse_tick_csv(stream, strictness=strictness)
    assert ts.timestamps.dtype == np.int64 and ts.prices.dtype == np.float64
    return ts.timestamps, ts.prices, ts.volumes, ts.n_skipped


def assert_matches_oracle(data):
    """Bytes are parsed as a byte stream, str as a text stream."""
    wrap = io.BytesIO if isinstance(data, bytes) else io.StringIO
    for strictness in ("strict", "lenient"):
        want = outcome(oracle_parse_tick_csv, lambda: wrap(data), strictness)
        got = outcome(library, lambda: wrap(data), strictness)
        assert got == want, (strictness, data)


CASES = [
    "10,1.5,2\r\n20,2.5,0\r\n",
    "10,1.0,1\r20,2.0,1\n30,3.0,1\n",       # lone CR: one 5-field line in text
    "10,1.0,1\n20,2.0,1",                   # no final newline
    "10,1.0,1\r",
    "\n10,1.0,1\n\n\n20,2.0,1\n\n",
    "",
    "\n",
    "junk\n\n10,nan,1\n",
    "10,1e,1\n20,2.0,1\n",
    "10,.,1\n20,2.0,1\n",
    "10,1.2.3,1\n20,2.0,1\n",
    "10,2.0,1\n20,1e999,1\n30,2.0,-0.0\n40,-0.0,1\n50,3.0,-1e-300\n",
    "1_000,1.0,1\n 10 ,2.0, 1\n10,+1.5,1\n+10,1.0,1\n-10,1.0,1\n0010,1.0,1\n",
    "10,1E5,1e-5\n20,.5,5.\n30,+.5e+3,1\n40,-.5,1\n50,1,1,\n,1,1\n",
    "999999999999999999,1.0,1\n9223372036854775807,1.0,1\n"
    "9223372036854775808,1.0,1\n-9223372036854775809,1.0,1\n",
    "99999999999999999999,1.0,1\n",
    "99999999999999999999,-1.0,1\n",
    "10,1.0,1\n20,-3.0,1\n30,nan,1\n",
    "10,inf,1\n20,2.0,1\n",
    "١٠,1.0,1\n20,٢.5,1\n",    # unicode digits
    "10,1.0,1\ud800\n20,2.0,1\n",           # lone surrogate
    "10,1.0,1\x00\n20,2.0,1\x0b\n",
]


@pytest.mark.parametrize("text", CASES)
def test_text_stream_matches_oracle(text):
    assert_matches_oracle(text)


@pytest.mark.parametrize("text", CASES)
def test_byte_stream_matches_oracle(text):
    assert_matches_oracle(text.encode("utf-8", "surrogatepass"))


def test_non_ascii_bytes_and_all_bad_input():
    assert_matches_oracle(b"10,1.0,1\xff\n\xe2\x82\xac20,2.0,1\n30,3.0,1\n")
    assert_matches_oracle(b"\xff\xfe\n,,\nabc\n10,-1,1\n")


def test_lone_cr_file_splits_lines_but_text_stream_does_not(tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(b"10,1.0,1\r20,2.0,1\r")
    ts = read_tick_file(path, strictness="strict")
    assert list(ts.timestamps) == [10, 20]
    with pytest.raises(ingest.MalformedLine) as exc:
        parse_tick_csv(io.StringIO("10,1.0,1\r20,2.0,1\r"))
    assert exc.value.line_no == 1


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
def test_file_matches_oracle(tmp_path, suffix):
    lines = ["10,1.0,1", "bad", "", "20,2.5,0.5", "20,0,1", "5,3.0,1", ""]
    data = "\r\n".join(lines).encode("ascii")
    path = tmp_path / f"ticks{suffix}"
    path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
    got = read_tick_file(path)
    t, p, v, skipped = oracle_parse_tick_csv(io.BytesIO(data), "lenient")
    assert got.timestamps.tobytes() == t.tobytes()
    assert got.prices.tobytes() == p.tobytes()
    assert got.volumes.tobytes() == v.tobytes()
    assert got.n_skipped == skipped == 3


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 8, 9, 13])
def test_lines_straddling_chunk_boundaries(monkeypatch, chunk):
    # every small chunk size puts some boundary inside a line, between
    # the \r and \n of a CRLF, and right after a lone \r
    monkeypatch.setattr(ingest, "CHUNK_BYTES", chunk)
    text = ("10,1.0,1\r\n20,2.0,1\r30,3.0,1\n\r\n40,x,1\r\n"
            "50,1e,1\n60,-1,1\n70,7.5,0.25\r")
    assert_matches_oracle(text.encode("ascii"))
    assert_matches_oracle(text)


def test_loadtxt_rejected_line_matches_oracle(monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 32)
    good = "".join(f"{t},1.5,0.25\n" for t in range(40))
    assert_matches_oracle((good + "7,1e,1\n" + good).encode("ascii"))


def count_per_line_calls(monkeypatch):
    calls = []
    parse_line = ingest._parse_line

    def counting(line, line_no):
        calls.append(line_no)
        return parse_line(line, line_no)

    monkeypatch.setattr(ingest, "_parse_line", counting)
    return calls


@pytest.mark.parametrize("chunk", [ingest.CHUNK_BYTES, 4096])
def test_fast_path_takes_every_well_formed_line(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", chunk)
    calls = count_per_line_calls(monkeypatch)
    rng = np.random.default_rng(7)
    n = 10_000
    ticks = TickSeries(1_420_000_000 + np.arange(n, dtype=np.int64),
                       np.exp(rng.normal(5, 1, n)), rng.exponential(1, n))
    buf = io.StringIO()
    serialize_tick_csv(ticks, buf)
    lines = buf.getvalue().splitlines()
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join(lines) + "\n")
    assert read_tick_file(clean, strictness="strict") == ticks
    assert calls == []

    # lines the classifier turns away take the per-line path; negative
    # or zero prices, negative volumes and overflow are caught vectorized
    slow_bad = ["abc", "10,1.0", "", "10,nan,1", " 10,1,x", "10,1,1,1",
                "x,1,1", "10,,1", "10,1,", ",1,1", "1e5,1,1", "+1.5,1,1",
                "99999999999999999999,1,1"]
    fast_bad = ["10,-1.0,1", "10,0,1", "10,1.0,-2", "10,1e999,1"]
    where = np.sort(rng.choice(n, len(slow_bad) + len(fast_bad),
                               replace=False))
    for pos, bad in zip(where[::-1], (slow_bad + fast_bad)[::-1]):
        lines.insert(int(pos), bad)
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join(lines) + "\n")
    ts = read_tick_file(dirty)
    assert ts == ticks and ts.n_skipped == len(slow_bad) + len(fast_bad)
    assert len(calls) == len(slow_bad)


def dedup_matches_oracle(ticks):
    keep = oracle_deduplicate(ticks.timestamps, ticks.prices, ticks.volumes)
    out = deduplicate(ticks)
    assert out.timestamps.tobytes() == ticks.timestamps[keep].tobytes()
    assert out.prices.tobytes() == ticks.prices[keep].tobytes()
    assert out.volumes.tobytes() == ticks.volumes[keep].tobytes()
    again = deduplicate(out)
    assert again.prices.tobytes() == out.prices.tobytes()
    assert len(again) == len(out)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_dedup_tie_heavy_series_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    t = np.sort(rng.integers(0, 300, n)).astype(np.int64)
    p = rng.choice([1.0, 2.0, 3.0, np.nan], n)
    v = rng.choice([0.5, 1.5, -0.0, 0.0], n)
    out = dedup_matches_oracle(TickSeries(t, p, v))
    assert len(out) < n


def test_dedup_non_adjacent_duplicates_within_one_second():
    ticks = TickSeries(np.array([5, 10, 10, 10, 11], dtype=np.int64),
                       np.array([1.0, 1.0, 2.0, 1.0, 1.0]),
                       np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
    out = dedup_matches_oracle(ticks)
    assert list(out.timestamps) == [5, 10, 10, 11]
    assert list(out.prices) == [1.0, 1.0, 2.0, 1.0]


def test_dedup_keeps_nan_rows():
    ticks = TickSeries(np.array([10, 10, 10], dtype=np.int64),
                       np.array([np.nan, np.nan, 1.0]), np.ones(3))
    assert len(dedup_matches_oracle(ticks)) == 3


def test_dedup_tie_free_input_is_returned_as_is():
    ticks = TickSeries(np.arange(100, dtype=np.int64), np.ones(100),
                       np.ones(100))
    assert deduplicate(ticks) is ticks
    dedup_matches_oracle(ticks)


def test_dedup_unsorted_input_matches_oracle():
    rng = np.random.default_rng(1)
    t = rng.integers(0, 50, 500).astype(np.int64)
    ticks = TickSeries(t, rng.choice([1.0, 2.0], 500), np.ones(500))
    dedup_matches_oracle(ticks)


@pytest.mark.parametrize("strictness", ["lenient", "strict"])
def test_loadtxt_rejects_go_per_line_with_their_block_only(monkeypatch,
                                                           strictness):
    # "10,1e,1" passes the classifier but not np.loadtxt: only its block
    # of _RETRY_LINES lines, not the rest of its chunk, goes per line
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 1 << 15)
    n = 10_000
    lines = [f"{1_420_000_000 + t},{1.5 + t % 7},0.25" for t in range(n)]
    for pos in (1_000, 7_000):
        lines[pos] = "10,1e,1"
    data = ("\n".join(lines) + "\n").encode("ascii")
    assert len(data) > 4 * ingest.CHUNK_BYTES
    want = outcome(oracle_parse_tick_csv, lambda: io.BytesIO(data), strictness)
    calls = count_per_line_calls(monkeypatch)
    assert outcome(library, lambda: io.BytesIO(data), strictness) == want
    bad = [1_001, 7_001] if strictness == "lenient" else [1_001]
    assert set(bad) <= set(calls)
    assert len(calls) <= len(bad) * ingest._RETRY_LINES
    assert all(min(abs(c - b) for b in bad) < ingest._RETRY_LINES
               for c in calls)
    if strictness == "strict":
        assert calls[-1] == 1_001


def test_dense_loadtxt_rejects_match_oracle(monkeypatch):
    # every block of a chunk is rejected
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 1 << 12)
    lines = [f"{t},{1.5 + t % 7},0.25" if t % 50 else "10,1e,1"
             for t in range(3_000)]
    assert_matches_oracle(("\n".join(lines) + "\n").encode("ascii"))
