"""The vectorized tick parser and dedup against line-at-a-time oracles."""

import gzip
import io
import threading

import numpy as np
import pytest
from oracles import oracle_deduplicate, oracle_parse_tick_csv

from retvol import ingest
from retvol.errors import EmptyInput, RetvolError, UnreadableInput
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
    # a declined line among fast ones, with lines straddling 32-byte reads
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


def no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt called")


@pytest.mark.parametrize("chunk", [ingest.CHUNK_BYTES, 4096])
def test_fast_path_takes_every_well_formed_line(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", chunk)
    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
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

    # lines the reader declines take the per-line path, signs and
    # exponents among them; a zero price is caught vectorized
    slow_bad = ["abc", "10,1.0", "", "10,nan,1", " 10,1,x", "10,1,1,1",
                "x,1,1", "10,,1", "10,1,", ",1,1", "1e5,1,1", "+1.5,1,1",
                "99999999999999999999,1,1", "10,-1.0,1", "10,1.0,-2",
                "10,1e999,1"]
    fast_bad = ["10,0,1", "10,0.0,1", "10,.0,1"]
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


def test_dense_loadtxt_rejects_match_oracle(monkeypatch):
    # every 50th line is declined by the fast reader, in every chunk
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 1 << 12)
    lines = [f"{t},{1.5 + t % 7},0.25" if t % 50 else "10,1e,1"
             for t in range(3_000)]
    assert_matches_oracle(("\n".join(lines) + "\n").encode("ascii"))


# Exactness of the vectorized decimal reader: every value must have the
# bytes float() gives it, whether the reader or the per-line path read it.

def decimal(m, f, lead=0):
    """Positional decimal m / 10**f with `lead` extra leading zeros."""
    digits = "0" * lead + str(m).rjust(f, "0")
    return f"{digits[:len(digits) - f]}.{digits[len(digits) - f:]}" if f \
        else digits


def assert_fields_match_oracle(prices, volumes, monkeypatch, max_slow):
    """Parse the values as one file and compare with the oracle; at most
    `max_slow` lines may take the per-line path."""
    lines = [f"{1_420_000_000 + i},{p},{v}\n"
             for i, (p, v) in enumerate(zip(prices, volumes))]
    calls = count_per_line_calls(monkeypatch)
    assert_matches_oracle("".join(lines).encode("ascii"))
    assert len(calls) <= 2 * max_slow    # once per strictness


def test_random_decimals_match_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    fields = []
    for _ in range(2 * 60_000):
        sig = int(rng.integers(1, 19))
        m = int(rng.integers(10 ** (sig - 1), 10 ** sig))
        f = int(rng.integers(0, 23))
        lead = min(int(rng.integers(0, 4)), 23 - max(sig, f))
        s = decimal(m, f, lead)
        if f == 0 and rng.random() < 0.5:
            s += "."
        fields.append(s)
    # all within the fast limits: at most 18 digits, 22 decimals, 24 bytes
    assert max(map(len, fields)) <= 24
    # exact ties such as 33549414260098418.0 go per line
    assert_fields_match_oracle(fields[::2], fields[1::2], monkeypatch,
                               max_slow=120)


def test_near_halfway_decimals_match_oracle(monkeypatch):
    from decimal import Decimal, localcontext
    rng = np.random.default_rng(12)
    fields = []
    with localcontext() as ctx:
        ctx.prec = 80
        for x in 10.0 ** rng.uniform(-4, 15, 17_000):
            mid = (Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2
            for digits in (17, 18):
                unit = Decimal(1).scaleb(mid.adjusted() - digits + 1)
                r = mid.quantize(unit)
                fields += [format(r + k * unit, "f") for k in (-1, 0, 1)]
    assert len(fields) >= 100_000
    half = len(fields) // 2
    assert_fields_match_oracle(fields[:half], fields[half:2 * half],
                               monkeypatch, max_slow=100)


def test_ties_and_powers_of_two_match_oracle(monkeypatch):
    from decimal import Decimal
    rng = np.random.default_rng(13)
    # exact ties: midpoints of adjacent doubles from 2**51 to 2**57
    ties = ["9007199254740993", "18014398509481986.0", "0018014398509481986.0"]
    for x in rng.uniform(2.0**51, 2.0**57, 3_000):
        mid = (Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2
        s = format(mid, "f")
        ties.append(s if "." in s or mid > 10**17 else s + ".0")
    # powers of two times 10**-f and integers near them
    near = []
    for f in range(0, 23):
        for e in range(-f, 64):
            m0 = 2 ** (e + f) * 5 ** f
            if 2**52 <= m0 < 10**18:
                span = max(m0 >> 50, 1)
                near += [decimal(m0 + d, f) for d in range(-20, 21)]
                near += [decimal(m0 + int(d), f)
                         for d in rng.integers(-span, span + 1, 20)]
    fields = ties + near
    assert_fields_match_oracle(fields, fields[::-1], monkeypatch,
                               max_slow=len(fields))


@pytest.mark.parametrize("price", ["0", "0.0", ".0", "0000.000", "0."])
def test_zero_price_matches_oracle(monkeypatch, price):
    calls = count_per_line_calls(monkeypatch)
    assert_matches_oracle(f"10,1.5,1\n20,{price},1\n30,2.5,0\n".encode())
    assert calls == []


def test_long_timestamps_match_oracle():
    stamps = ["999999999999999999", "000000000000000001",
              "123456789012345678", "9223372036854775807",
              "9223372036854775808", "1000000000000000000",
              "0999999999999999999"]
    assert_matches_oracle("".join(f"{t},1.5,1\n" for t in stamps).encode())


def test_crlf_text_stream_takes_fast_path(monkeypatch):
    # text streams end lines at \r\n too, also where a read splits one
    text = "".join(f"{1_420_000_000 + t},{1.5 + t % 7},0.25\r\n"
                   for t in range(2_000))
    calls = count_per_line_calls(monkeypatch)
    for chunk in (ingest.CHUNK_BYTES, 4096, 7):
        monkeypatch.setattr(ingest, "CHUNK_BYTES", chunk)
        assert_matches_oracle(text)
    assert calls == []


# The read-ahead thread: one reader runs ahead of the parse, which stays
# on the calling thread in chunk order.

def dirty_lines(n, bad_at):
    rng = np.random.default_rng(5)
    lines = [f"{1_420_000_000 + t},{x!r},{t % 9 * 0.125}"
             for t, x in enumerate(np.exp(rng.normal(5, 1, n)).tolist())]
    for i, bad in bad_at.items():
        lines[i] = bad
    return ("\n".join(lines) + "\n").encode("ascii")


def test_read_ahead_gzip_file_matches_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 4096)
    bad_at = {3: "x,1,1", 700: "10,1e,1", 701: "10,0,1", 2_999: "10,1"}
    data = dirty_lines(3_000, bad_at)
    assert len(data) > 20 * 4096
    path = tmp_path / "ticks.csv.gz"
    path.write_bytes(gzip.compress(data, mtime=0))
    callers = []
    parse_line = ingest._parse_line

    def on_caller(line, line_no):
        callers.append((line_no, threading.current_thread()))
        return parse_line(line, line_no)

    monkeypatch.setattr(ingest, "_parse_line", on_caller)
    got = read_tick_file(path)
    t, p, v, skipped = oracle_parse_tick_csv(io.BytesIO(data), "lenient")
    assert got.timestamps.tobytes() == t.tobytes()
    assert got.prices.tobytes() == p.tobytes()
    assert got.volumes.tobytes() == v.tobytes()
    assert got.n_skipped == skipped == len(bad_at)
    # the zero price is caught vectorized; the others per line, in order
    assert callers == [(i + 1, threading.main_thread())
                       for i in (3, 700, 2_999)]


def test_read_ahead_strict_error_is_the_first_bad_chunks(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 4096)
    data = dirty_lines(3_000, {})
    line_len = len(data) // 3_000
    # one bad line in chunk 1 and one in chunk 3 (chunks count from 0)
    first, later = 4096 * 3 // 2 // line_len, 4096 * 7 // 2 // line_len
    data = dirty_lines(3_000, {first: "10,-1.0,1", later: "x,1,1"})
    sizes = [c.count(b"\n")
             for c in ingest._line_chunks(io.BytesIO(data), False)]
    chunk_of = np.repeat(np.arange(len(sizes)), sizes)
    assert (chunk_of[first], chunk_of[later]) == (1, 3)
    assert_matches_oracle(data)
    path = tmp_path / "ticks.csv.gz"
    path.write_bytes(gzip.compress(data, mtime=0))
    with pytest.raises(ingest.NonPositivePrice) as exc:
        read_tick_file(path, strictness="strict")
    assert exc.value.line_no == first + 1


def test_read_ahead_truncated_gzip_is_unreadable(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 4096)
    data = gzip.compress(dirty_lines(20_000, {}), mtime=0)
    assert len(data) > 200_000
    path = tmp_path / "truncated.csv.gz"
    path.write_bytes(data[:100_000])
    with pytest.raises(UnreadableInput) as exc:
        read_tick_file(path)
    assert isinstance(exc.value.__cause__, EOFError)


def test_read_ahead_reraises_the_reader_exception():
    error = OSError("disk gone")

    def chunks():
        yield b"10,1.0,1\n"
        raise error

    ahead = ingest._read_ahead(chunks())
    assert next(ahead) == b"10,1.0,1\n"
    with pytest.raises(OSError) as exc:
        next(ahead)
    assert exc.value is error


@pytest.mark.parametrize("data,strictness,error", [
    (b"10,1.0,1\n" * 5_000, "strict", None),
    (b"10,1.0,1\n" * 2_000 + b"x\n" + b"10,1.0,1\n" * 2_000, "strict",
     ingest.MalformedLine),
    (b"x\n" * 5_000, "lenient", EmptyInput),
], ids=["clean", "strict_error", "empty"])
def test_no_reader_thread_outlives_the_parse(monkeypatch, data, strictness,
                                             error):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
    before = threading.active_count()
    if error is None:
        parse_tick_csv(io.BytesIO(data), strictness)
    else:
        # `info` keeps the traceback, and with it the parse's frame and
        # generator, alive: the thread must be joined without their help
        with pytest.raises(error) as info:
            parse_tick_csv(io.BytesIO(data), strictness)
        assert info.tb is not None
    assert threading.active_count() == before


def test_closing_the_read_ahead_early_joins_its_thread():
    before = threading.active_count()
    ahead = ingest._read_ahead(iter(range(100)))
    assert next(ahead) == 0
    ahead.close()
    assert threading.active_count() == before
