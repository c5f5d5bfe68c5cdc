"""The vectorized tick parser and dedup against line-at-a-time oracles."""

import gzip
import io
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import oracle_deduplicate, oracle_parse_tick_csv

from retvol import ingest
from retvol.errors import EmptyInput, RetvolError, UnreadableInput
from retvol.ingest import (TickSeries, deduplicate, parse_tick_csv,
                           read_tick_file, serialize_tick_csv)
from retvol.synth import GarchSpec, gen_asym_garch, ticks_from_returns


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
    # exponents among them, unless their commas, letters, a dot before
    # the first comma or a "-" after it rule them out; a zero price is
    # caught vectorized
    per_line = ["10,,1", "10,1,", ",1,1", "1e5,1,1",
                "99999999999999999999,1,1", "10,1.0,-2", "10,1e999,1"]
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
    assert calls == [i + 1 for i, line in enumerate(lines)
                     if line in per_line]


def test_lines_that_look_bad_but_parse_go_per_line(monkeypatch):
    # a sign, a space, an exponent or a non-ASCII digit rules out no line
    looks_bad = ["10,1,-0.0", " 10,1.5,1", "10,1e-05,1", "10,+1.5,1"]
    text = "".join(f"{line}\n20,2.5,1\n" for line in looks_bad)
    calls = count_per_line_calls(monkeypatch)
    assert_matches_oracle(text.encode("ascii"))
    assert calls == [1, 3, 5, 7] * 2    # once per strictness
    text += "١٠,1.0,1\n"
    calls.clear()
    assert_matches_oracle(text)
    assert calls == [1, 3, 5, 7, 9] * 2
    ts = parse_tick_csv(io.StringIO(text), "lenient")
    assert len(ts) == 9 and ts.n_skipped == 0


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


def test_dedup_run_boundaries_match_oracle():
    # runs of two are decided by comparing p and v, longer runs by a sort
    nan = np.nan
    rows = [(1, 1.0, 1.0), (1, 1.0, 1.0),                   # pair at start
            (2, 2.0, 1.0), (2, 2.0, 1.0),                   # pair, then
            (3, 1.0, 1.0), (3, 2.0, 1.0), (3, 1.0, 1.0),    # A-B-A triple
            (4, 5.0, 1.0), (4, 5.0, 1.0),                   # pair between
            (5, 3.0, 2.0), (5, 3.0, 2.0), (5, 3.0, 2.0),    # two triples
            (6, 1.0, nan), (6, 1.0, nan),                   # NaN never equal
            (7, 1.0, 0.0), (7, 1.0, -0.0),                  # 0.0 == -0.0
            (8, 1.0, -0.0), (8, 1.0, 0.0),
            (9, 1.0, 2.0), (9, 4.0, 2.0),                   # equal volumes
            (10, nan, 1.0), (10, nan, 1.0),
            (11, 1.0, 1.0), (12, 1.0, 1.0),
            (13, 1.0, 1.0), (13, 1.0, 1.0)]                 # pair at end
    t, p, v = (np.array(col) for col in zip(*rows))
    out = dedup_matches_oracle(TickSeries(t.astype(np.int64), p, v))
    assert len(out) == len(rows) - 9
    assert np.signbit(out.volumes[out.timestamps >= 7][:2]).tolist() == [
        False, True]
    # a series of pairs only, and the rows above out of order
    rng = np.random.default_rng(2)
    n = 4000
    dedup_matches_oracle(TickSeries(
        np.repeat(np.arange(n // 2, dtype=np.int64), 2),
        rng.choice([1.0, 2.0, nan], n), rng.choice([0.5, 0.0, -0.0], n)))
    order = rng.permutation(len(rows))
    dedup_matches_oracle(TickSeries(t[order].astype(np.int64), p[order],
                                    v[order]))


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


def decimal_field(rng, width, fraction):
    """A `width`-byte nonzero decimal of at most 17 significant digits,
    with `fraction` digits after a dot (no dot when None)."""
    n = width - (fraction is not None)
    sig = min(n, 17)
    digits = "0" * (n - sig) + str(int(rng.integers(10**(sig - 1), 10**sig)))
    if fraction is None:
        return digits
    return f"{digits[:n - fraction]}.{digits[n - fraction:]}"


def test_window_widths_match_oracle(monkeypatch):
    # windows are as wide as the widest field of the chunk; one line per
    # chunk at CHUNK_BYTES 1 puts every width below in a chunk of its own,
    # with dots on both sides of each 8-byte word edge of the window
    rng = np.random.default_rng(14)
    specs = [(w, f) for w in (1, 7, 8, 9, 16, 17, 24)
             for f in (None, 7, 8, 15, 16) if f is None or f < w]
    stamps = [decimal_field(rng, w, None) for w in (1, 8, 9, 16, 17, 18)]
    lines = [f"{stamps[i % 6]},{decimal_field(rng, *p)},"
             f"{decimal_field(rng, *v)}\n"
             for i, (p, v) in enumerate((p, v) for p in specs for v in specs)]
    calls = count_per_line_calls(monkeypatch)
    for chunk in (1, 64, 4096):
        monkeypatch.setattr(ingest, "CHUNK_BYTES", chunk)
        assert_matches_oracle("".join(lines).encode("ascii"))
    # one 24-byte field alone in a chunk of 8-byte fields
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 1 << 16)
    for column in (1, 2):
        fields = [[f"{1_420_000_000 + i}", decimal_field(rng, 8, 3),
                   decimal_field(rng, 8, 6)] for i in range(1_000)]
        fields[517][column] = decimal_field(rng, 24, 16)
        assert_matches_oracle("".join(",".join(f) + "\n"
                                      for f in fields).encode("ascii"))
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


# Reads and finishes stay on the calling thread, in chunk order, while a
# pool of _SCAN_THREADS threads runs the numpy halves of the chunks read.

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
    # the zero price is caught vectorized, and so are "x,1,1" (a letter)
    # and "10,1" (one comma); only the exponent goes per line
    assert callers == [(701, threading.main_thread())]


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


def test_a_failed_read_is_raised_as_the_same_object(monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
    error = OSError("disk gone")
    stream = io.BytesIO(b"10,1.0,1\n" * 100)
    read = stream.read

    def fail_after_300_bytes(size=-1):
        if stream.tell() >= 300:
            raise error
        return read(size)

    stream.read = fail_after_300_bytes
    with pytest.raises(OSError) as exc:
        parse_tick_csv(stream, "strict")
    assert exc.value is error


def test_the_parse_runs_at_most_scan_threads_more_threads(monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
    before = threading.active_count()
    extra = []
    scan = ingest._scan_chunk

    def counted(chunk, strict):
        extra.append(threading.active_count() - before)
        return scan(chunk, strict)

    monkeypatch.setattr(ingest, "_scan_chunk", counted)
    ts = parse_tick_csv(io.BytesIO(b"10,1.0,1\n" * 500), "strict")
    assert len(ts) == 500 and len(extra) > ingest._SCAN_THREADS
    assert max(extra) <= ingest._SCAN_THREADS


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


def test_strict_error_of_an_earlier_chunk_wins_when_a_later_scan_ends_first(
        monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 4096)
    line_len = len(dirty_lines(3_000, {})) // 3_000
    # a per-line error in chunk 1 and a zero price in chunk 2
    first, later = 4096 * 3 // 2 // line_len, 4096 * 5 // 2 // line_len
    data = dirty_lines(3_000, {first: "x,1,1", later: "10,0,1"})
    sizes = [c.count(b"\n")
             for c in ingest._line_chunks(io.BytesIO(data), False)]
    chunk_of = np.repeat(np.arange(len(sizes)), sizes)
    assert (chunk_of[first], chunk_of[later]) == (1, 2)
    scan = ingest._scan_chunk
    later_done = threading.Event()
    finished = []

    def later_first(chunk, strict):
        # chunk 1's numpy half waits until chunk 2's has returned
        if b"\nx,1,1\n" in chunk:
            assert later_done.wait(timeout=30)
        out = scan(chunk, strict)
        finished.append(chunk)
        if b"\n10,0,1\n" in chunk:
            later_done.set()
        return out

    monkeypatch.setattr(ingest, "_scan_chunk", later_first)
    with pytest.raises(ingest.MalformedLine) as exc:
        parse_tick_csv(io.BytesIO(data), "strict")
    assert exc.value.line_no == first + 1
    marked = [c for c in finished if b"\nx,1,1\n" in c or b"\n10,0,1\n" in c]
    assert [b"\n10,0,1\n" in c for c in marked] == [True, False]


class FailingStream(io.BytesIO):
    """A byte stream whose reads fail once `limit` bytes have been read."""

    def __init__(self, data, limit):
        super().__init__(data)
        self.limit = limit
        self.failed = threading.Event()

    def read(self, size=-1):
        if self.tell() >= self.limit:
            self.failed.set()
            raise OSError("disk gone")
        return super().read(size)


def test_read_error_joins_every_thread(monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
    before = threading.active_count()
    with pytest.raises(OSError):
        parse_tick_csv(FailingStream(b"10,1.0,1\n" * 500, 2_000), "strict")
    assert threading.active_count() == before


def test_strict_error_wins_over_the_next_read_error(monkeypatch):
    # the read right after the bad line's chunk fails before that chunk
    # is finished; the strict error is raised, as in a serial read
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
    lines = [b"10,1.0,1"] * 500
    lines[20] = b"x,1,1"
    data = b"\n".join(lines) + b"\n"
    bad_end = data.index(b"x,1,1\n") + 6
    stream = FailingStream(data, ((bad_end - 1) // 64 + 1) * 64)
    finish = ingest._finish_chunk

    def after_the_failed_read(chunk, *args):
        if b"x,1,1" in chunk:
            assert stream.failed.wait(10)
        return finish(chunk, *args)

    monkeypatch.setattr(ingest, "_finish_chunk", after_the_failed_read)
    before = threading.active_count()
    with pytest.raises(ingest.MalformedLine) as exc:
        parse_tick_csv(stream, "strict")
    assert exc.value.line_no == 21
    assert stream.failed.is_set()
    assert threading.active_count() == before


def sample_lines(n, seed):
    rng = np.random.default_rng(seed)
    prices = np.round(np.exp(rng.normal(5, 1, n)), 2)
    return [f"{1_420_000_000 + i // 2},{p!r},{i % 9 * 0.125}\n"
            for i, p in enumerate(prices.tolist())]


@pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
def test_multi_chunk_parse_matches_oracle(monkeypatch, shuffle):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 4096)
    lines = sample_lines(5_000, 8)
    if shuffle:
        lines = [lines[i] for i in np.random.default_rng(9).permutation(5_000)]
    assert_matches_oracle("".join(lines).encode("ascii"))


@pytest.mark.parametrize("shuffle,bound_mib", [(False, 7.75), (True, 9.25)],
                         ids=["sorted", "shuffled"])
def test_parse_memory_stays_bounded(monkeypatch, shuffle, bound_mib):
    # the columns are joined one at a time and sorted only when out of
    # order: the traced peak measured 6.45 MiB sorted and 7.69 MiB
    # shuffled, and each bound allows 20% more; joining all columns,
    # then sorting and gathering, needs 15.3 MiB
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 1 << 16)
    n = 200_000
    lines = sample_lines(n, 3)
    if shuffle:
        lines = [lines[i] for i in np.random.default_rng(4).permutation(n)]
    stream = io.BytesIO("".join(lines).encode("ascii"))
    tracemalloc.start()
    try:
        ts = parse_tick_csv(stream, "strict")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ts) == n
    assert peak < bound_mib * 2**20


def garch_chunk(n, seed):
    """About 37 n bytes of serialized GARCH ticks with 2% bad lines."""
    r = gen_asym_garch(GarchSpec(0.05, 0.05, 0.85, 0.10, n - 1, seed), 1)
    r.values *= 5e-4
    ticks = ticks_from_returns(r)
    rng = np.random.default_rng(seed)
    ticks.volumes = np.round(rng.exponential(1.0, n), 6)
    buf = io.StringIO()
    serialize_tick_csv(ticks, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    bad = ["x,1,1\n", "10,-1.0,1\n", "10,1e999,1\n", "10,1\n"]
    for i in rng.choice(n, n // 50, replace=False):
        lines[i] = bad[i % 4]
    return "".join(lines).encode("ascii")


def test_scan_temporaries_stay_bounded():
    # one 2 MB chunk's scan peaked at 10.2 MiB traced, and the bound
    # allows 20% more; the scan with 24-byte windows for every field,
    # (3, m, 3) window masks and stacked field arrays peaked at 18.8 MiB
    chunk = garch_chunk(57_000, 5)
    assert 2 * 2**20 < len(chunk) < 2.1 * 2**20
    tracemalloc.start()
    try:
        scan = ingest._scan_chunk(chunk, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan[1].sum() > 0.97 * 57_000
    assert peak < 12.3 * 2**20
