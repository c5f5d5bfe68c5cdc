"""Tick-data ingestion: headerless `unixtime,price,amount` CSV streams.

The parser reads the stream in chunks of CHUNK_BYTES and never holds
the whole text. Each chunk's lines are classified with numpy: a line
with exactly two commas, no byte outside `0-9 . e E + -`, three
non-empty fields and a timestamp of at most 18 plain digits is parsed
together with the chunk's other such lines by one `np.loadtxt` call,
and its values are checked vectorized. Every other line goes through
`_parse_line`, which states the rules. If `np.loadtxt` rejects a
chunk (as it does `10,1e,1`), its lines are retried in blocks of
_RETRY_LINES, and the lines of a rejected block go through
`_parse_line` too. Either path
gives a line the same record, skip or strict-mode error. Files and
byte streams are read as ASCII (a non-ASCII byte becomes U+FFFD) with
universal newlines; text streams are split on "\n" only. Records come
out as numpy arrays sorted by timestamp (stable, so trades that share a
timestamp keep file order).

Duplicates can only share a timestamp, so `deduplicate` compares only
the rows in runs of equal timestamps of a sorted series.
"""

import gzip
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, MalformedLine, NonPositivePrice, RetvolError

STRICT = "strict"
LENIENT = "lenient"

CHUNK_BYTES = 1 << 22
# rows converted by one `tolist`, which bounds the Python objects held
_SERIALIZE_ROWS = 1 << 16

_RECORD = np.dtype([("t", np.int64), ("p", np.float64), ("v", np.float64)])
_INT64 = np.iinfo(np.int64)
# every timestamp of at most 18 digits fits an int64
_FAST_DIGITS = 18
# lines per np.loadtxt retry of a rejected chunk: small enough that few
# good lines go per line, large enough that dense rejects cost no more
# than parsing the whole chunk per line
_RETRY_LINES = 128
_NEWLINE, _COMMA = ord("\n"), ord(",")


@dataclass
class TickSeries:
    """Column-oriented trade series, sorted by timestamp.

    `n_skipped` counts lines dropped by a lenient parse; equality
    compares only the data columns, not the metadata.
    """

    timestamps: np.ndarray
    prices: np.ndarray
    volumes: np.ndarray
    source_label: str = ""
    n_skipped: int = 0

    def __len__(self):
        return len(self.timestamps)

    def __eq__(self, other):
        if not isinstance(other, TickSeries):
            return NotImplemented
        return (np.array_equal(self.timestamps, other.timestamps)
                and np.array_equal(self.prices, other.prices)
                and np.array_equal(self.volumes, other.volumes))


def _parse_line(line, line_no):
    """Parse one line of text into (t, p, v) or raise its strict-mode error."""
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != 3:
        raise MalformedLine(line_no, f"expected 3 fields, got {len(parts)}")
    try:
        t = int(parts[0])
        p = float(parts[1])
        v = float(parts[2])
    except ValueError:
        raise MalformedLine(line_no, "non-numeric field") from None
    if not (math.isfinite(p) and math.isfinite(v)) or v < 0:
        raise MalformedLine(line_no, "non-finite value or negative volume")
    if p <= 0:
        raise NonPositivePrice(line_no)
    if not _INT64.min <= t <= _INT64.max:
        raise MalformedLine(line_no, "timestamp outside the int64 range")
    return t, p, v


def _line_chunks(stream, text):
    """Yield the stream as bytes in pieces of whole lines, each ended by \\n.

    Text streams are encoded as UTF-8 and keep their "\\r"; in byte
    streams "\\r\\n" and a lone "\\r" also end a line.
    """
    tail = b""
    while True:
        block = stream.read(CHUNK_BYTES)
        if text:
            block = block.encode("utf-8", "surrogatepass")
        data = tail + block
        held = b""
        if not text:
            if block and data.endswith(b"\r"):
                # may be the first half of a \r\n that the next read completes
                data, held = data[:-1], b"\r"
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not block:
            if data:
                yield data if data.endswith(b"\n") else data + b"\n"
            return
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        tail = data[cut:] + held


def _fast_lines(a, starts, ends):
    """Mask of the lines that `np.loadtxt` parses as `_parse_line` would."""
    low = a - np.uint8(ord("+"))
    comma = a == _COMMA
    exp = (a | np.uint8(0x20)) == ord("e")
    allowed = ((low <= ord("9") - ord("+")) & (a != ord("/")) | exp
               | (a == _NEWLINE))
    other = np.flatnonzero(~allowed)
    # + - . e E: part of a float, never of a fast-path timestamp; -1 is a
    # sentinel so that every line has a last sign before its first comma
    signs = np.concatenate(([-1], np.flatnonzero((low <= ord(".") - ord("+"))
                                                 ^ comma | exp)))
    commas = np.flatnonzero(comma)

    # lines partition the chunk: counts up to a line end give per-line counts
    upto = np.searchsorted(commas, ends)
    first = np.concatenate(([0], upto[:-1]))
    fast = (upto - first == 2) & (np.diff(np.searchsorted(other, ends),
                                          prepend=0) == 0)
    idx = np.flatnonzero(fast)
    s, e = starts[idx], ends[idx]
    c1, c2 = commas[first[idx]], commas[first[idx] + 1]
    last_sign = signs[np.searchsorted(signs, c1) - 1]
    fast[idx] = ((c1 > s) & (c1 - s <= _FAST_DIGITS) & (c2 > c1 + 1)
                 & (e > c2 + 1) & (last_sign < s))
    return fast


def _load_records(text, offsets):
    """Parse the lines of `text`, line i spanning offsets[i:i+2].

    Returns the record arrays of the lines `np.loadtxt` accepts, in
    order, and the numbers of the lines it does not. If it rejects the
    whole text, each block of `_RETRY_LINES` lines is tried on its own,
    and every line of a rejected block is returned as rejected.
    """
    def load(lo, hi):
        return np.loadtxt(io.BytesIO(text[offsets[lo]:offsets[hi]]),
                          dtype=_RECORD, delimiter=",", comments=None, ndmin=1)

    n = len(offsets) - 1
    try:
        return [load(0, n)], []
    except ValueError:
        pass
    parts, rejected = [], []
    for lo in range(0, n, _RETRY_LINES):
        hi = min(lo + _RETRY_LINES, n)
        try:
            parts.append(load(lo, hi))
        except ValueError:
            rejected.extend(range(lo, hi))
    return parts, rejected


def _parse_chunk(chunk, codec, strict, line_no):
    """Parse a piece of whole lines whose first line is number `line_no`.

    Returns the (t, p, v) arrays of the valid records in line order and
    the number of lines.
    """
    a = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(a == _NEWLINE)
    starts = np.concatenate(([0], ends[:-1] + 1))
    n = len(ends)
    fast = _fast_lines(a, starts, ends)
    slow = np.flatnonzero(~fast)

    rec = np.empty(0, dtype=_RECORD)
    if len(slow) < n:
        view = memoryview(chunk)
        pieces, prev = [], 0
        for i in slow.tolist():
            pieces.append(view[prev:starts[i]])
            prev = ends[i] + 1
        pieces.append(view[prev:])
        idx = np.flatnonzero(fast)
        offsets = np.concatenate(([0], np.cumsum(ends[idx] - starts[idx] + 1)))
        parts, rejected = _load_records(b"".join(pieces), offsets)
        rec = np.concatenate([rec, *parts])
        if rejected:
            # e.g. "10,1e,1": its block of lines goes per line
            fast[idx[rejected]] = False
            slow = np.flatnonzero(~fast)

    t = np.empty(n, dtype=np.int64)
    p = np.empty(n, dtype=np.float64)
    v = np.empty(n, dtype=np.float64)
    idx = np.flatnonzero(fast)
    t[idx], p[idx], v[idx] = rec["t"], rec["p"], rec["v"]
    bad_value = (~(np.isfinite(rec["p"]) & np.isfinite(rec["v"]))
                 | (rec["v"] < 0))
    bad = bad_value | (rec["p"] <= 0)
    keep = np.zeros(n, dtype=bool)
    keep[idx] = ~bad

    # strict mode raises for the first bad line, fast path or not
    first_bad = n
    if strict and bad.any():
        k = int(np.argmax(bad))
        first_bad = int(idx[k])
    for i in slow.tolist():
        if i > first_bad:
            break
        line = chunk[starts[i]:ends[i]].decode(*codec)
        try:
            t[i], p[i], v[i] = _parse_line(line, line_no + i)
        except RetvolError:
            if strict:
                raise
            continue
        keep[i] = True
    if first_bad < n:
        if bad_value[k]:
            raise MalformedLine(line_no + first_bad,
                                "non-finite value or negative volume")
        raise NonPositivePrice(line_no + first_bad)
    return (t[keep], p[keep], v[keep]), n


def parse_tick_csv(stream, strictness=STRICT, source_label=""):
    """Parse a `unixtime,price,amount` CSV stream into a TickSeries.

    Parameters
    ----------
    stream : file-like
        Byte or text stream of headerless CSV lines. Byte streams end
        lines at LF, CRLF or CR; text streams at LF.
    strictness : {"strict", "lenient"}
        Strict raises on the first bad line; lenient counts and skips.
    source_label : str
        Free-form provenance tag stored on the result.

    Returns
    -------
    TickSeries
        Records sorted by timestamp; ties keep file order.

    Raises
    ------
    MalformedLine
        Strict mode, a line without exactly 3 numeric fields, or with
        a timestamp outside the int64 range.
    NonPositivePrice
        Strict mode, a parsable line whose price is <= 0.
    EmptyInput
        No valid records in the stream.
    """
    if strictness not in (STRICT, LENIENT):
        raise ValueError(f"unknown strictness {strictness!r}")
    strict = strictness == STRICT
    text = isinstance(stream.read(0), str)
    codec = ("utf-8", "surrogatepass") if text else ("ascii", "replace")

    cols, n_lines = [], 0
    for chunk in _line_chunks(stream, text):
        records, n = _parse_chunk(chunk, codec, strict, n_lines + 1)
        cols.append(records)
        n_lines += n
    if not any(len(c[0]) for c in cols):
        raise EmptyInput("no valid tick records in input")

    t_arr, p_arr, v_arr = (np.concatenate(c) for c in zip(*cols))
    order = np.argsort(t_arr, kind="stable")
    return TickSeries(t_arr[order], p_arr[order], v_arr[order],
                      source_label=source_label,
                      n_skipped=n_lines - len(t_arr))


def serialize_tick_csv(ticks, stream):
    """Write a TickSeries as `unixtime,price,amount` lines.

    Floats use shortest round-trip formatting so that
    parse(serialize(ticks)) reproduces the series exactly.
    """
    # one write per row: joining each block first was no faster and left
    # ~35 MB more heap behind after serializing 10^6 ticks three times
    write = stream.write
    for lo in range(0, len(ticks), _SERIALIZE_ROWS):
        hi = lo + _SERIALIZE_ROWS
        for t, p, v in zip(ticks.timestamps[lo:hi].tolist(),
                           ticks.prices[lo:hi].tolist(),
                           ticks.volumes[lo:hi].tolist()):
            write(f"{t},{p!r},{v!r}\n")


def deduplicate(ticks):
    """Collapse exact duplicate records (same t, p, v) to one.

    The first occurrence survives; distinct trades at the same
    timestamp are all retained in their original order. Only rows in a
    run of equal timestamps can be duplicates, so on sorted input only
    those rows are compared.
    """
    t = ticks.timestamps
    step = np.diff(t)
    if (step < 0).any():
        candidates = np.arange(len(t))
    else:
        tie = step == 0
        if not tie.any():
            return ticks
        in_run = np.zeros(len(t), dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        candidates = np.flatnonzero(in_run)
    rows = np.empty(len(candidates), dtype=_RECORD)
    rows["t"] = t[candidates]
    rows["p"] = ticks.prices[candidates]
    rows["v"] = ticks.volumes[candidates]
    _, first_idx = np.unique(rows, return_index=True)
    dropped = np.ones(len(candidates), dtype=bool)
    dropped[first_idx] = False
    keep = np.ones(len(t), dtype=bool)
    keep[candidates[dropped]] = False
    return TickSeries(t[keep], ticks.prices[keep], ticks.volumes[keep],
                      source_label=ticks.source_label,
                      n_skipped=ticks.n_skipped)


def read_tick_file(path, strictness=LENIENT):
    """Parse a tick CSV file; transparently decompresses `*.gz`."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        return parse_tick_csv(fh, strictness=strictness, source_label=str(path))
