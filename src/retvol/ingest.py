"""Tick-data ingestion: headerless `unixtime,price,amount` CSV streams.

The parser reads the stream in chunks of CHUNK_BYTES and never holds
the whole text. The calling thread reads (and gunzips) each chunk and
submits its numpy half to a pool of _SCAN_THREADS threads. With that
many chunks in flight, it parses the oldest one's remaining lines per
line, so chunks are finished in order and records, line numbers and
errors are those of a serial read. A vectorized reader parses a
chunk's plain decimal lines: their non-digit bytes are `,,`, `,.,`,
`,,.` or `,.,.` before the newline, the timestamp has 1 to 18 digits,
and the price and volume have at most 24 bytes, 22 fraction digits and
18 significant digits. That covers every positional `repr` of a double
from 1e-4 to 1e16 and fixed-decimal exchange fields. Each value is the
double `float()` gives (`_round_exact` holds the argument); a rounding
it cannot prove, such as an exact tie, is declined. A fast line's only
possible fault is a zero price, checked vectorized. In lenient mode,
`_rejected` drops, also vectorized, the lines that fail whatever their
digits: the wrong comma count, a letter other than e/E, a dot in the
timestamp or a price starting with "-". Every other line (a sign, an
exponent such as `1e-05`, spaces, more digits, a lone `\r` in a text
stream, a non-ASCII byte) goes through `_parse_line`, which states the
rules: each path gives a line the same record, skip or strict-mode
error.

Files and byte streams are read as ASCII (a non-ASCII byte becomes
U+FFFD) with universal newlines; text streams end lines at "\n" and
"\r\n" only. Records come out as numpy arrays sorted by timestamp
(stable, so trades that share a timestamp keep file order).

Duplicates can only share a timestamp, so `deduplicate` compares only
the rows in runs of equal timestamps of a sorted series.
"""

import gzip
import math
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigInvalid, EmptyInput, MalformedLine,
                     NonPositivePrice, RetvolError, UnreadableInput)

STRICT = "strict"
LENIENT = "lenient"

CHUNK_BYTES = 1 << 21
# numpy halves of chunks parsed at once (the caller finishes each in order)
_SCAN_THREADS = 2
# rows converted by one `tolist`, which bounds the Python objects held
_SERIALIZE_ROWS = 1 << 16

_RECORD = np.dtype([("t", np.int64), ("p", np.float64), ("v", np.float64)])
_INT64 = np.iinfo(np.int64)
_NEWLINE, _DOT, _COMMA, _MINUS = b"\n.,-"
# fast fields: a timestamp of at most 18 digits fits an int64; a price
# or volume is read as one 24-byte window with at most 22 fraction
# digits, as 10**22 is the largest power of ten exact in a double
_FAST_DIGITS, _WINDOW, _MAX_FRACTION = 18, 24, 22
# the non-digit bytes of a fast line through its newline, little-endian
_PATTERNS = [int.from_bytes(p, "little")
             for p in (b",,\n", b",.,\n", b",,.\n", b",.,.\n")]
_BYTE_MASKS = np.array([2**(8 * k) - 1 for k in range(9)], dtype=np.uint64)
# row z: a window's three words masked to the digits after byte z
_WINDOW_MASKS = np.array(
    [[(0x0F0F0F0F0F0F0F0F << 8 * min(max(z - 8 * j, 0), 8)) & (2**64 - 1)
      for j in range(3)] for z in range(_WINDOW + 1)], dtype=np.uint64)
# 10**k as uint64, capped at 10**19: field values are below 10**19
_POW10 = np.array([10**min(k, 19) for k in range(_WINDOW)], dtype=np.uint64)
_POW10F = 10.0 ** np.arange(_MAX_FRACTION + 1)


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

    "\\r\\n" ends a line; text streams are encoded as UTF-8 and keep a
    lone "\\r", which in byte streams also ends a line.
    """
    tail = b""
    while True:
        block = stream.read(CHUNK_BYTES)
        if text:
            block = block.encode("utf-8", "surrogatepass")
        data = tail + block
        held = b""
        if not text and block and data.endswith(b"\r"):
            # may be the first half of a \r\n that the next read completes
            data, held = data[:-1], b"\r"
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
            if not text:
                data = data.replace(b"\r", b"\n")
        if not block:
            if data:
                yield data if data.endswith(b"\n") else data + b"\n"
            return
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        tail = data[cut:] + held


def _split(x):
    """Veltkamp split of x into two halves of at most 26 significant bits."""
    c = (2.0**27 + 1) * x
    hi = c - (c - x)
    return hi, x - hi


_P10_HI, _P10_LO = _split(_POW10F)


def _fast_fields(a):
    """Line bounds of a chunk, and field bounds of its fast lines.

    Returns the start and newline of every line; then, for the m lines
    within the fast limits, their line numbers, field ends and lengths
    (3, m), and the fraction digits and dot counts of price and volume
    (2, m). The non-digit bytes place every comma, dot and newline.
    """
    nd = np.flatnonzero(a - np.uint8(ord("0")) > 9)
    b = np.concatenate((a[nd], np.zeros(8, dtype=np.uint8)))
    nl = np.flatnonzero(b == _NEWLINE)
    ends = nd[nl]
    starts = np.concatenate(([0], ends[:-1] + 1))
    first = np.concatenate(([0], nl[:-1] + 1))
    count = nl - first
    # a line's non-digit bytes through its newline as one word
    words = np.ndarray((len(b) - 7,), dtype="<u8", buffer=b, strides=(1,))
    key = words[first] & _BYTE_MASKS[np.minimum(count + 1, 8)]
    i = np.flatnonzero((key == _PATTERNS[0]) | (key == _PATTERNS[1])
                       | (key == _PATTERNS[2]) | (key == _PATTERNS[3]))
    k = first[i]
    dot_p = b[k + 1] == _DOT
    dot_v = count[i] - 2 - dot_p
    c1, c2, e = nd[k], nd[k + 1 + dot_p], ends[i]
    lt, lp, lv = c1 - starts[i], c2 - c1 - 1, e - c2 - 1
    fp = np.where(dot_p, c2 - nd[k + 1], 1) - 1
    fv = np.where(dot_v, e - nd[k + 2 + dot_p], 1) - 1
    ok = ((lt >= 1) & (lt <= _FAST_DIGITS) & (lp > dot_p) & (lp <= _WINDOW)
          & (lv > dot_v) & (lv <= _WINDOW) & (fp <= _MAX_FRACTION)
          & (fv <= _MAX_FRACTION))
    return (starts, ends, i[ok], np.stack((c1[ok], c2[ok], e[ok])),
            np.stack((lt[ok], lp[ok], lv[ok])), np.stack((fp[ok], fv[ok])),
            np.stack((dot_p[ok], dot_v[ok])))


def _field_digits(a, fend, flen):
    """The digits of each field as one integer, a dot read as a 0.

    A field is the right-aligned 24-byte window ending at it: three
    words whose bytes before the field are masked off, each turned into
    its 8-digit value by SWAR arithmetic (eight digits per uint64 in
    three multiply-shift-mask steps). Returns the values and those of
    the first words; a value is valid (below 10**19) when its first
    word is below 1000.
    """
    buf = np.zeros(len(a) + _WINDOW, dtype=np.uint8)
    # ",", "." and "\n" all become "0"
    np.maximum(a, ord("0"), out=buf[_WINDOW:])
    windows = np.ndarray((len(a) + 1,), dtype=f"V{_WINDOW}", buffer=buf,
                         strides=(1,))
    x = windows[fend].view("<u8").reshape(*fend.shape, 3)
    x &= np.take(_WINDOW_MASKS, _WINDOW - flen, axis=0)
    x *= np.uint64(10 * 256 + 1)
    x >>= np.uint64(8)
    x &= np.uint64(0x00FF00FF00FF00FF)
    x *= np.uint64(100 * 65536 + 1)
    x >>= np.uint64(16)
    x &= np.uint64(0x0000FFFF0000FFFF)
    x *= np.uint64(10_000 * 2**32 + 1)
    x >>= np.uint64(32)
    top = x[..., 0]
    value = (top * np.uint64(10**16) + x[..., 1] * np.uint64(10**8)
             + x[..., 2])
    return value, top


def _round_exact(m, f):
    """m / 10**f correctly rounded, and where that was proven (m < 10**18).

    m < 2**53 and 10**f (f <= 22) are exact doubles, so one division
    rounds correctly (Clinger), as does converting m when f = 0. Else
    q = fl(fl(m) / 10**f) is within 1.5 ulp of x = m / 10**f. The
    remainder m - q 10**f, formed exactly from fl(m), an exact int64
    rest and Dekker's TwoProduct, then rounded once, gives x - q in ulps
    to far better than 2**-40; q moves by the nearest whole number. Not
    proven: a distance within 2**-40 of a half (an exact tie, or too
    close to call), or a power of two as q or result.
    """
    fm = m.astype(np.float64)
    out = fm / _POW10F[f]
    exact = m < np.uint64(10**18)
    big = np.flatnonzero(exact & (m >= np.uint64(2**53)) & (f > 0))
    q, fb, hi = out[big], f[big], fm[big]
    lo = (m[big].astype(np.int64) - hi.astype(np.int64)).astype(np.float64)
    prod = q * _POW10F[fb]
    qh, ql = _split(q)
    ph, pl = _P10_HI[fb], _P10_LO[fb]
    err = ((qh * ph - prod) + qh * pl + ql * ph) + ql * pl
    ulp = np.spacing(q)
    # hi - prod is exact (Sterbenz) and small, so is adding lo
    off = ((hi - prod) + lo - err) / (ulp * _POW10F[fb])
    step = np.rint(off)
    out[big] = q + step * ulp
    mantissa = (1 << 52) - 1
    exact[big] = ((np.abs(off - step) < 0.5 - 2.0**-40)
                  & (q.view(np.int64) & mantissa != 0)
                  & (out[big].view(np.int64) & mantissa != 0))
    return out, exact


def _rejected(a, starts, ends):
    """Which of the lines a[starts:ends] `_parse_line` rejects whatever
    their digits.

    Such a line has not exactly two commas, an ASCII letter other than
    e/E, a "." before its first comma, or a "-" right after it. `int()`
    takes no letter and no dot; `float()` takes letters only in an
    exponent or in inf/infinity/nan, which are not finite; a price that
    starts with "-" is <= 0 or not finite.
    """
    size = ends - starts + 1    # each line through its newline
    seg = np.cumsum(size) - size
    c = a[np.arange(size.sum()) + np.repeat(starts - seg, size)]
    comma, at = c == _COMMA, np.arange(len(c))
    lower = c | np.uint8(0x20)
    letter = (lower - np.uint8(ord("a")) < 26) & (lower != ord("e"))
    # every line ends with its newline, so each reduction finds a byte
    stop = comma | (c == _NEWLINE)
    first_comma = np.minimum.reduceat(np.where(stop, at, len(c)), seg)
    first_mark = np.minimum.reduceat(np.where(stop | (c == _DOT), at, len(c)),
                                     seg)
    # a line without a comma is rejected anyway: clip its index
    after = c[np.minimum(first_comma + 1, len(c) - 1)]
    return ((np.add.reduceat(comma, seg, dtype=np.intp) != 2)
            | np.logical_or.reduceat(letter, seg) | (c[first_mark] == _DOT)
            | (after == _MINUS))


def _scan_chunk(chunk, strict):
    """The numpy half of a chunk's parse, which may run on any thread.

    Reads the fast lines and checks their prices. Returns the chunk's
    (t, p, v) columns, one row per line, with the fast lines filled in;
    which of them to keep; the (line, start, end) rows of the lines
    left for `_parse_line`; and the first fast line with a zero price
    in strict mode, else the line count. Lenient mode leaves out every
    line that `_rejected` names; strict mode leaves every line before
    that zero price to `_parse_line`.
    """
    a = np.frombuffer(chunk, dtype=np.uint8)
    starts, ends, lines, fend, flen, frac, dot = _fast_fields(a)
    value, top = _field_digits(a, fend, flen)
    # drop the dot's 0 digit, at 10**frac; no dot, no change
    high, low = np.divmod(value[1:], _POW10[frac + dot])
    m = high * _POW10[frac] + low
    p_v, exact = (x.reshape(2, -1)
                  for x in _round_exact(m.ravel(), frac.ravel()))
    fast = (exact & (top[1:] < 1000)).all(axis=0)
    idx = lines[fast]

    n = len(ends)
    t, p, v = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    t[idx], p[idx], v[idx] = value[0, fast], p_v[0, fast], p_v[1, fast]
    keep = np.zeros(n, dtype=bool)
    keep[idx] = True
    slow = np.flatnonzero(~keep)
    # a fast line has no sign, exponent or nan: only a zero price is bad
    bad = p[idx] == 0
    keep[idx[bad]] = False

    first_bad = int(idx[np.argmax(bad)]) if strict and bad.any() else n
    if strict:
        slow = slow[slow < first_bad]
    elif len(slow):
        slow = slow[~_rejected(a, starts[slow], ends[slow])]
    rows = np.stack((slow, starts[slow], ends[slow]))
    return (t, p, v), keep, rows, first_bad


def _finish_chunk(chunk, scan, codec, strict, line_no):
    """The per-line half of a chunk's parse, on the calling thread.

    `scan` is the chunk's `_scan_chunk` result, and its first line is
    number `line_no`. Parses the lines left in line order and raises
    the chunk's first strict-mode error. Returns the (t, p, v) arrays
    of the valid records in line order and the number of lines.
    """
    (t, p, v), keep, slow, first_bad = scan
    for i, start, end in slow.T.tolist():
        line = chunk[start:end].decode(*codec)
        try:
            t[i], p[i], v[i] = _parse_line(line, line_no + i)
        except RetvolError:
            if strict:
                raise
            continue
        keep[i] = True
    if first_bad < len(keep):
        raise NonPositivePrice(line_no + first_bad)
    return (t[keep], p[keep], v[keep]), len(keep)


def _column(pieces, order):
    """Concatenate a column's chunk pieces, freeing them, and gather it
    by `order` unless that is None."""
    col = np.concatenate(pieces)
    pieces.clear()
    return col if order is None else col[order]


def parse_tick_csv(stream, strictness=STRICT, source_label=""):
    """Parse a `unixtime,price,amount` CSV stream into a TickSeries.

    Parameters
    ----------
    stream : file-like
        Byte or text stream of headerless CSV lines. Byte streams end
        lines at LF, CRLF or CR; text streams at LF or CRLF. The calling
        thread reads (and gunzips) the stream in chunks of CHUNK_BYTES,
        cut at a line end, and submits each chunk's numpy half to a pool
        of _SCAN_THREADS threads. Once that many chunks are in flight,
        it parses the oldest one's remaining lines per line, so chunks
        are finished in order. No read outlives the call, but reads run
        up to _SCAN_THREADS chunks ahead of the chunk being finished: a
        strict-mode error is raised only after those reads return (on
        a pipe or socket, after more data or its end). A failed read is
        raised after the chunks read before it are finished, so their
        strict-mode error wins, as in a serial read.
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
    ConfigInvalid
        An unknown `strictness`.
    """
    if strictness not in (STRICT, LENIENT):
        raise ConfigInvalid(f"unknown strictness {strictness!r}")
    strict = strictness == STRICT
    text = isinstance(stream.read(0), str)
    codec = ("utf-8", "surrogatepass") if text else ("ascii", "replace")

    cols, n_lines = ([], [], []), 0
    pending = deque()   # (chunk, future of its numpy half), oldest first

    def finish(until):
        """Finish the oldest chunks until `until` are left in flight."""
        nonlocal n_lines
        while len(pending) > until:
            chunk, scan = pending.popleft()
            records, n = _finish_chunk(chunk, scan.result(), codec, strict,
                                       n_lines + 1)
            for col, x in zip(cols, records):
                col.append(x)
            n_lines += n

    chunks = _line_chunks(stream, text)
    # leaving the block joins the pool: no thread outlives the call
    with ThreadPoolExecutor(_SCAN_THREADS) as pool:
        while True:
            try:
                chunk = next(chunks, None)
            except Exception:
                # finish the chunks read before it: their errors win
                finish(0)
                raise
            if chunk is None:
                break
            finish(_SCAN_THREADS - 1)
            pending.append((chunk, pool.submit(_scan_chunk, chunk, strict)))
        finish(0)
    n_valid = sum(map(len, cols[0]))
    if not n_valid:
        raise EmptyInput("no valid tick records in input")

    # one column at a time: no sort and no gather when already in order
    t = _column(cols[0], None)
    order = None if np.all(t[1:] >= t[:-1]) else np.argsort(t, kind="stable")
    t = t if order is None else t[order]
    return TickSeries(t, _column(cols[1], order), _column(cols[2], order),
                      source_label=source_label, n_skipped=n_lines - n_valid)


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
    """Parse a tick CSV file, decompressing `*.gz`; UnreadableInput when
    it cannot be opened, read or decompressed."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            return parse_tick_csv(fh, strictness=strictness,
                                  source_label=str(path))
    except (OSError, EOFError, zlib.error) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc
