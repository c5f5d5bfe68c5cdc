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
from 1e-4 to 1e16 and fixed-decimal exchange fields. A field's digits
are read eight at a time (SWAR) from a window as wide as the widest
such field of its column in the chunk, where bit 4 tells digits from
the dot. Each value is the double `float()` gives (`_round_exact` holds
the argument); a rounding it cannot prove, such as an exact tie, is
declined. A fast line's only possible fault is a zero price, checked
vectorized. In lenient mode, `_rejected` drops, also vectorized, the
lines that fail whatever their digits: the wrong comma count, a letter
other than e/E, a dot in the timestamp or a price starting with "-".
Every other line (a sign, an exponent such as `1e-05`, spaces, more
digits, a lone `\r` in a text stream, a non-ASCII byte) goes through
`_parse_line`, which states the rules: each path gives a line the same
record, skip or strict-mode error.

Files and byte streams are read as ASCII (a non-ASCII byte becomes
U+FFFD) with universal newlines; text streams end lines at "\n" and
"\r\n" only. Records come out as numpy arrays sorted by timestamp
(stable, so trades that share a timestamp keep file order).

Duplicates can only share a timestamp, so `deduplicate` compares only
the rows in runs of equal timestamps of a sorted series: runs of two
pairwise, longer ones by sorting their rows.
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
# or volume has at most 24 bytes (three words) and 22 fraction digits,
# as 10**22 is the largest power of ten exact in a double
_FAST_DIGITS, _WINDOW, _MAX_FRACTION = 18, 24, 22
# the non-digit bytes of a fast line through its newline, little-endian
_PATTERNS = [int.from_bytes(p, "little")
             for p in (b",,\n", b",.,\n", b",,.\n", b",.,.\n")]
_BYTE_MASKS = np.array([2**(8 * k) - 1 for k in range(9)], dtype=np.uint64)
# row r, column k: bit 0 of each byte of a k-byte field that lies in
# the r-th word from the end of its window (a word's last bytes)
_FIELD_BITS = (~_BYTE_MASKS[8 - np.clip(np.arange(_WINDOW + 1)
                                        - 8 * np.arange(3)[:, None], 0, 8)]
               & np.uint64(0x0101010101010101))
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
        held = b""
        if not text and block.endswith(b"\r"):
            # may be the first half of a \r\n that the next read completes
            block, held = block[:-1], b"\r"
        end = not (block or held)
        # cut the block after its last line end, then copy once
        cut = max(block.rfind(b"\n"), -1 if text else block.rfind(b"\r")) + 1
        if not (cut or end):
            tail += block + held
            continue
        data = b"".join((tail, memoryview(block)[:cut]))
        tail = block[cut:] + held
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
            if not text:
                data = data.replace(b"\r", b"\n")
        if end:
            if data:
                yield data if data.endswith(b"\n") else data + b"\n"
            return
        yield data


def _split(x):
    """Veltkamp split of x into two halves of at most 26 significant bits."""
    c = (2.0**27 + 1) * x
    hi = c - (c - x)
    return hi, x - hi


_P10_HI, _P10_LO = _split(_POW10F)


def _fast_fields(a):
    """Line bounds of a chunk, and the fields of its fast lines.

    `a` is the chunk and then 8 zero bytes. Returns the start and newline
    of every line, which lines are within the fast limits, and per line
    the three (field end, length) pairs and the (fraction digits, dot)
    pairs of price and volume, all 0 on a line that is not fast. The
    non-digit bytes place every comma, dot and newline.
    """
    nd = np.subtract(a, np.uint8(ord("0")))
    nd = np.flatnonzero(np.greater(nd, 9, out=nd.view(bool)))
    b = a[nd]
    nl = np.flatnonzero(b == _NEWLINE)
    ends = nd[nl]
    starts = np.concatenate(([0], ends[:-1] + 1))
    first = np.concatenate(([0], nl[:-1] + 1))
    # a line's non-digit bytes through its newline as one word
    words = np.ndarray((len(b) - 7,), dtype="<u8", buffer=b, strides=(1,))
    key = words[first] & _BYTE_MASKS[np.minimum(nl - first + 1, 8)]
    dot_p, dot_v = b[first + 1] == _DOT, b[nl - 1] == _DOT
    c1, c2 = nd[first], nd[first + 1 + dot_p]
    lt, lp, lv = c1 - starts, c2 - c1 - 1, ends - c2 - 1
    # nd[first + 1] is the price's dot, or its end when it has none
    fp, fv = c2 - nd[first + 1] - dot_p, (ends - nd[nl - 1] - 1) * dot_v
    fast = (((key == _PATTERNS[0]) | (key == _PATTERNS[1])
             | (key == _PATTERNS[2]) | (key == _PATTERNS[3]))
            & (lt >= 1) & (lt <= _FAST_DIGITS) & (lp > dot_p)
            & (lp <= _WINDOW) & (lv > dot_v) & (lv <= _WINDOW)
            & (fp <= _MAX_FRACTION) & (fv <= _MAX_FRACTION))
    for x in (lt, lp, lv, fp, fv, dot_p, dot_v):
        x *= fast
    return (starts, ends, fast, ((c1, lt), (c2, lp), (ends, lv)),
            ((fp, dot_p), (fv, dot_v)))


def _field_digits(buf, end, size):
    """The digits of each field as one integer, a dot read as a 0.

    A field is the right-aligned window ending at `end` in `buf`, the
    chunk after 24 bytes of padding, of as many 8-byte words as the
    column's widest field needs. Of a fast line's bytes only the digits
    have bit 4 set (not ",", "." or "\n"), so each byte keeps its low
    nibble where that bit is set and it lies in the field, else becomes
    0. SWAR arithmetic then turns each word into its 8-digit value
    (three multiply-shift-mask steps). Returns the values, and which are
    valid: below 10**19, as the first word is below 10**(27 - 8 words),
    which binds only at three words.
    """
    words = max(-(-int(size.max()) // 8), 1)
    windows = np.ndarray((len(buf) - _WINDOW + 1,), dtype=f"V{8 * words}",
                         buffer=buf, offset=_WINDOW - 8 * words, strides=(1,))
    x = windows[end].view("<u8").reshape(-1, words)
    keep = x >> np.uint64(4)
    for j in range(words):
        keep[:, j] &= _FIELD_BITS[words - 1 - j][size]
    keep *= np.uint64(0x0F)
    x &= keep
    x *= np.uint64(10 * 256 + 1)
    x >>= np.uint64(8)
    x &= np.uint64(0x00FF00FF00FF00FF)
    x *= np.uint64(100 * 65536 + 1)
    x >>= np.uint64(16)
    x &= np.uint64(0x0000FFFF0000FFFF)
    x *= np.uint64(10_000 * 2**32 + 1)
    x >>= np.uint64(32)
    value = x[:, 0]
    for j in range(1, words):
        value = value * np.uint64(10**8) + x[:, j]
    return value, x[:, 0] < 10 ** (27 - 8 * words)


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
    buf = np.frombuffer(b"".join((bytes(_WINDOW), chunk, bytes(8))),
                        dtype=np.uint8)
    starts, ends, fast, fields, fractions = _fast_fields(buf[_WINDOW:])
    # a timestamp of at most 18 digits is always valid
    (t, _), *digits = [_field_digits(buf, *field) for field in fields]
    del buf, fields     # free before the rounding's temporaries
    cols = [t.view(np.int64)]
    for (value, valid), (f, dot) in zip(digits, fractions):
        # drop the dot's 0 digit, at 10**f; no dot, no change
        high, low = np.divmod(value, _POW10[f + dot])
        x, exact = _round_exact(high * _POW10[f] + low, f)
        fast &= valid & exact
        cols.append(x)
    # a fast line has no sign, exponent or nan: only a zero price is bad
    zero = fast & (cols[1] == 0)
    first_bad = int(np.argmax(zero)) if strict and zero.any() else len(ends)
    slow = np.flatnonzero(~fast)
    if strict:
        slow = slow[slow < first_bad]
    elif len(slow):
        a = np.frombuffer(chunk, dtype=np.uint8)
        slow = slow[~_rejected(a, starts[slow], ends[slow])]
    rows = np.stack((slow, starts[slow], ends[slow]))
    return cols, fast ^ zero, rows, first_bad


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
    those rows are compared: a run of two directly, longer runs (and
    unsorted input) by sorting their rows.
    """
    t, p, v = ticks.timestamps, ticks.prices, ticks.volumes
    if (t[1:] < t[:-1]).any():
        keep = np.ones(len(t), dtype=bool)
        rows = np.arange(len(t))
    else:
        # tie[i]: rows i - 1 and i share a timestamp
        tie = np.zeros(len(t) + 1, dtype=bool)
        np.equal(t[1:], t[:-1], out=tie[1:-1])
        if not tie.any():
            return ticks
        # a run of two rows is a duplicate iff p and v compare equal (NaN
        # never does, 0.0 == -0.0, as in np.unique); its second row goes
        pair = tie[1:-1] & ~tie[:-2] & ~tie[2:]
        keep = np.ones(len(t), dtype=bool)
        keep[1:] = ~(pair & (p[1:] == p[:-1]) & (v[1:] == v[:-1]))
        tie[1:-1] &= ~pair
        rows = np.flatnonzero(tie[:-1] | tie[1:])
    rec = np.empty(len(rows), dtype=_RECORD)
    rec["t"], rec["p"], rec["v"] = t[rows], p[rows], v[rows]
    _, first_idx = np.unique(rec, return_index=True)
    keep[rows] = False
    keep[rows[first_idx]] = True
    return TickSeries(t[keep], p[keep], v[keep],
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
