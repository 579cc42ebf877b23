"""The trajectory CSV: the one series format that `rcar simulate` writes
and `rcar estimate` and `rcar test` read.

Contract. `write_rows` and `write_csv` write a `t,x` header, then one row
`t,x_t` per index t = 0..n, each line ending in CRLF and each value
printed as "%.17g" prints it: byte for byte what `csv.writer` gives for
rows `(t, f"{x_t:.17g}")`. Seventeen significant digits identify a
double, so every double, -0 and subnormals among them, reads back
bitwise. `ingest` reads a file or a pipe and gives what np.loadtxt gives
for the input as text mode reads it: lines end in LF, CRLF or a lone CR,
the header is `t,x` up to spaces around its names, empty lines hold no
record but are counted, `#` is data and not a comment, and every x is
bitwise np.loadtxt's. It raises DegenerateDataError naming the input and
the physical line, a pipe's as a file's, for a line np.loadtxt rejects
(bytes that are not UTF-8 reach it as lone surrogates), an index that
breaks the sequence 0, 1, 2, ... and a non-finite value; a missing header
or fewer than two rows is named without a line.

Writing. `_format_rows` formats _WRITE_BLOCK rows at a time in numpy. For
1e-4 <= |x| < 1e16, which %.17g prints without an exponent, `_significand`
gives the 17 significant digits exactly, rounded as dtoa rounds the exact
binary value (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990), and `_value_words` lays them out as %g does: the
point after digit k = floor(log10 |x|), or `0.` and -k - 1 zeros before
the digits where k < 0, and no trailing zeros after the point. So the
bytes are those of %.17g. The other rows, 0, |x| < 1e-4 (subnormals among
them), |x| >= 1e16 and non-finite values (about 70 rows in 10**6 of a
stationary series), go through %.17g one by one.

Reading. `ingest` reads the input as bytes, _READ_CHARS = 2**18 bytes and
the rest of a line at a time, into one float array sized from the file's
b"\\n" count. `_read_block` reads the rows `write_rows` writes for that
domain in numpy, straight from the bytes, each x the double nearest its
text (`_exact_values`), and np.loadtxt (`_parse_rows`) decides every
other line; a line it rejects goes to `_locate`. A read that is not
ASCII, or that leaves more than an eighth of its lines to np.loadtxt,
and more than _SLOW_LINES, turns the numpy path off for the rest of the
input, which np.loadtxt then reads whole a read at a time: on input of
other writers (integer or exponent-form values) the numpy pass costs
more than it saves. Only the header and what np.loadtxt and `_locate`
read are decoded, as text mode decodes them (`_decode`), so x, error
texts and line numbers are those of a text-mode read.
"""

from __future__ import annotations

import functools
import io
import os
import re
import warnings
from collections.abc import Iterator

import numpy as np

from .errors import DegenerateDataError
from .simulate import _MASK64, Trajectory

_CSV_ROWS = np.dtype([("t", "<i8"), ("x", "<f8")])
#: rows formatted per write; bounds the size of each formatted string
_WRITE_BLOCK = 1 << 13
#: `ingest` reads this many bytes, and the rest of the last line, at a
#: time: 8192 lines of 32 bytes
_READ_CHARS = 1 << 18
#: `ingest` gives up the numpy path for the rest of its input once a read
#: leaves more than an eighth of its lines, and more than this many, to
#: `_parse_rows`: there the pass costs more than it saves
_SLOW_LINES = 1 << 10
#: rows per parse when a rejected block is searched for its faulty line
_LOCATE_BLOCK = 1 << 10

#: the |x| that `_format_rows` formats in numpy; %.17g prints them (and
#: those up to 1e17) without an exponent
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e16
#: the decimal exponents k = floor(log10 |x|) of the domain
_K_MIN, _K_MAX = -4, 15
_U4, _U8 = np.dtype("<u4"), np.dtype("<u8")
#: 10**j for j = _K_MIN.._K_MAX + 1 as doubles; each is at or above the
#: exact power, so a double |x| >= _POW10[j] exactly when |x| >= 10**j
_POW10 = np.array([float(f"1e{j}") for j in range(_K_MIN, _K_MAX + 2)])
#: 5**(16 - k), below 2**50, split into its high and low 32-bit halves
_POW5 = np.array([5 ** (16 - k) for k in range(_K_MIN, _K_MAX + 1)], dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> np.uint64(32), _POW5 & np.uint64(0xFFFFFFFF)
#: 10**j for j = 0..16 in uint64, and 10**j for j = 0..20 as doubles, each
#: exact (10**22 is the largest power of ten a double holds exactly)
_POW10_U8 = np.array([10 ** j for j in range(17)], dtype=np.uint64)
_POW10_F8 = np.array([float(f"1e{j}") for j in range(21)])
#: the mask that clears the low i bytes of a '<u8' word, i = 0..8
_WORD_KEEP = np.array([_MASK64 << 8 * i & _MASK64 for i in range(9)], dtype=np.uint64)
#: the bytes around a block's text, so every word and byte `_read_block`
#: reads is in its buffer; '0' is no separator
_PAD = b"0" * 16
#: a line end as text mode reads it, where the bytes hold all of it
_LINE_END = re.compile(rb"\r\n?|\n")


@functools.cache
def _digit_tables():
    """Lookup words of the 4-digit groups g = 0..9999: g's ASCII digits at
    the odd bytes of a '<u8' word (the even bytes hold the decimal point),
    as a '<u4' word, and as a '<u4' word with its leading zeros NUL ('0'
    for 0); and the place 1..4 of g's last nonzero digit (negative for 0).
    Built on the first call, so a process that writes no CSV builds none."""
    g = np.arange(10_000, dtype=np.int64)
    digits = np.empty((10_000, 4), np.uint8)
    top = np.empty_like(digits)
    last = np.full(10_000, -16, dtype=np.int8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        digit = g // scale % 10
        digits[:, i] = digit + 48
        top[:, i] = np.where(g >= scale, digit + 48, 0)
        last[digit != 0] = i + 1
    top[0, 3] = 48
    spaced = np.zeros((10_000, 8), np.uint8)
    spaced[:, 1::2] = digits
    return (spaced.view(_U8)[:, 0], digits.view(_U4)[:, 0],
            top.view(_U4)[:, 0], last)


@functools.cache
def _layout_tables():
    """The constant bytes of the value field, by exponent k and whether a
    point shows: ',', the `0.000` prefix of k < 0 and the point after
    digit k (5 words: the head, then the 4 group words); and, by the last
    digit kept, the mask that keeps digits 1..16 up to it (4 words).
    Built on the first call, as `_digit_tables` is."""
    k = np.arange(_K_MIN, _K_MAX + 1)[:, None, None]
    shows = np.arange(2)[None, :, None]
    fill = np.zeros((len(k), 2, 40), np.uint8)
    fill[..., 0] = 44
    fill[..., 2:4] = np.where(k < 0, [48, 46], 0)
    fill[..., 4:7] = np.where(np.arange(3) < -k - 1, 48, 0)
    # the point after digit i, i = 0..15, is the even byte before digit i + 1
    fill[..., 8::2] = np.where((np.arange(16) == k) & (shows == 1), 46, 0)
    keep = np.zeros((17, 32), np.uint8)
    keep[:, 1::2] = np.where(np.arange(1, 17) <= np.arange(17)[:, None], 0xFF, 0)
    return fill.view(_U8).reshape(-1, 5), keep.view(_U8)


def _significand(x: np.ndarray):
    """(d, k) for each x = m 2**e (53-bit m) of the domain: k = floor(log10
    |x|) and d the 17 significant digits as an integer 10**16 <= d < 10**17,
    so that %.17g prints x as d 10**(k - 16).

    d is m 5**(16 - k) 2**(e + 16 - k) rounded half to even, as dtoa
    rounds: the product is exact in two uint64 limbs and the power of two
    is a right shift of 2..50 bits, m being shifted left 4 bits first. It
    never rounds up to 10**17, since a double below 10**(k + 1) is more
    than 5e-18 of it below.
    """
    bits = x.view(np.uint64)
    exp = (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.int64)
    # floor(log10 2**(exp - 1023)), exact for |exp - 1023| < 1100 (Adams,
    # "Ryu: fast float-to-string conversion", 2018); x is 2**(exp - 1023)
    # to under twice that, so k is it or it plus one
    k = (exp - 1023) * 78913 >> 18
    k += np.abs(x) >= _POW10[k + 1 - _K_MIN]
    m = (bits & np.uint64((1 << 52) - 1) | np.uint64(1 << 52)) << np.uint64(4)
    shift = (k - exp + (1075 + 4 - 16)).astype(np.uint64)
    m_hi, m_lo = m >> np.uint64(32), m & np.uint64(0xFFFFFFFF)
    p_hi, p_lo = _POW5_HI[k - _K_MIN], _POW5_LO[k - _K_MIN]
    lo = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    low = lo + (mid << np.uint64(32))
    high = m_hi * p_hi + (mid >> np.uint64(32)) + (low < lo)
    d = high << (np.uint64(64) - shift) | low >> shift
    rest = low & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    d += (rest > half) | (rest == half) & (d & np.uint64(1) == np.uint64(1))
    return d, k


def _value_words(x: np.ndarray):
    """The value field of each row, x in the domain: a head word (',', the
    sign, the `0.000` prefix of k < 0, the first digit) and four words of
    digits 1..16, each at an odd byte, the even byte before it holding the
    point where it follows the digit before. The digits after the point
    stop at the last nonzero one; those before it all stay."""
    d, k = _significand(x)
    spaced, _, _, group_last = _digit_tables()
    fills, keep = _layout_tables()
    top = d // np.uint64(10 ** 8)
    low = (d - top * np.uint64(10 ** 8)).astype(np.int64)
    top = top.astype(np.int64)
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    groups = np.empty((len(x), 4), np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(top, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10 ** 4)
    # digit 16 is 0 on these rows alone; on them the digits after the
    # point may stop early
    short = np.flatnonzero(groups[:, 3] % 10 == 0)
    last = np.full(len(x), 16, dtype=np.int64)
    ends = group_last[groups[short]] + np.arange(0, 16, 4, dtype=np.int64)
    last[short] = np.maximum(ends.max(axis=1), 0)
    fill = np.take(fills, (k - _K_MIN) * 2 + (last > k), axis=0)
    head = (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-") << 8)
    head |= (lead.astype(np.uint64) + np.uint64(48)) << np.uint64(56)
    head |= fill[:, 0]
    words = np.take(spaced, groups)
    words[short] &= np.take(keep, np.maximum(k[short], last[short]), axis=0)
    words |= fill[:, 1:]
    return head, words


def _index_words(out: np.ndarray, t0: int) -> None:
    """Write t = t0, t0 + 1, ... into out, one row of 4-digit '<u4' words
    each, the most significant first, with leading zeros NUL."""
    n, width = out.shape
    _, index, index_top, _ = _digit_tables()
    t = np.arange(t0, t0 + n, dtype=np.int64)
    for j in range(width):
        scale = 10 ** (4 * (width - 1 - j))
        group = t // scale % 10 ** 4
        # t is sorted: rows before `first` have no digit in this word (the
        # last word writes t = 0 as '0'), rows from `full` on have one
        # before it
        first, full = (min(max(v - t0, 0), n)
                       for v in (scale if scale > 1 else 0, scale * 10 ** 4))
        out[:first, j] = 0
        out[first:full, j] = index_top[group[first:full]]
        out[full:, j] = index[group[full:]]


def _format_rows(x: np.ndarray, t0: int) -> str:
    """The CSV rows `t,x_t` of x, t from t0, each `"%d,%.17g\r\n" % (t, x_t)`.

    Each row is first a fixed-width record whose unused bytes are NUL: the
    index words, the value field and CRLF. Deleting the NULs leaves the
    rows. A value outside the domain leaves a marker in its field that its
    own %.17g replaces.
    """
    fixed = (np.abs(x) >= _FIXED_MIN) & (np.abs(x) < _FIXED_MAX)
    fallback = np.flatnonzero(~fixed)
    width = -(-len(str(t0 + len(x) - 1)) // 4)
    rows = np.empty(len(x), [("t", _U4, (width,)), ("head", _U8),
                             ("digits", _U8, (4,)), ("end", "<u2")])
    _index_words(rows["t"], t0)
    rows["head"], rows["digits"] = _value_words(np.where(fixed, x, 1.0))
    rows["end"] = 0x0A0D
    rows["head"][fallback] = 0x012C  # ',' and the marker
    rows["digits"][fallback] = 0
    text = rows.tobytes().translate(None, b"\0").decode("ascii")
    if not fallback.size:
        return text
    pieces = text.split("\x01")
    out = [pieces[0]]
    for value, piece in zip(x[fallback].tolist(), pieces[1:]):
        out += ("%.17g" % value, piece)
    return "".join(out)


def write_rows(fh, blocks) -> None:
    """Write the `t,x` header and the rows `t,x_t` to a text stream, x_0,
    x_1, ... being the values of the arrays `blocks` yields in turn."""
    fh.write("t,x\r\n")
    t = 0
    for x in blocks:
        x = np.ascontiguousarray(x, dtype=np.float64)
        for start in range(0, len(x), _WRITE_BLOCK):
            rows = x[start:start + _WRITE_BLOCK]
            fh.write(_format_rows(rows, t))
            t += len(rows)


def write_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_rows(fh, [traj.x])


def _parse_rows(lines) -> np.ndarray:
    """Parse `t,x` data lines into (t, x) records; ValueError on a bad line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", dtype=_CSV_ROWS,
                          comments=None, ndmin=1)


def _digit_words(words: np.ndarray, fields) -> tuple:
    """The digits of each row's fields as 8-digit SWAR words: a field (e,
    s, count) is text[s:e] of each row, read as `count` words that end at
    e, 8 bytes apart, with the bytes before s cleared to 0. words[i] is
    the little-endian word at byte i of the text, whose fields hold no
    byte below '0'. Returns the words' integers, (words, rows), the less
    significant word of each field first, and whether every byte of each
    row's fields is a digit."""
    shape = (sum(count for _, _, count in fields), len(fields[0][0]))
    at, outside = np.empty(shape, np.int64), np.empty(shape, np.int64)
    j = 0
    for end, start, count in fields:
        for step in range(8, 8 * count + 1, 8):
            np.subtract(end, step, out=at[j])
            np.subtract(start, at[j], out=outside[j])
            j += 1
    w = words[at]
    w &= _WORD_KEEP.take(outside, mode="clip")
    # a byte 0x00..0x39 plus 0x46 stays below 0x80, one 0x3a..0x7f does not
    high = w + np.uint64(0x4646464646464646)
    high &= np.uint64(0x8080808080808080)
    digits = functools.reduce(np.bitwise_or, high) == 0
    # eight digits, the first in the low byte, to an integer in three
    # multiplies (Lemire, "Quickly parsing eight digits", 2018)
    w &= np.uint64(0x0F0F0F0F0F0F0F0F)
    for mul, shift, keep in ((2561, 8, 0x00FF00FF00FF00FF),
                             (6553601, 16, 0x0000FFFF0000FFFF)):
        w *= np.uint64(mul)
        w >>= np.uint64(shift)
        w &= np.uint64(keep)
    w *= np.uint64(42949672960001)
    w >>= np.uint64(32)
    return w, digits


def _field_value(words: np.ndarray) -> np.ndarray:
    """The integer of one field's 8-digit words, less significant first."""
    value = words[0].copy()
    if len(words) > 1:
        value += words[1] * _POW10_U8[8]
    return value


def _nearest(y: np.ndarray, want_d: np.ndarray, want_k: np.ndarray) -> np.ndarray:
    """Whether each y is in 1e-4 <= y < 1e16 and `_significand` gives
    back (want_d, want_k) for it."""
    inside = (y >= _FIXED_MIN) & (y < _FIXED_MAX)
    d, k = _significand(np.where(inside, y, 1.0))
    return inside & (d == want_d) & (k == want_k)


def _exact_values(w: np.ndarray, p: np.ndarray) -> tuple:
    """The double nearest w 10**-p for each w < 10**17 and p <= 20, and
    whether it is resolved.

    Below 2**53, w and 10**p are exact doubles, so one division rounds
    w 10**-p correctly (Clinger, "How to read floating point numbers
    accurately", 1990). Otherwise that quotient or a neighbour 1 ulp away
    is the nearest double: the one for which `_significand` gives back w's
    own digits, padded to 17, and w 10**-p's exponent. Seventeen
    significant digits identify a double, so the double whose 17 digits
    are the text's is the one nearest the text. The check needs
    1e-4 <= x < 1e16; rows outside it, or whose three candidates all miss,
    are unresolved.
    """
    x = w.astype(np.float64)
    x /= _POW10_F8[p]
    # w >= 2**53 has 16 or 17 digits
    seventeen = w >= _POW10_U8[16]
    want_d = np.where(seventeen, w, w * np.uint64(10))
    want_k = 15 + seventeen - p
    resolved = (w < np.uint64(1 << 53)) | _nearest(x, want_d, want_k)
    miss = np.flatnonzero(~resolved)
    if miss.size:
        first, want_d, want_k = x[miss], want_d[miss], want_k[miss]
        for step in (1, -1):
            y = (first.view(np.int64) + step).view(np.float64)
            hit = _nearest(y, want_d, want_k)
            x[miss[hit]] = y[hit]
            resolved[miss[hit]] = True
    return x, resolved


def _read_block(data: bytes):
    """The (t, x) records of data's lines and the count of its lines, or
    None where data is not ASCII or leaves more than an eighth of its
    lines, and more than _SLOW_LINES, to `_parse_rows`, whose ValueError
    on the lines it is left is raised.

    data is whole lines (`_line_chunks`); a lone b"\\r" ends one as
    b"\\n" does. The numpy path reads lines of t digits without a leading
    zero, ',', an optional '-', digits without a leading zero (but `0`),
    '.' and at most 20 digits, at most 17 of them significant, as 8-digit
    words (`_digit_words`). Empty lines hold no record; `_parse_rows` is
    left each other line without its line end, and gives one record for
    it: the one non-empty line np.loadtxt skips is a lone "\\r", and no
    line holds one.
    """
    if not data.isascii():
        return None
    buf = b"".join((_PAD, data, _PAD))
    b = np.frombuffer(buf, np.uint8)
    words = np.ndarray((len(buf) - 7,), _U8, buf, strides=(1,))
    at = np.flatnonzero(b < 48)  # the line ends, commas, signs and points
    ch = b[at]
    cr = np.flatnonzero(ch == 13)
    ch[cr[b[at[cr] + 1] != 10]] = 10  # text mode ends a line at a lone CR
    nl = np.flatnonzero(ch == 10)
    crlf = ch.take(nl - 1, mode="clip") == 13
    stop = nl - crlf  # each line's end: its LF, its lone CR or the CR of its CRLF
    ends = at[stop]
    starts = np.empty_like(ends)
    starts[:1] = len(_PAD)
    starts[1:] = at[nl[:-1]] + 1
    # `,.` or `,-.` and the line end close a line, the sign right after
    # the comma
    count = np.diff(nl, prepend=-1) - crlf
    sign = count == 4
    comma = stop - 2 - sign
    dot, sep = at.take(stop - 1, mode="clip"), at.take(comma, mode="clip")
    ok = (count == 3) | sign
    ok &= ch.take(stop - 1, mode="clip") == 46
    ok &= ch.take(comma, mode="clip") == 44
    ok &= (b[sep + 1] == 45) == sign
    lead = sep + 1 + sign
    t_len, i_len, f_len = sep - starts, dot - lead, ends - dot - 1
    # 10**f_len is exact in a double
    ok &= (t_len >= 1) & (i_len >= 1) & (f_len >= 1) & (f_len <= 20)
    zero = b[lead] == 48
    ok &= ((t_len == 1) | (b[starts] != 48)) & ((i_len == 1) | ~zero)
    # past 16 digits after the point, x is `0.` and the digits before the
    # last 16 take the integer part's word
    long = f_len > 16
    ok &= ~long | zero
    hi_end = np.where(long, ends - 16, dot)
    hi_start = np.where(long, dot + 1, lead)
    fields = []
    for end, start in ((sep, starts), (hi_end, hi_start)):
        size = end - start
        words_n = 1 + (size.max(initial=0, where=ok) > 8)
        if words_n > 1:
            ok &= size <= 16
        fields.append((end, start, words_n))
    fields.append((ends, dot + 1, 2))  # the last 16 digits after the point
    w, digits = _digit_words(words, fields)
    ok &= digits
    t = _field_value(w[:fields[0][2]])
    hi = _field_value(w[fields[0][2]:-2])
    scale = np.minimum(f_len, 16)
    # at most 17 significant digits: hi < 10**(17 - scale), so no uint64
    # product below wraps
    ok &= hi < _POW10_U8.take(17 - scale, mode="clip")
    hi *= ok  # rows off the numpy path read 0
    hi *= _POW10_U8.take(scale, mode="clip")
    hi += _field_value(w[-2:]) * ok
    x, resolved = _exact_values(hi, f_len * ok)
    ok &= resolved
    np.negative(x, out=x, where=sign)
    empty = ends == starts  # an empty line holds no record
    slow = np.flatnonzero(~(ok | empty))
    if len(slow) > max(len(ends) >> 3, _SLOW_LINES):
        return None
    rows = np.empty(len(ends), _CSV_ROWS)
    rows["t"] = t
    rows["x"] = x
    if slow.size:
        rows[slow] = _parse_rows([data[a:e].decode("ascii") for a, e in zip(
            (starts[slow] - len(_PAD)).tolist(), (ends[slow] - len(_PAD)).tolist())])
    return (np.delete(rows, np.flatnonzero(empty)) if empty.any() else rows), len(rows)


def _whole_lines(fh, data: bytes) -> bytes:
    """data and the rest of its last line from the binary stream fh, up to
    where text mode ends that line: a b"\\n", or a b"\\r" and the b"\\n"
    after it if one follows. The input's last line gets a b"\\n" if it
    ends in neither. The pieces are joined once, so a long line costs
    linear time."""
    parts = [data]
    while not parts[-1].endswith(b"\n"):
        more = fh.peek()
        if parts[-1].endswith(b"\r"):
            if more[:1] == b"\n":
                parts.append(fh.read(1))
            break
        if not more:
            parts.append(b"\n")
            break
        end = _LINE_END.search(more)
        parts.append(fh.read(end.end() if end else len(more)))
    return b"".join(parts)


def _line_chunks(fh, size: int) -> Iterator:
    """The binary stream fh's bytes in pieces of whole lines, each size
    bytes and the rest of its last line (`_whole_lines`)."""
    while data := fh.read(size):
        yield _whole_lines(fh, data)


def _decode(data: bytes) -> str:
    """data as text mode reads it: UTF-8, each byte that does not decode a
    lone surrogate, and each "\\r\\n" and lone "\\r" a "\\n". data is
    whole lines, so no character and no CRLF pair is cut at its edges."""
    text = data.decode("utf-8", "surrogateescape")
    if "\r" in text:
        text = io.IncrementalNewlineDecoder(None, translate=True).decode(text, final=True)
    return text


def _value_fault(rows: np.ndarray, start: int) -> str | None:
    """Why the first record that breaks the contiguous index from `start` or
    holds a non-finite value is rejected, or None."""
    expected = np.arange(start, start + len(rows))
    bad = np.flatnonzero((rows["t"] != expected) | ~np.isfinite(rows["x"]))
    if not bad.size:
        return None
    i = bad[0]
    if rows["t"][i] != expected[i]:
        return (f"index {rows['t'][i]} breaks the contiguous sequence "
                f"(expected {expected[i]})")
    return "non-finite value"


def _line_fault(line: str, start: int) -> str | None:
    """Why one data line with expected index `start` is rejected, or None."""
    try:
        rows = _parse_rows([line])
    except ValueError:
        fields = line.count(",") + 1
        if fields != 2:
            return f"expected two fields, got {fields}"
        return f"expected an integer index and a float, got {line.rstrip()!r}"
    return _value_fault(rows, start)


def _locate(path, lines: list, lineno: int, start: int,
            reason: str) -> DegenerateDataError:
    """The error naming the first faulty line of a read `ingest` rejected.

    lines is the read cut at each "\\n", its first line being line
    `lineno` of the input and its first row expected at index `start`.
    Walks its non-empty lines _LOCATE_BLOCK at a time through the same parse
    and checks, then line by line within the first that fails; the input is
    not read again, so a pipe is searched as a file is. Falls back to the
    rejection's `reason` if no line is pinned.
    """
    numbered = [(lineno + i, line) for i, line in enumerate(lines) if line]
    for first in range(0, len(numbered), _LOCATE_BLOCK):
        block = numbered[first:first + _LOCATE_BLOCK]
        try:
            clean = _value_fault(_parse_rows([line for _, line in block]),
                                 start) is None
        except ValueError:
            clean = False
        if not clean:
            for offset, (number, line) in enumerate(block):
                why = _line_fault(line, start + offset)
                if why:
                    return DegenerateDataError(f"{path}:{number}: {why}")
        start += len(block)
    return DegenerateDataError(f"{path}: {reason}")


def _newlines(path) -> int:
    """The count of b"\\n" bytes in the file at path, counted in numpy
    over one 64 KiB buffer."""
    count, chunk = 0, bytearray(1 << 16)
    view = np.frombuffer(chunk, np.uint8)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            count += np.count_nonzero(view[:size] == 10)
    return count


def ingest(path) -> Trajectory:
    """Read a trajectory CSV, a file or a pipe.

    The reads (`_line_chunks`) fill one float array: every row ends a
    line, so a file's b"\\n" count bounds the rows, and the array grows
    only for a pipe (which starts it empty) or a file whose lines end in a
    lone CR. From the first read `_read_block` leaves, every read is
    decoded and goes through `_parse_rows` whole. A read with a line
    either parse rejects, or a record that breaks the index or is not
    finite, goes decoded to `_locate`.
    """
    x = np.empty(_newlines(path) if os.path.isfile(path) else 0)
    rows = 0
    with open(path, "rb") as fh:
        header = _decode(_whole_lines(fh, b""))
        if [c.strip() for c in header.split(",")] != ["t", "x"]:
            raise DegenerateDataError(
                f"{path}: expected header 't,x', got {header.rstrip()!r}"
            )
        lineno = 2  # of the first line of the next read, empty lines counted
        fast = True
        for data in _line_chunks(fh, _READ_CHARS):
            try:
                read = _read_block(data) if fast else None
                if read is None:
                    fast = False
                    lines = _decode(data).split("\n")
                    read = _parse_rows(lines), len(lines) - 1
                block, count = read
                fault = _value_fault(block, rows)
            except ValueError as exc:
                fault = str(exc)
            if fault is not None:
                raise _locate(path, _decode(data).split("\n"), lineno, rows, fault)
            lineno += count
            if rows + len(block) > len(x):
                x.resize(2 * (rows + len(block)), refcheck=False)
            x[rows:rows + len(block)] = block["x"]
            rows += len(block)
    if rows < 2:
        raise DegenerateDataError(f"{path}: need at least two observations")
    x.resize(rows, refcheck=False)
    return Trajectory(x=x, n=rows - 1)
