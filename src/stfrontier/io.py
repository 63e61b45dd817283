"""File formats: long-format panel CSV, TE CSV, scenario/grid JSON, reports.

Every writer embeds the tool version, the issuing command, and the effective
seed (as '#' comment lines in CSV, a "meta" object in JSON), and writes UTF-8
bytes, whatever the locale, atomically (temp file + rename) with the file mode
a plain open() would give. No timestamps: identical runs give identical bytes.

Both long-CSV readers share one parser: it reads the file once, in blocks of
lines, and every row check is an array mask. A plain block, laid out as the
writer lays it out, is parsed as bytes, the mirror of the writer: one pass
finds the separators, _parse_floats reads every value at once with exact
integer arithmetic (Clinger 1990; Lemire 2021, "Number Parsing at a Gigabyte
per Second"), and each label is keyed by its bytes. The few values outside
the kernel's domain go to one np.loadtxt call. Any other block, or one where
that call fails, is parsed with one np.loadtxt call for the block, which
finds and words the error. The long-CSV writer formats and writes one block
of units at a time, so neither direction holds the whole text in memory.

The writer prints each float as repr() does, without calling repr() per
value: _format_floats finds the shortest digits that read back with exact
integer arithmetic on whole arrays, in the manner of Ryu (Adams 2018, PLDI),
and lays them out in byte slots padded with 0xFF, which neither UTF-8 nor
repr() ever produces. Each block of rows is one such byte matrix (labels,
slots, commas, newlines); its other bytes, written below the text layer, are
the block's text. Values outside the kernel's domain go to repr() one by one.

A long CSV of _SPLIT_MIN_BLOCKS blocks or more is written or read in two
halves when power.fork_width() allows a second process: one child, forked
by power.forked, runs the same code on the second half while this process
runs the first. The writer's child writes its blocks to an unnamed
temporary file beside the target, and this process copies them in after
its own, so it never holds the child's text. The reader splits the file
after the first newline past its middle byte; the child parses the rows
after the split and sends them back pickled through a pipe. This process
joins the halves' labels and line numbers as one pass would have returned
them, and checks and copies each half's values into the table on its own.
So each process holds the blocks of its own half, and this process
receives the child's rows, which one pass would have held too.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import re
import shutil
import stat
import sys
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from io import BufferedReader, RawIOBase, StringIO, TextIOWrapper

import numpy as np

from . import __version__
from .assumption_tests import TestReport
from .errors import DataError, ValidationError
from .estimation import EstimationResult
from .power import GridSpec, PowerTable, fork_width, forked as _forked
from .types import PanelDataset, Scenario, as_count


def _versioned(meta: dict | None) -> dict:
    """The meta record: version first, then the caller's keys in order."""
    return {"version": __version__, **(meta or {})}


# a line break in a meta value is escaped, so each entry stays one comment line
_ONE_LINE = str.maketrans({"\r": "\\r", "\n": "\\n"})


def _meta_lines(meta: dict | None) -> list[str]:
    return [f"# {k}: {str(v).translate(_ONE_LINE)}" for k, v in _versioned(meta).items()]


@contextmanager
def _atomic_open(path: str):
    """A binary handle on a temp file that replaces `path` when the block
    exits. Callers write UTF-8 bytes, so the locale never enters a file.

    The file gets the mode the target already has, or, for a new file, the
    mode open() gives: os.open creates it as 0o666, narrowed by the umask.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(6).hex()}~")
    # a new file only, as mkstemp opens it: no link followed, no newline translation
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    fd = os.open(tmp, flags | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as handle:
            yield handle
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:  # no target: the mode os.open gave stays
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text.encode())


# Block sizes for writing and reading long CSVs: they bound the memory that a
# write or a parse holds beyond its input or its result. A write block is
# sized by the bytes of its row matrix, so it is the same work whatever the
# number of columns.
_WRITE_BLOCK_BYTES = 1 << 20
_READ_BLOCK_CHARS = 1 << 19

# A long CSV of at least this many blocks is written or read in two halves,
# the second by a forked child. The fork and the copy-on-write faults it
# brings cost about 10 ms, which panel and TE CSVs alike win back from 5-6
# blocks on (ledgers D15, D16).
_SPLIT_MIN_BLOCKS = 6


def _split_pays(blocks: int) -> bool:
    """Whether a long CSV of `blocks` blocks is worth splitting with a child."""
    return blocks >= _SPLIT_MIN_BLOCKS and fork_width() > 1


def _csv_fields(labels) -> list[str]:
    """Each label as csv.writer writes it inside a row: quoted, its quotes
    doubled, where it holds a comma or a quote (a line break is refused)."""
    return [
        '"' + label.replace('"', '""') + '"' if "," in label or '"' in label else label
        for label in map(str, labels)
    ]


def _check_labels(unit_ids, period_ids) -> None:
    """Reject labels that would not read back: the reader takes one line as
    one row, a line whose first field starts with '#' as a comment, two
    labels of one text as one label, and only UTF-8 text."""
    for kind, labels in (("unit", unit_ids), ("period", period_ids)):
        seen = set()
        for label in map(str, labels):
            try:
                label.encode()
            except UnicodeEncodeError:
                raise ValidationError(
                    f"{kind} label {label!r} holds a lone surrogate, which UTF-8 cannot encode"
                ) from None
            if "\n" in label or "\r" in label:
                raise ValidationError(
                    f"{kind} label {label!r} contains a line break; "
                    "a CSV row must fit on one line"
                )
            if label in seen:
                raise ValidationError(
                    f"{kind} label {label!r} repeats; its rows would read back as one"
                )
            seen.add(label)
    for label in map(str, unit_ids):
        if label.lstrip().startswith("#"):
            raise ValidationError(
                f"unit label {label!r} starts with '#'; its rows would read back as comments"
            )


#: The byte that pads the writer's row matrices. Neither UTF-8 nor repr()
#: ever produces it, so the bytes that are not _FILL are the text.
_FILL = 0xFF


def _label_bytes(fields: list[str]) -> np.ndarray:
    """The fields as rows of UTF-8 bytes, padded with _FILL to one width."""
    encoded = [field.encode() for field in fields]
    width = max([1, *map(len, encoded)])
    padded = b"".join(field.ljust(width, bytes([_FILL])) for field in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width)


# _format_floats writes each value into a slot of six little-endian 64-bit
# words, where d0..d16 are its 17 significant digits:
#   [spare, "-0.000", d0] [d1..d8] [d9..d16] [".", 6 spare, d0] [d1..d8] [d9..d16]
# A table row holds _FILL in every byte of the slot that repr(value) does not
# show. It shows the sign, then "0." and up to three zeros when the
# decimal point comes first, the digits before the point from the first copy,
# the point, and the digits after it from the second copy.
_SLOT = 48
_U64 = np.uint64
_FRACTION = _U64((1 << 52) - 1)
_ONES = _U64(0x0101010101010101)
_ZEROS = _ONES * _U64(ord("0"))
#: 5**k for k = 0..22, exact: the formatter takes k <= 18, the parser k <= 22.
_POW5 = np.array([5**k for k in range(23)], _U64)


@functools.cache
def _format_tables() -> np.ndarray:
    """The slot of every (sign, decimal point position -3..15, digits shown
    0..17) as six words: the characters of "-0.000" and "." it shows, 0 in
    each digit it shows, and _FILL in the rest; built on first use."""
    negative, point, shown = np.ogrid[0:2, -3:16, 0:18]
    digit = np.arange(17)
    shows = np.zeros((2, 19, 18, _SLOT), bool)
    shows[..., 1] = negative == 1
    shows[..., 2:4] = (point <= 0)[..., None]
    shows[..., 4:7] = np.arange(3) < -point[..., None]
    shows[..., 7:24] = digit < point[..., None]
    shows[..., 24] = point >= 1
    shows[..., 31:48] = (digit >= np.maximum(point, 0)[..., None]) & (digit < shown[..., None])
    chars = np.frombuffer(b"\0-0.000".ljust(24, b"\0") + b".".ljust(24, b"\0"), np.uint8)
    return np.where(shows, chars, _FILL).view("<u8").reshape(-1, _SLOT // 8)


def _shortest_digits(a: np.ndarray):
    """The digits repr() gives each float `a` > 0, as a 17-digit integer (the
    digits, then zeros) and the decimal exponent e10 of the first digit, with
    a mask of the values the result is exact for.

    With a = m * 2**q, the nearest L-digit decimal to a is
    N_L * 10**-k with N_L = round(m * 5**k / 2**s), k = L-1-e10, s = -(k+q),
    and it reads back as a iff 2 * |N_L * 2**s - m * 5**k| < 5**k. For
    1e-4 <= a < 1e15 and m not a power of two, the first of L = 15, 16, 17
    whose N_L reads back gives repr's digits (ledger D11 in CHANGES.md). The
    mask is false where that N_L is a tie or does not have L digits.
    """
    bits = a.view(_U64)
    m = (bits & _FRACTION) | _U64(1 << 52)
    q = (bits >> _U64(52)).astype(np.int64) - 1075
    # a wrong e10 puts N_L outside [10**(L-1), 10**L), which the mask catches
    e10 = np.clip(np.floor(np.log10(a)), -4, 14).astype(np.int64)
    k = 14 - e10
    s = (-(k + q)).astype(_U64)  # 3..49
    p = _POW5[k]
    # m * 5**k < 2**96 as two words, from products of 32-bit halves
    low32 = _U64(0xFFFFFFFF)
    m_hi, m_lo, p_hi, p_lo = m >> _U64(32), m & low32, p >> _U64(32), p & low32
    middle = m_hi * p_lo + m_lo * p_hi
    low = m_lo * p_lo
    word0 = low + (middle << _U64(32))
    word1 = m_hi * p_hi + (middle >> _U64(32)) + (word0 < low)
    quotient = (word0 >> s) | (word1 << (_U64(64) - s))
    rest = word0 & ((_U64(1) << s) - _U64(1))
    found = []
    for step in range(3):  # L = 15, 16, 17
        if step:  # m * 5**(k+1) / 2**(s-1) = 10 * (quotient + rest / 2**s)
            rest = rest * _U64(5)
            s = s - _U64(1)
            quotient = quotient * _U64(10) + (rest >> s)
            rest = rest & ((_U64(1) << s) - _U64(1))
            p = p * _U64(5)
        half = _U64(1) << (s - _U64(1))
        twice = rest << _U64(1)
        # 2 * min(rest, 2**s - rest) < 5**k
        reads = (twice < p) | (twice + p > (half << _U64(2)))
        found.append((quotient + (rest > half), reads, rest == half))
    (n15, reads15, tie15), (n16, reads16, tie16), (n17, reads17, tie17) = found
    use16 = reads16 & ~reads15
    use17 = reads17 & ~(reads15 | reads16)
    # products with the masks select, where np.where would branch per element;
    # digits is 0, outside the range below, where no N_L reads back
    digits = n15 * _U64(100) * reads15 + n16 * _U64(10) * use16 + n17 * use17
    tie = (tie15 & reads15) | (tie16 & use16) | (tie17 & use17)
    exact = ~tie & (digits >= _U64(10**16)) & (digits < _U64(10**17))
    return np.where(exact, digits, _U64(10**16)), e10, exact


def _digit_lanes(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10**8, one per byte of a
    little-endian word, first digit first: the lanes split 8 -> 2x4 -> 4x2
    -> 8x1 digits."""
    high = v // _U64(10**4)
    v = high | ((v - high * _U64(10**4)) << _U64(32))
    high = ((v * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)  # lane // 100
    v = high | ((v - high * _U64(100)) << _U64(16))
    high = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # lane // 10
    return high | ((v - high * _U64(10)) << _U64(8))


def _format_floats(values: np.ndarray) -> np.ndarray:
    """repr() of each float, as (n, _SLOT) uint8 slots padded with _FILL:
    slots[i][slots[i] != _FILL] is repr(values[i]) byte for byte, and byte 0
    of each slot is always _FILL.

    Finite values with 1e-4 <= |x| < 1e15 and a mantissa that is not a power
    of two go through _shortest_digits, all at once; repr() formats the rest
    one by one: zero, subnormals, powers of two, non-finite values, values
    outside that range, and the kernel's ties and misses.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    direct = (a >= 1e-4) & (a < 1e15) & (x.view(_U64) & _FRACTION != 0)
    # the others get a stand-in from the domain, so the arithmetic stays in range
    digits, e10, exact = _shortest_digits(np.where(direct, a, 1.5))
    direct &= exact
    lead = digits // _U64(10**16)
    tail = digits - lead * _U64(10**16)
    high = tail // _U64(10**8)
    lanes = _digit_lanes(high), _digit_lanes(tail - high * _U64(10**8))
    # digits up to the last nonzero one: a 1 marks each nonzero lane, the
    # marks are copied into every lower lane, and a product sums the lanes
    marks = []
    for lane in lanes:
        mark = ((lane + _U64(0x7F7F7F7F7F7F7F7F)) >> _U64(7)) & _ONES
        for shift in (8, 16, 32):
            mark |= mark >> _U64(shift)
        marks.append(mark)
    marks[0] |= (marks[1] != 0) * _ONES
    shown = 1 + ((marks[0] + marks[1]) * _ONES >> _U64(56)).astype(np.int64)
    point = e10 + 1
    # at least one digit after the point
    shown = np.maximum(shown, point + 1, where=point >= 1, out=shown)
    # the table's row for (sign, point + 3, shown) in its (2, 19, 18) layout
    words = _format_tables().take(((x < 0) * 19 + point + 3) * 18 + shown, axis=0)
    digit_words = (lead + _U64(ord("0"))) << _U64(56), lanes[0] + _ZEROS, lanes[1] + _ZEROS
    for column, digit_word in enumerate(digit_words):  # into both copies of the digits
        words[:, column::3] |= digit_word[:, None]
    slots = words.view(np.uint8)
    by_repr = np.flatnonzero(~direct)
    texts = _label_bytes(list(map(repr, x[by_repr].tolist())))
    slots[by_repr] = _FILL
    slots[by_repr, 1 : 1 + texts.shape[1]] = texts  # repr() is at most 24 bytes
    return slots


def _write_long_csv(
    path: str, meta: dict | None, unit_ids, period_ids, columns: dict[str, np.ndarray]
) -> None:
    """One row per (unit, period), units outer; each column is an (N, T) array
    whose values are written as repr(float), one block of units at a time.

    A block's rows are laid out as one byte matrix (labels, value slots,
    commas, newlines) padded with _FILL; the other bytes are its text.
    When _split_pays, a forked child writes the second half of the blocks to
    a temporary file, which is copied in after the first half.
    """
    n, t = len(unit_ids), len(period_ids)
    values = []
    for name, column in columns.items():
        column = np.asarray(column, dtype=float)
        if column.shape != (n, t):
            raise ValidationError(f"column {name} has shape {column.shape}, not ({n}, {t})")
        values.append(column)
    _check_labels(unit_ids, period_ids)
    units = _label_bytes([field + "," for field in _csv_fields(unit_ids)])
    periods = _label_bytes(_csv_fields(period_ids))
    unit_width = units.shape[1]
    label_width = unit_width + periods.shape[1]
    value_width = len(values) * _SLOT
    width = label_width + value_width + 1  # each slot's spare byte 0 takes a comma
    block_units = max(1, _WRITE_BLOCK_BYTES // max(t * width, 1))
    starts = range(0, n, block_units)

    def write_blocks(sink, block_starts):
        # one row matrix serves every block; a short last block uses its
        # leading rows
        row_buffer = np.empty((min(block_units, n), t, width), np.uint8)
        for start in block_starts:
            stop = min(start + block_units, n)
            block = np.stack([column[start:stop] for column in values], axis=-1)
            rows = row_buffer[: stop - start]
            rows[..., :unit_width] = units[start:stop, None]
            rows[..., unit_width:label_width] = periods
            rows[..., label_width:-1] = _format_floats(block).reshape(*rows.shape[:2], value_width)
            rows[..., label_width:-1:_SLOT] = ord(",")
            rows[..., -1] = ord("\n")
            sink.write(rows[rows != _FILL])
        sink.flush()  # a forked child leaves through os._exit, which flushes nothing

    head = [*_meta_lines(meta), ",".join(["unit", "period", *columns]), ""]
    with _atomic_open(path) as handle:
        handle.write("\n".join(head).encode())
        if not _split_pays(len(starts)):
            write_blocks(handle, starts)
            return
        half = len(starts) // 2
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as rest:
            with _forked(lambda: write_blocks(rest, starts[half:])) as join:
                write_blocks(handle, starts[:half])
                join()
            rest.seek(0)
            shutil.copyfileobj(rest, handle)


# ---------------------------------------------------------------------------
# panel CSV


def write_panel_csv(panel: PanelDataset, path: str, meta: dict | None = None) -> None:
    """Long format: one row per (unit, period); y is written on the raw scale."""
    columns = {"y": np.exp(panel.log_output)}
    for prefix, block in (
        ("x", np.exp(panel.log_inputs)),
        ("w", panel.spatial),
        ("z", panel.covariates),
    ):
        for j in range(block.shape[2]):
            columns[f"{prefix}{j + 1}"] = block[..., j]
    _write_long_csv(path, meta, panel.unit_ids, panel.period_ids, columns)


_HEADER_RE = re.compile(r"^(x|w|z)(\d+)$")


def _parse_header(fields: list[str]) -> tuple[int, int, int]:
    if fields[:3] != ["unit", "period", "y"]:
        raise DataError(
            f"panel CSV must start with columns unit,period,y; got {fields[:3]}"
        )
    counts = {"x": 0, "w": 0, "z": 0}
    order = "xwz"
    seen_kind = 0
    for name in fields[3:]:
        match = _HEADER_RE.match(name)
        if not match:
            raise DataError(f"unknown column {name!r} in panel CSV header")
        kind, num = match.group(1), int(match.group(2))
        kind_pos = order.index(kind)
        if kind_pos < seen_kind:
            raise DataError(f"column {name!r} out of order; expected x*, then w*, then z*")
        seen_kind = kind_pos
        counts[kind] += 1
        if num != counts[kind]:
            raise DataError(
                f"column {name!r} out of order; expected {kind}{counts[kind]}"
            )
    if counts["x"] < 1 or counts["w"] < 1 or counts["z"] < 1:
        raise DataError(
            "panel CSV needs at least one x, one w, and one z column; "
            f"found P={counts['x']}, Q={counts['w']}, R={counts['z']}"
        )
    return counts["x"], counts["w"], counts["z"]


def _is_data(line: str) -> bool:
    """Whether a line is neither blank nor a comment, where a comment is a line
    whose first CSV field, less leading blanks, starts with '#'."""
    if line == "\n":
        return False
    if "#" not in line:
        return True
    head = line[1:] if line.startswith('"') else line
    return not head.lstrip().startswith("#")


def _loadtxt(lines, dtype) -> np.ndarray:
    if not lines:
        return np.empty(0, dtype)
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, dtype=dtype, ndmin=1)


def _parses(line: str, dtype) -> bool:
    """Whether loadtxt reads the line as one row that closes its quotes.

    loadtxt reads its lines as one stream, so a quoted field left open runs
    on into the next line; the line is therefore read twice over.
    """
    try:
        return len(_loadtxt([line, line], dtype)) == 2
    except ValueError:
        return False


# A plain block holds no byte below '$' but newlines and blanks in labels,
# so no '"', '#', CR, tab or NUL and no blank in a value, and a newline
# closes each of its lines after exactly width + 1 commas: every line is a
# data row whose fields lie between separators, as the writer lays them out.
# Its labels are kept byte for byte, blanks included, as np.loadtxt keeps
# them. _decimal_fields reads each value from the _WINDOW bytes that end at
# its separator.
_WINDOW = 24
_HIGHS = _ONES * _U64(0x80)


@functools.cache
def _parse_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks keep[j, x] of the bytes of window word j (window bytes
    8j..8j+7) at or above window byte x, x = 0..24; the multipliers that turn
    a flag in byte i of word j into 8j + i + 1; and 10.0**k for k = 0..22,
    all exact. Built on first use."""
    low = [
        [(1 << 8 * min(max(x - 8 * j, 0), 8)) - 1 for x in range(_WINDOW + 1)] for j in range(3)
    ]
    marks = [sum((8 * j + i + 1) << 8 * (7 - i) for i in range(8)) for j in range(3)]
    pow10 = np.array([float(10**k) for k in range(23)])
    return ~np.array(low, _U64), np.array(marks, _U64), pow10


def _unaligned_words(chars: np.ndarray) -> np.ndarray:
    """The little-endian 64-bit word that starts at each byte of `chars`."""
    return np.ndarray((len(chars) - 7,), "<u8", chars, strides=(1,))


def _decimal_fields(chars: np.ndarray, ends: np.ndarray, lengths: np.ndarray):
    """The digits N and the count k of digits after the point of each field
    chars[end - length:end] of the form [-]digits[.digits], with its sign and
    a mask of the fields of that form with at most 24 bytes, N < 10**19 and
    k <= 22. chars needs _WINDOW bytes before the first field.

    Each field is read as three words that end at its separator, with 0 in
    the bytes before its digits and the point taken out, so that the words
    hold 24 digits; SWAR lanes turn each word into an integer < 10**8.
    """
    keep, marks = _parse_tables()[:2]
    words = _unaligned_words(chars)
    negative = chars[ends - lengths] == ord("-")
    lead = _WINDOW - lengths + negative  # window bytes before the digits
    # digits become bytes 0..9 and the bytes before them 0; a flag marks each
    # byte above 15, as the point (0x1E) is
    window, point = [], 0
    for j, mark in enumerate(marks):
        word = (words[ends - (_WINDOW - 8 * j)] ^ _ZEROS) & keep[j].take(lead, mode="clip")
        window.append(word)
        flag = (word + _U64(0x7070707070707070)) & _HIGHS
        point = point + ((flag >> _U64(7)) * mark >> _U64(56))
    # one past the flagged byte, or 0 without a flag; a second flag leaves a
    # byte above 9 in the window, which the digit check below refuses
    point = np.minimum(point, _WINDOW).astype(np.intp)
    has_point = point > 0
    valid = (
        (lengths <= _WINDOW)
        & (lengths - negative > has_point)  # at least one digit
        & ((chars[ends - (_WINDOW + 1) + point] == ord(".")) | ~has_point)
        & (point != 1)  # 23 digits after the point
    )
    # the bytes below the point move up one, and a 0 comes in at byte 0
    below, spill = _U64(0), _U64(0)
    for j, word in enumerate(window):
        moved = word << _U64(8) | below
        below = word >> _U64(56)
        word = moved ^ (word ^ moved) & keep[j].take(point)
        spill = spill | word | (word + _U64(0x7676767676767676))  # 0x80 in a byte above 9
        v = word * _U64(10 << 8 | 1) >> _U64(8)
        v = (v & _U64(0x00FF00FF00FF00FF)) * _U64(100 << 16 | 1) >> _U64(16)
        window[j] = (v & _U64(0x0000FFFF0000FFFF)) * _U64(10**4 << 32 | 1) >> _U64(32)
    valid &= (spill & _HIGHS == 0) & (window[0] < 1000)  # N < 10**19
    n = (window[0] * _U64(10**8) + window[1]) * _U64(10**8) + window[2]
    return n, (_WINDOW - point) * (point > 1), negative, valid


def _nearest_doubles(n: np.ndarray, k: np.ndarray):
    """The bits of the double nearest to each N / 10**k, N < 10**19 and
    k <= 22, ties to even, and the mask of the ones found.

    c = fl(fl(N) / 10**k) is exact for N <= 2**53 (Clinger 1990) and within
    2 ulp of N / 10**k otherwise. Write c = m * 2**q and s = 1 - q - k. Then
        R = N * 2**max(s, 0) - 2m * 5**k * 2**max(-s, 0)
    is 2 (N / 10**k - c) / ulp(c) in units of H = 5**k * 2**max(-s, 0), the
    half ulp, so |R| <= 4H < 2**54 and R is exact in wrapping 64-bit
    integers. Moving m by round(R / 2H), ties to even m, gives the nearest
    double. A move out of c's binade or onto m = 2**52, where the rounding
    interval is not symmetric, is not found (ledger D13 in CHANGES.md).
    """
    pow10 = _parse_tables()[2]
    bits = (n.astype(float) / pow10.take(k)).view(np.int64)
    s = 1076 - (bits >> 52) - k
    p5 = _POW5.take(k)
    up, down = np.maximum(s, 0).astype(_U64), np.maximum(-s, 0).astype(_U64)
    half = (p5 << down).view(np.int64)
    twice_m = (bits & ((1 << 52) - 1) | (1 << 52)).view(_U64) << _U64(1)
    r = ((n << up) - (p5 * twice_m << down)).view(np.int64)
    big = n > _U64(1 << 53)
    steps = (r + half) // (2 * half) * big  # leaves R in [-H, H)
    steps -= (r - 2 * half * steps == -half) & ((bits + steps) & 1 == 1)  # ties to even
    fraction = (bits & ((1 << 52) - 1)) + steps
    return bits + steps, ~big | (fraction > 0) & (fraction < 1 << 52)


def _parse_floats(chars: np.ndarray, ends: np.ndarray, lengths: np.ndarray):
    """float() of each field chars[end - length:end] of the form
    [-]digits[.digits], with at most 24 bytes, 19 significant digits and 22
    digits after the point, all at once; and the mask of the fields it
    settles. chars needs _WINDOW bytes before the first field.
    """
    n, k, negative, settled = _decimal_fields(chars, ends, lengths)
    bits, found = _nearest_doubles(n, k)
    values = (bits.view(_U64) | negative.astype(_U64) << _U64(63)).view(float)
    return values, settled & found


def _label_codes(chars: np.ndarray, starts: np.ndarray, ends: np.ndarray, index: dict):
    """The index in `index` of each label chars[start:end], where a label seen
    for the first time is added; the labels are keyed by their words."""
    low = ~_parse_tables()[0][0]
    words = _unaligned_words(chars)
    lengths = ends - starts
    keys = np.empty((len(starts), max(1, -(-int(lengths.max(initial=0)) // 8))), _U64)
    for i in range(keys.shape[1]):
        # a label shorter than 8i bytes is masked out; its index stays in range
        word = words[np.minimum(starts + 8 * i, ends)]
        keys[:, i] = word & low.take(lengths - 8 * i, mode="clip")
    if keys.shape[1] > 1:  # numpy sorts integers faster than byte strings
        keys = keys.view(f"V{keys.itemsize * keys.shape[1]}")
    keys = keys.ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # first seen first
    texts = [
        chars[start:end].tobytes().decode("utf-8")
        for start, end in zip(starts[first[order]].tolist(), ends[first[order]].tolist())
    ]
    found = np.empty(len(texts), np.intp)
    found[order] = [index.setdefault(text, len(index)) for text in texts]
    return found[inverse]


def _plain_rows(text: str, width: int, labels: tuple[dict, dict]):
    """The (M, width) values and (2, M) label codes of the lines `text`, for
    a plain block; None for any other block, or where np.loadtxt refuses a
    field that _parse_floats leaves to it.
    """
    if not text.endswith("\n"):
        return None
    block = text.encode("utf-8")
    chars = np.zeros(_WINDOW + len(block) + 8, np.uint8)
    chars[_WINDOW:-8] = np.frombuffer(block, np.uint8)
    newlines = chars == ord("\n")
    rows = np.count_nonzero(newlines)
    separators = np.flatnonzero(newlines | (chars == ord(",")))
    if len(separators) != rows * (width + 2):
        return None
    low = np.count_nonzero(chars[_WINDOW:-8] < ord("$"))
    blanks = np.flatnonzero(chars == ord(" ")) if low != rows else np.empty(0, np.intp)
    if low != rows + len(blanks):
        return None
    separators = separators.reshape(rows, width + 2)
    if (chars[separators[:, -1]] != ord("\n")).any():
        return None
    # each blank must lie before the second comma of its line
    line_of = np.searchsorted(separators[:, -1], blanks)
    if (blanks > separators[line_of, 1]).any():
        return None
    ends = separators[:, 2:].ravel()
    lengths = ends - 1 - separators[:, 1:-1].ravel()
    values, settled = _parse_floats(chars, ends, lengths)
    left = np.flatnonzero(~settled)
    if len(left):
        fields = [
            chars[end - length : end].tobytes().decode("utf-8")
            for end, length in zip(ends[left].tolist(), lengths[left].tolist())
        ]
        if "" in fields:  # loadtxt would skip the blank line
            return None
        try:
            values[left] = _loadtxt([field + "\n" for field in fields], float)
        except ValueError:
            return None
    line_starts = np.concatenate([[_WINDOW], separators[:-1, -1] + 1])
    codes = np.stack([
        _label_codes(chars, line_starts, separators[:, 0], labels[0]),
        _label_codes(chars, separators[:, 0] + 1, separators[:, 1], labels[1]),
    ])
    return values.reshape(rows, width), codes


def _load_rows(handle, number: int, width: int):
    """Parse the data lines after file line `number`, one block of about
    _READ_BLOCK_CHARS characters at a time: a plain block with _parse_floats,
    any other with np.loadtxt.

    Returns the (M, width) values as a list of one array, the (2, M) unit
    and period index of each row, the unit and period labels in first-seen
    order, each row's file line number, the first (number, line) that
    loadtxt rejects, or None, and the number of the last line read. Parsing
    stops at a rejected line.
    """
    dtype = [("unit", object), ("period", object), ("values", float, (width,))]
    labels: tuple[dict, dict] = ({}, {})  # label -> index, in first-seen order
    values, codes = [np.empty((0, width))], [np.empty((2, 0), np.intp)]
    numbers = [np.empty(0, np.int64)]
    bad = None
    while bad is None and (text := handle.read(_READ_BLOCK_CHARS)):
        text += handle.readline()
        plain = _plain_rows(text, width, labels)
        if plain is not None:
            values.append(plain[0])
            codes.append(plain[1])
            numbers.append(np.arange(number + 1, number + 1 + len(plain[0])))
            number += len(plain[0])
            continue
        chunk = StringIO(text).readlines()
        keep = [i for i, line in enumerate(chunk) if _is_data(line)]
        lines = [chunk[i] for i in keep]
        block_numbers = np.array(keep, dtype=np.int64) + (number + 1)
        number += len(chunk)
        try:
            rows = _loadtxt(lines, dtype)
        except ValueError:
            rows = None
        if rows is None or len(rows) != len(lines):
            k = next(i for i, line in enumerate(lines) if not _parses(line, dtype))
            bad = int(block_numbers[k]), lines[k]
            block_numbers, rows = block_numbers[:k], _loadtxt(lines[:k], dtype)
        numbers.append(block_numbers)
        values.append(rows["values"])
        block_codes = np.empty((2, len(rows)), np.intp)
        for index, column, out in zip(labels, ("unit", "period"), block_codes):
            found = rows[column].tolist()
            for label in dict.fromkeys(found):
                index.setdefault(label, len(index))
            out[:] = np.fromiter(map(index.__getitem__, found), np.intp, len(found))
        codes.append(block_codes)
    units, periods = map(tuple, labels)
    return (
        [np.concatenate(values)],
        np.hstack(codes),
        units,
        periods,
        np.concatenate(numbers),
        bad,
        number,
    )


def _joined(head, tail):
    """One _load_rows result from the results of two consecutive parts of a
    file, the second numbered from its own start: the tail's labels join the
    head's in first-seen order, and its codes and line numbers follow. The
    values stay in their parts, so they are not copied here."""
    values, codes, units, periods, numbers, _, lines = head
    tail_values, tail_codes, tail_units, tail_periods, tail_numbers, bad, tail_lines = tail
    labels, remapped = [], np.empty_like(tail_codes)
    for own, theirs, out, row in zip(
        (units, periods), (tail_units, tail_periods), remapped, tail_codes
    ):
        index = dict(zip(own, range(len(own))))
        found = [index.setdefault(label, len(index)) for label in theirs]
        out[:] = np.array(found, np.intp)[row]
        labels.append(tuple(index))
    return (
        values + tail_values,
        np.hstack([codes, remapped]),
        *labels,
        np.concatenate([numbers, tail_numbers + lines]),
        None if bad is None else (lines + bad[0], bad[1]),
        lines + tail_lines,
    )


class _ByteRange(RawIOBase):
    """The bytes start..stop of a file, as a raw stream; stop None is the end."""

    def __init__(self, path: str, start: int, stop: int | None):
        super().__init__()
        self._file = open(path, "rb", buffering=0)
        if start:  # a pipe cannot seek, even to 0
            self._file.seek(start)
        self._left = sys.maxsize if stop is None else stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        got = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= got
        return got

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_range(path: str, start: int, stop: int | None, encoding: str) -> TextIOWrapper:
    """A text handle, with universal newlines, on the bytes start..stop."""
    return TextIOWrapper(BufferedReader(_ByteRange(path, start, stop)), encoding=encoding)


def _middle_line_start(path: str, size: int) -> int | None:
    """The offset just after the first newline at or past the middle byte,
    or None when no line starts there. A CR-only line end is not searched
    for, so that a CR LF pair never straddles the offset."""
    with open(path, "rb") as handle:
        handle.seek(size // 2)
        while chunk := handle.read(1 << 16):
            at = chunk.find(b"\n")
            if at >= 0:
                start = handle.tell() - len(chunk) + at + 1
                return start if start < size else None
    return None


def _load_file(path: str, read_header, split: int | None):
    """The header's value count and the _load_rows result of the whole file.

    With a split offset, this process parses the rows before it and a forked
    child those after it, unless the header lies past it.
    """
    with _open_range(path, 0, split, "utf-8-sig") as handle:
        for number, line in enumerate(handle, start=1):
            if _is_data(line):
                break
        else:
            if split is not None:  # only comments and blanks before the split
                return _load_file(path, read_header, None)
            raise DataError(f"{path}: no header row found")
        width = read_header(next(csv.reader([line])))
        if split is None:
            return width, _load_rows(handle, number, width)

        def load_tail():
            with _open_range(path, split, None, "utf-8") as tail:
                return _load_rows(tail, 0, width)

        with _forked(load_tail) as join:
            head = _load_rows(handle, number, width)
            if head[5] is not None:  # a single pass would stop at this line
                return width, head
            return width, _joined(head, join())


def _malformed(line: str, width: int) -> str:
    """The error for a data line that np.loadtxt rejects, worded as float() words it."""
    reader = csv.reader([line, "\n"])
    fields = next(reader)
    if reader.line_num > 1:
        return "quoted field not closed on its line; a field may not span lines"
    if len(fields) != 2 + width:
        return f"expected {2 + width} fields, got {len(fields)}"
    # each value alone, quoted so that loadtxt reads exactly the field's text
    field = next(v for v in fields[2:] if not _parses('"' + v.replace('"', '""') + '"', float))
    return f"malformed number: could not convert string to float: {field!r}"


def _not_utf8(path: str, err: UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: not UTF-8 text: {err.reason} {err.object[err.start:err.end]!r}")


def _read_long_csv(path: str, what: str, read_header, row_checks, duplicate):
    """Parse a long CSV into an (N, T, width) array plus unit and period labels.

    Units and periods keep the order in which they first appear, so rows may
    come in any order. `read_header(fields)` validates the header and returns
    the number of value columns. `row_checks(values)` gives (mask, describe)
    pairs in the order a row is checked, where `describe(row)` words the
    error; `duplicate(unit, period)` words the duplicate-cell error. An error
    names the file line of the first row that fails any check.
    """
    size = os.path.getsize(path)
    split = _middle_line_start(path, size) if _split_pays(-(-size // _READ_BLOCK_CHARS)) else None
    try:
        width, rows = _load_file(path, read_header, split)
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from err
    parts, codes, units, periods, numbers, bad, _ = rows
    n, t = len(units), len(periods)
    cell = codes[0] * t + codes[1]
    index = np.arange(len(cell))
    first = np.full(n * t, -1)
    first[cell[::-1]] = index[::-1]  # the last write wins: each cell's first row
    repeated = first[cell] != index
    table = np.empty((n, t, width))
    start = 0
    for values in parts:  # in row order, so the first failing part has the first bad row
        span = slice(start, start + len(values))
        checks = [*row_checks(values), (repeated[span], lambda i: duplicate(
            units[codes[0, start + i]], periods[codes[1, start + i]]))]
        failing = np.array([mask for mask, _ in checks])
        if failing.any():
            row = int(failing.any(axis=0).argmax())
            describe = checks[int(failing[:, row].argmax())][1]
            raise DataError(f"row {numbers[start + row]}: {describe(row)}")
        table.reshape(n * t, width)[cell[span]] = values
        start = span.stop
    if bad is not None:
        raise DataError(f"row {bad[0]}: {_malformed(bad[1], width)}")
    if (first < 0).any():
        i, j = divmod(int((first < 0).argmax()), t)
        raise DataError(
            f"unbalanced {what}: missing cell (unit {units[i]}, period {periods[j]})"
        )
    return table, units, periods


def read_panel_csv(path: str) -> PanelDataset:
    """Parse and validate a long-format panel CSV; y and the inputs are
    converted to logs by one np.log over their columns.

    Units and periods keep the order in which they first appear; the rows
    may come in any order.
    """
    p = q = r = 0

    def read_header(fields):
        nonlocal p, q, r
        p, q, r = _parse_header(fields)
        return 1 + p + q + r

    def row_checks(values):
        def positive(j, name, got=""):
            return values[:, j] <= 0, lambda i: (
                f"{name} must be positive to take logs, got {got}{float(values[i, j])!r}"
            )

        return [
            (~np.isfinite(values).all(axis=1), lambda i: "non-finite value"),
            positive(0, "output", "y="),
            *(positive(j, f"input x{j}") for j in range(1, 1 + p)),
        ]

    table, units, periods = _read_long_csv(
        path,
        "panel",
        read_header,
        row_checks,
        lambda unit, period: f"duplicate cell (unit {unit}, period {period})",
    )
    logs = np.log(table[..., : 1 + p])
    return PanelDataset(
        log_output=logs[..., 0],
        log_inputs=logs[..., 1:],
        spatial=table[..., 1 + p : 1 + p + q],
        covariates=table[..., 1 + p + q :],
        unit_ids=units,
        period_ids=periods,
    )


# ---------------------------------------------------------------------------
# TE CSV


def write_te_csv(
    te: np.ndarray, unit_ids, period_ids, path: str, meta: dict | None = None
) -> None:
    _write_long_csv(path, meta, unit_ids, period_ids, {"te": te})


def read_te_csv(path: str) -> tuple[np.ndarray, tuple, tuple]:
    """Read a TE CSV back into an (N, T) matrix plus its labels.

    Units and periods keep the order in which they first appear.
    """

    def read_header(fields):
        if fields != ["unit", "period", "te"]:
            raise DataError(f"TE CSV must have header unit,period,te; got {fields}")
        return 1

    table, units, periods = _read_long_csv(
        path,
        "TE matrix",
        read_header,
        lambda values: [],
        lambda unit, period: f"duplicate cell {(unit, period)}",
    )
    return table[..., 0], units, periods


# ---------------------------------------------------------------------------
# scenario / grid JSON


_TYPE_WORDS = {int: "an integer", float: "a number"}


@functools.cache
def _fields(cls) -> dict:
    """Each field of the dataclass `cls` as (annotation, item type of a tuple
    or None), resolved once per class."""
    return {
        name: (hint, typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else None)
        for name, hint in typing.get_type_hints(cls).items()
    }


def _cast(value, cast, name: str):
    """`value` as an int or a float, or a DataError that names the field.

    A string is converted as int() or float() converts it. Any other value
    due as an int follows types.as_count, which refuses a bool and a float
    with a fraction; a bool is refused as a float too. So `7`, `7.0` and
    `"7"` read as 7 in every integer field.
    """
    try:
        if isinstance(value, str):
            return cast(value)
        if cast is int:
            return as_count(value, name)
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError, ValidationError):
        pass
    raise DataError(f"{name} must be {_TYPE_WORDS[cast]}, got {value!r}")


def _from_json(cls, data, what: str, prefix: str = ""):
    """The dataclass `cls` built from the JSON object `data`, each field read
    by its annotation.

    An int or a float field goes through _cast. A tuple field must be a JSON
    list, and each item is cast by the tuple's item type (a str item by
    str()). A dataclass field is read by this function under the key's
    prefix, and null gives its default. Any other field is passed as it is.
    Absent keys take the dataclass defaults; unknown keys are one DataError
    that names `what`. The values are checked by cls.__post_init__ alone.
    """
    if not isinstance(data, dict):
        raise DataError(f"{what} must be an object, got {data!r}")
    fields = _fields(cls)
    if not fields.keys() >= data.keys():
        raise DataError(f"unknown {what} fields: {sorted(data.keys() - fields.keys())}")
    kwargs = {}
    for name, value in data.items():
        label, (hint, item) = prefix + name, fields[name]
        if item is not None:
            if not isinstance(value, list):
                raise DataError(f"{label} must be a list, got {value!r}")
            value = tuple(
                str(v) if item is str else _cast(v, item, f"{label}[{i}]")
                for i, v in enumerate(value)
            )
        elif hint in _TYPE_WORDS:
            value = _cast(value, hint, label)
        elif is_dataclass(hint):
            if value is None:
                continue
            value = _from_json(hint, value, label, label + ".")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as err:
        raise DataError(f"bad {what} JSON: {err}") from err


def _read_json(path: str, cls, what: str):
    """The `cls` that the JSON file at `path` describes; its "meta" is dropped.
    A leading UTF-8 BOM is skipped, as the CSV readers skip it."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise DataError(f"{path}: invalid JSON: {err}") from err
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err) from err
    if not isinstance(data, dict):
        raise DataError(f"{path}: {what} JSON must be an object")
    data.pop("meta", None)
    return _from_json(cls, data, what)


def read_scenario_json(path: str) -> Scenario:
    return _read_json(path, Scenario, "scenario")


def write_scenario_json(scenario: Scenario, path: str, meta: dict | None = None) -> None:
    head = {} if meta is None else {"meta": _versioned(meta)}
    write_json({**head, **asdict(scenario)}, path)


def read_grid_json(path: str) -> GridSpec:
    return _read_json(path, GridSpec, "grid")


# ---------------------------------------------------------------------------
# reports


def estimation_report_dict(result: EstimationResult, meta: dict | None = None) -> dict:
    frontier = result.frontier
    return {
        "meta": _versioned(meta),
        "beta0_hat": frontier.beta0_hat,
        "beta_hat": list(frontier.beta_hat),
        "rho_hat": frontier.rho_hat,
        "gamma_hat": list(result.gamma_hat),
        "phi_hat": list(result.phi_hat),
        "iterations": frontier.iterations,
        "converged": frontier.converged,
        "clamp_count": result.clamp_count,
        "clamp_fraction": result.clamp_fraction,
        "clamp_flagged": result.clamp_flagged,
    }


def test_report_dict(report: TestReport, meta: dict | None = None) -> dict:
    return {
        "meta": _versioned(meta),
        "test_kind": report.test_kind,
        "reference_value": report.reference_value,
        "n_failing": report.n_failing,
        "reject": report.reject,
        "decision_rule": report.decision_rule,
        "alpha": report.alpha,
        "blocks": [
            {
                "label": str(label),
                "estimate": est,
                "interval": [lo, hi],
                "excludes_reference": bool(
                    report.reference_value < lo or report.reference_value > hi
                ),
            }
            for label, est, (lo, hi) in zip(
                report.block_labels, report.per_block_estimate, report.per_block_interval
            )
        ],
    }


def write_json(payload: dict, path: str) -> None:
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def write_power_csv(table: PowerTable, path: str, meta: dict | None = None) -> None:
    lines = _meta_lines(meta) + table.csv_rows()
    _atomic_write(path, "\n".join(lines) + "\n")
