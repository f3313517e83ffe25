"""Packet-event data model and its plain-text trace format.

A trace is one bidirectional TCP flow capture.  The file format is CSV:

    #capture=client,transfer=download,bytes=1000
    ts,dir,seq,ack,len,syn,fin,rst,ack_flag,win,sack_cnt
    0.000125,c2s,17,0,1448,0,0,0,1,65535,0

Timestamps are seconds relative to the first packet, written with at
least six fractional digits and enough precision to round-trip exactly.

The reader's cell grammar: `ts` is any text Python's `float()` reads
whose value is finite and non-negative; `seq`, `ack`, `len`, `win` and
`sack_cnt` are any text `int()` reads in base 10, in [0, 2^32); `dir` is
exactly `c2s` or `s2c`, and each flag exactly `0` or `1`.  So surrounding
whitespace, a sign, leading zeros, `_` between digits and non-ASCII
digits are read in a number cell, but `" 1"`, `"01"` and `"+1"` are not
flags.  A body is parsed whole by numpy's C reader, which reads the ASCII
forms of the numbers; where it refuses the rows (a `_`, a non-ASCII
digit, a malformed row, a NUL byte), the cells are converted one by one,
which reads the rest of the grammar and names the first bad row.  Both
paths give identical columns and check the values once, on the columns.

In memory a trace holds its packets as numpy columns (`PacketColumns`),
one per `PacketEvent` field.  `IntervalSet` is the set of sequence-space
intervals that the simulator and the extractor both keep.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadHeader, EmptyTrace, MalformedRow
from .preprocess import read_text, write_text

SEQ_MOD = 1 << 32


class Direction(enum.Enum):
    CLIENT_TO_SERVER = "c2s"
    SERVER_TO_CLIENT = "s2c"


# Direction of each code in the `dir` column.
DIRECTIONS = (Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT)
_CODES = {d: code for code, d in enumerate(DIRECTIONS)}


def direction_codes(directions) -> np.ndarray:
    """The `dir` column of a sequence of `Direction`s."""
    return np.fromiter(map(_CODES.__getitem__, directions), np.int8)


class CapturePoint(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class TransferDirection(enum.Enum):
    DOWNLOAD = "download"
    UPLOAD = "upload"


@dataclass(frozen=True, slots=True)
class PacketEvent:
    """One captured TCP packet.

    Every integer field is a 32-bit unsigned value, which keeps the
    integer sums over a trace exact in 64-bit columns.
    """

    ts: float
    dir: Direction
    seq: int
    ack: int
    payload_len: int
    syn: bool = False
    fin: bool = False
    rst: bool = False
    ack_flag: bool = False
    win: int = 0
    sack_cnt: int = 0

    def __post_init__(self):
        if not 0 <= self.ts < math.inf:
            raise ValueError(f"timestamp {self.ts} is not finite and non-negative")
        if not (0 <= self.seq < SEQ_MOD and 0 <= self.ack < SEQ_MOD):
            raise ValueError("seq/ack outside 32-bit range")
        if not (0 <= self.payload_len < SEQ_MOD and 0 <= self.win < SEQ_MOD and 0 <= self.sack_cnt < SEQ_MOD):
            raise ValueError("payload_len, win or sack_cnt outside 32-bit range")


FIELDS = tuple(f.name for f in dataclasses.fields(PacketEvent))
_DTYPES = (np.float64, np.int8, np.int64, np.int64, np.int64, bool, bool, bool, bool, np.int64, np.int64)


class PacketColumns:
    """The packets of one trace as read-only numpy columns, one per
    `PacketEvent` field in the same order; `dir` holds the index into
    `DIRECTIONS`.  Indexing and iteration build `PacketEvent`s on demand,
    and equality compares the columns.
    """

    __slots__ = FIELDS

    def __init__(self, ts, dir, seq, ack, payload_len, syn, fin, rst, ack_flag, win, sack_cnt):
        columns = (ts, dir, seq, ack, payload_len, syn, fin, rst, ack_flag, win, sack_cnt)
        n = len(ts)
        for name, dtype, values in zip(FIELDS, _DTYPES, columns):
            col = np.asarray(values, dtype=dtype)
            if col.shape != (n,):
                raise ValueError(f"column {name!r} has shape {col.shape}, expected ({n},)")
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def from_events(cls, events) -> PacketColumns:
        rows = [
            (e.ts, _CODES[e.dir], e.seq, e.ack, e.payload_len,
             e.syn, e.fin, e.rst, e.ack_flag, e.win, e.sack_cnt)
            for e in events
        ]
        return cls(*(zip(*rows) if rows else [()] * len(FIELDS)))

    def __setattr__(self, name, value):
        raise AttributeError("PacketColumns is read-only")

    def is_dir(self, direction: Direction) -> np.ndarray:
        """Mask of the packets travelling in `direction`."""
        return self.dir == _CODES[direction]

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i) -> PacketEvent:
        i = operator.index(i)
        return _event(*(getattr(self, name)[i].item() for name in FIELDS))

    def __iter__(self):
        return itertools.starmap(_event, zip(*(getattr(self, name).tolist() for name in FIELDS)))

    def __eq__(self, other):
        if not isinstance(other, PacketColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in FIELDS)

    __hash__ = None

    def __repr__(self) -> str:
        return f"PacketColumns(<{len(self)} packets>)"


def _event(ts, dir, *rest) -> PacketEvent:
    return PacketEvent(ts, DIRECTIONS[dir], *rest)


@dataclass(frozen=True)
class TraceRecord:
    """An ordered bidirectional flow capture.

    `events` may be given as a sequence of `PacketEvent`s; it is stored
    as `PacketColumns`.
    """

    capture_point: CapturePoint
    direction_of_transfer: TransferDirection
    events: PacketColumns
    declared_transfer_bytes: int

    def __post_init__(self):
        if self.declared_transfer_bytes <= 0:
            raise ValueError("declared_transfer_bytes must be positive")
        if not isinstance(self.events, PacketColumns):
            object.__setattr__(self, "events", PacketColumns.from_events(self.events))

    def data_direction(self) -> Direction:
        """Direction the transferred payload travels."""
        if self.direction_of_transfer is TransferDirection.DOWNLOAD:
            return Direction.SERVER_TO_CLIENT
        return Direction.CLIENT_TO_SERVER

    def capture_outbound(self) -> Direction:
        """Direction of packets originating at the capture point."""
        if self.capture_point is CapturePoint.CLIENT:
            return Direction.CLIENT_TO_SERVER
        return Direction.SERVER_TO_CLIENT


@dataclass(frozen=True)
class TracePair:
    """The two captures collected for one diagnostic episode."""

    download: TraceRecord
    upload: TraceRecord

    def __post_init__(self):
        for role, record, capture, transfer in (
            ("download", self.download, CapturePoint.CLIENT, TransferDirection.DOWNLOAD),
            ("upload", self.upload, CapturePoint.SERVER, TransferDirection.UPLOAD),
        ):
            if record.capture_point is not capture or record.direction_of_transfer is not transfer:
                raise ValueError(
                    f"the {role} trace must be a {transfer.value} captured at the {capture.value}, "
                    f"got a {record.direction_of_transfer.value} captured at the {record.capture_point.value}"
                )


class IntervalSet:
    """Disjoint sorted half-open intervals of sequence space.

    `add` merges an interval with every interval it overlaps or touches,
    so a gap separates neighbours.  Each interval keeps the stamp of the
    last add merged into it, which orders `recent`.  `starts` and `ends`
    hold the bounds, lowest first, for reading only; `starts` is empty
    when the set is, a test that costs no method call.
    """

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stamps: list[int] = []
        self._clock = 0
        self.max_end: int | None = None  # the highest end added so far

    def __iter__(self):
        """The intervals as (start, end), lowest first."""
        return zip(self.starts, self.ends)

    def add(self, s: int, e: int) -> int:
        """Merge [s, e); return the number of bytes already covered."""
        if e <= s:
            return 0
        self._clock += 1
        starts, ends = self.starts, self.ends
        if ends and s >= ends[-1]:  # at or past the end: the in-order case
            if s == ends[-1]:
                ends[-1] = e
                self._stamps[-1] = self._clock
            else:
                starts.append(s)
                ends.append(e)
                self._stamps.append(self._clock)
            self.max_end = e
            return 0
        i = bisect.bisect_right(starts, s) - 1
        if i < 0 or ends[i] < s:
            i += 1
        overlap = 0
        j = i
        while j < len(starts) and starts[j] <= e:
            overlap += max(0, min(e, ends[j]) - max(s, starts[j]))
            j += 1
        if j > i:
            s, e = min(s, starts[i]), max(e, ends[j - 1])
        starts[i:j] = [s]
        ends[i:j] = [e]
        self._stamps[i:j] = [self._clock]
        self.max_end = e if self.max_end is None else max(self.max_end, e)
        return overlap

    def covers(self, s: int, e: int) -> bool:
        """Whether one interval holds all of [s, e)."""
        i = bisect.bisect_right(self.starts, s) - 1
        return i >= 0 and e <= self.ends[i]

    def pop_through(self, point: int) -> int:
        """Drop the leading intervals that start at or before point; return
        point moved to the end of the last one dropped, if that is higher."""
        i = bisect.bisect_right(self.starts, point)
        if i:
            point = max(point, self.ends[i - 1])
            del self.starts[:i], self.ends[:i], self._stamps[:i]
        return point

    def recent(self, k: int) -> list[tuple[int, int]]:
        """The k intervals most recently added to, as (start, end), the
        most recent first."""
        newest = sorted(zip(self._stamps, self.starts, self.ends), reverse=True)[:k]
        return [(s, e) for _, s, e in newest]


_COLUMNS = ["ts", "dir", "seq", "ack", "len", "syn", "fin", "rst", "ack_flag", "win", "sack_cnt"]
_INT_COLUMNS = (2, 3, 4, 9, 10)
_WORD_COLUMNS = (1, 5, 6, 7, 8)  # dir and the four flags
# The two words of each word column; the second reads as 1 (s2c, a set flag).
_WORDS = (("c2s", "s2c"),) + (("0", "1"),) * 4
# A body row as numpy's C reader parses it, its columns in the order
# _INT_COLUMNS, ts, _WORD_COLUMNS.  A word is kept as its first four bytes,
# so a longer cell cut short never equals one.
_ROW_DTYPE = np.dtype([("ints", "i8", len(_INT_COLUMNS)), ("ts", "f8"), ("words", "S4", len(_WORD_COLUMNS))])
# The words as the reader's four-byte cells read as integers, to compare.
_ZEROS, _ONES = (np.array(words, "S4").view(np.uint32) for words in zip(*_WORDS))
# The cells of the four flag columns, indexed by 8*syn + 4*fin + 2*rst + ack_flag.
_FLAG_CELLS = tuple(",".join(str(code >> bit & 1) for bit in (3, 2, 1, 0)) for code in range(16))
# ts, dir, seq, ack, len, the flag cells, win, sack_cnt
_ROW_FORMAT = "%s,%s,%s,%s,%s,%s,%s,%s\n"


def _format_ts(ts: float) -> str:
    """Fixed-point ts with at least six fraction digits that parses back exactly.

    A fixed-notation repr(ts) is the shortest round-trip string.  With
    six or more fraction digits it is also the correctly rounded string
    of that length, which the search would return first: the nearest
    string of a length round-trips whenever any does (the rounding
    interval is symmetric except at powers of two, which print exactly).
    """
    r = repr(ts)
    dot = r.find(".")
    if dot >= 0 and "e" not in r and len(r) - dot > 6:
        return r
    for digits in range(6, 18):
        s = f"{ts:.{digits}f}"
        if float(s) == ts:
            return s
    return r


def _first_unparsable(cells: list[str], dtype) -> int:
    for i, cell in enumerate(cells):
        try:
            np.array(cell, dtype=dtype)
        except (ValueError, OverflowError):
            return i
    raise AssertionError("column converted in bulk but no cell fails alone")


def _bulk_table(rows: list[str]) -> np.ndarray | None:
    """The rows as numpy's C reader parses them, or None where it refuses."""
    joined = "".join(rows)
    # The S type drops NUL bytes.  usecols refuses a row with fewer than
    # eleven cells but drops the cells past them, so the rows hold exactly
    # ten commas each only if they hold ten times as many in all.
    if "\0" in joined or joined.count(",") != (len(_COLUMNS) - 1) * len(rows):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.23 reads an integer cell such as 2.7 through float,
            # with only a DeprecationWarning.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                rows, dtype=_ROW_DTYPE, delimiter=",", comments=None, quotechar=None,
                usecols=_INT_COLUMNS + (0,) + _WORD_COLUMNS, ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    return table if len(table) == len(rows) else None  # it skips lines it reads as blank


def _cell_table(rows: list[str], bad: list) -> np.ndarray:
    """The rows converted cell by cell into `_bulk_table`'s layout, where a
    cell that is not one of its column's words reads b"".  Faults are
    appended to bad as (row, column, reason): the first row of the wrong
    width, which is left out with the rows after it, and the first cell of
    each number column that does not convert, from which on its column
    reads 0; the cells before it keep their values for the range check."""
    width = len(_COLUMNS)
    commas = list(map(str.count, rows, itertools.repeat(",", len(rows))))
    if commas.count(width - 1) != len(rows):
        k = next(i for i, c in enumerate(commas) if c != width - 1)
        bad.append((k, -1, f"expected {width} columns, got {commas[k] + 1}"))
        rows = rows[:k]  # the rows before it may hold an earlier fault
    cells = ",".join(rows).split(",") if rows else []
    text = [cells[c::width] for c in range(width)]
    table = np.zeros(len(rows), _ROW_DTYPE)
    for i, (c, words) in enumerate(zip(_WORD_COLUMNS, _WORDS)):
        table["words"][:, i] = [cell if cell in words else "" for cell in text[c]]
    numbers = [(0, table["ts"], np.float64, "number")]
    numbers += [(c, table["ints"][:, i], np.int64, "integer") for i, c in enumerate(_INT_COLUMNS)]
    for c, column, dtype, kind in numbers:
        try:
            column[:] = np.array(text[c], dtype=dtype)
        except (ValueError, OverflowError):
            k = _first_unparsable(text[c], dtype)
            column[:k] = np.array(text[c][:k], dtype=dtype)
            bad.append((k, c, f"{_COLUMNS[c]} {text[c][k]!r} is not a 64-bit {kind}"))
    return table


def _parse_rows(rows: list[str]) -> tuple[PacketColumns, list[int]]:
    """Columns of the body rows, validated all at once and sorted by ts,
    and the indices into rows of packets with payload on a syn/fin/rst.

    Raises MalformedRow(k, reason) for the first bad row, where k is the
    0-based index into rows; within a row, the leftmost bad field counts.
    """
    bad: list[tuple[int, int, str]] = []  # (row, column, reason); the least wins
    table = _bulk_table(rows)
    if table is None:
        table = _cell_table(rows, bad)
    ts, ints = table["ts"], table["ints"]
    cells = table["words"].view(np.uint32)
    ones = cells == _ONES
    for columns, fault, reasons in (
        ((0,), ~(np.isfinite(ts) & (ts >= 0)), ["is not finite and non-negative"]),
        (_INT_COLUMNS, ints >> 32 != 0, ["is outside [0, 2^32)"] * len(_INT_COLUMNS)),
        (_WORD_COLUMNS, ~ones & (cells != _ZEROS), [f"is not one of {words}" for words in _WORDS]),
    ):
        hits = np.flatnonzero(fault)  # row-major: the first row, then its leftmost column
        if hits.size:
            k, i = divmod(int(hits[0]), len(columns))
            c = columns[i]
            bad.append((k, c, f"{_COLUMNS[c]} {rows[k].split(',')[c]!r} {reasons[i]}"))
    if bad:
        k, _, reason = min(bad)
        raise MalformedRow(k, reason)
    payload_on_control = np.flatnonzero((ints[:, 2] > 0) & ones[:, 1:4].any(axis=1))
    order = np.argsort(ts, kind="stable")  # ties keep file order
    seq, ack, length, win, sack_cnt = np.take(ints.T, order, axis=1)
    dir, syn, fin, rst, ack_flag = np.take(ones.T, order, axis=1)
    events = PacketColumns(ts[order], dir, seq, ack, length, syn, fin, rst, ack_flag, win, sack_cnt)
    return events, payload_on_control.tolist()


def read_trace(path) -> TraceRecord:
    """Parse a trace file; events are sorted by ts (stable on ties).

    The body follows the cell grammar of the module docstring.  numpy's C
    reader parses it whole; where it refuses (a cell only float() or int()
    reads, a malformed row, a NUL byte), the cells are converted one by
    one, which reads the rest of the grammar or names the first bad row.
    Both give identical columns.
    """
    lines = read_text(path, newline="").split("\n")
    if not lines or not lines[0].startswith("#"):
        raise BadHeader(f"{path}: missing metadata line")
    meta = {}
    for part in lines[0][1:].strip().split(","):
        if "=" not in part:
            raise BadHeader(f"{path}: bad metadata field {part!r}")
        key, value = part.split("=", 1)
        meta[key.strip()] = value.strip()
    for key in ("capture", "transfer", "bytes"):
        if key not in meta:
            raise BadHeader(f"{path}: metadata missing {key!r}")
    try:
        capture = CapturePoint(meta["capture"])
        transfer = TransferDirection(meta["transfer"])
        declared = int(meta["bytes"])
    except ValueError as exc:
        raise BadHeader(f"{path}: {exc}") from exc

    if len(lines) < 2 or [c.strip() for c in lines[1].split(",")] != _COLUMNS:
        raise BadHeader(f"{path}: missing or wrong column header")

    # Row numbers count every body line from 1; blank lines are skipped.
    rows = lines[2:-1] if lines[-1] == "" else lines[2:]  # "" follows the last line end
    numbers = range(1, len(rows) + 1)
    if "" in rows or "\r" in rows:
        numbers = [i for i, line in enumerate(rows, start=1) if line and line != "\r"]
        rows = [rows[i - 1] for i in numbers]
    if not rows:
        raise EmptyTrace(f"{path}: no event rows")
    try:
        events, payload_on_control = _parse_rows(rows)
    except MalformedRow as exc:
        raise MalformedRow(numbers[exc.row_index], f"{path}: {exc.reason}") from None
    for k in payload_on_control:
        warnings.warn(f"{path}: row {numbers[k]} carries payload on a syn/fin/rst packet")
    try:
        return TraceRecord(
            capture_point=capture,
            direction_of_transfer=transfer,
            events=events,
            declared_transfer_bytes=declared,
        )
    except ValueError as exc:
        raise BadHeader(f"{path}: {exc}") from exc


def write_trace(trace: TraceRecord, path) -> None:
    """Write a trace; read_trace(write_trace(t)) reproduces t exactly."""
    ev = trace.events
    if not ev:
        raise EmptyTrace("refusing to write a trace with no events")
    # %s of a float is its repr, which is _format_ts's answer unless it has
    # an exponent (ts < 1e-4 or ts >= 1e16) or at most five fraction digits.
    # Below 1e4 the latter puts ts * 1e5 within 1e-6 of an integer.  Only
    # this superset goes through _format_ts.
    ts = ev.ts.tolist()
    scaled = ev.ts * 1e5
    short = (ev.ts < 1e-4) | (ev.ts >= 1e4) | (np.abs(scaled - np.rint(scaled)) <= 1e-6)
    for i in np.flatnonzero(short).tolist():
        ts[i] = _format_ts(ts[i])
    names = [d.value for d in DIRECTIONS]
    flags = 8 * ev.syn + 4 * ev.fin + 2 * ev.rst + ev.ack_flag
    columns = (
        ts,
        [names[d] for d in ev.dir.tolist()],
        ev.seq.tolist(),
        ev.ack.tolist(),
        ev.payload_len.tolist(),
        [_FLAG_CELLS[code] for code in flags.tolist()],
        ev.win.tolist(),
        ev.sack_cnt.tolist(),
    )
    body = (_ROW_FORMAT * len(ts)) % tuple(itertools.chain.from_iterable(zip(*columns)))
    header = (
        f"#capture={trace.capture_point.value},transfer={trace.direction_of_transfer.value},"
        f"bytes={trace.declared_transfer_bytes}\n{','.join(_COLUMNS)}\n"
    )
    write_text(path, header + body)


def write_pair(pair: TracePair, down_path, up_path) -> None:
    write_trace(pair.download, down_path)
    write_trace(pair.upload, up_path)


def read_pair(down_path, up_path) -> TracePair:
    """The pair of the --down and --up traces; a trace in the wrong role is a BadHeader."""
    download, upload = read_trace(down_path), read_trace(up_path)
    try:
        return TracePair(download=download, upload=upload)
    except ValueError as exc:
        raise BadHeader(f"{down_path}, {up_path}: {exc}") from exc
