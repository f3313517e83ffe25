"""Packet-event data model and its plain-text trace format.

A trace is one bidirectional TCP flow capture.  The file format is CSV:

    #capture=client,transfer=download,bytes=1000
    ts,dir,seq,ack,len,syn,fin,rst,ack_flag,win,sack_cnt
    0.000125,c2s,17,0,1448,0,0,0,1,65535,0

Timestamps are seconds relative to the first packet, written with at
least six fractional digits and enough precision to round-trip exactly.
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

from .errors import BadHeader, EmptyTrace, IoFailure, MalformedRow
from .preprocess import write_text

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
    last add merged into it, which orders `recent`.
    """

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._stamps: list[int] = []
        self._clock = 0
        self.max_end: int | None = None  # the highest end added so far

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        """The intervals as (start, end), lowest first."""
        return zip(self._starts, self._ends)

    def add(self, s: int, e: int) -> int:
        """Merge [s, e); return the number of bytes already covered."""
        if e <= s:
            return 0
        self._clock += 1
        starts, ends = self._starts, self._ends
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
        i = bisect.bisect_right(self._starts, s) - 1
        return i >= 0 and e <= self._ends[i]

    def pop_through(self, point: int) -> int:
        """Drop the leading intervals that start at or before point; return
        point moved to the end of the last one dropped, if that is higher."""
        i = bisect.bisect_right(self._starts, point)
        if i:
            point = max(point, self._ends[i - 1])
            del self._starts[:i], self._ends[:i], self._stamps[:i]
        return point

    def recent(self, k: int) -> list[tuple[int, int]]:
        """The k intervals most recently added to, as (start, end), the
        most recent first."""
        newest = sorted(zip(self._stamps, self._starts, self._ends), reverse=True)[:k]
        return [(s, e) for _, s, e in newest]


_COLUMNS = ["ts", "dir", "seq", "ack", "len", "syn", "fin", "rst", "ack_flag", "win", "sack_cnt"]
_FLAG_COLUMNS = (5, 6, 7, 8)
_INT_COLUMNS = (2, 3, 4, 9, 10)
_ROW_FORMAT = "%s,%s" + ",%d" * (len(_COLUMNS) - 2)


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


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _first_unparsable(cells: list[str], dtype) -> int:
    for i, cell in enumerate(cells):
        try:
            np.array(cell, dtype=dtype)
        except (ValueError, OverflowError):
            return i
    raise AssertionError("column converted in bulk but no cell fails alone")


def _parse_rows(rows: list[str]) -> tuple[PacketColumns, list[int]]:
    """Columns of the body rows, validated all at once and sorted by ts,
    and the indices into rows of packets with payload on a syn/fin/rst.

    Raises MalformedRow(k, reason) for the first bad row, where k is the
    0-based index into rows; within a row, the leftmost bad field counts.
    """
    width = len(_COLUMNS)
    bad: list[tuple[int, int, str]] = []  # (row, column, reason); the least wins
    commas = list(map(str.count, rows, itertools.repeat(",", len(rows))))
    if commas.count(width - 1) != len(rows):
        k = next(i for i, c in enumerate(commas) if c != width - 1)
        bad.append((k, -1, f"expected {width} columns, got {commas[k] + 1}"))
        rows = rows[:k]  # the rows before it may hold an earlier fault
    cells = ",".join(rows).split(",") if rows else []
    text = [cells[c::width] for c in range(width)]
    cols: list = [None] * width

    def check(c: int, mask: np.ndarray, reason: str) -> None:
        k = _first(mask)
        if k is not None:
            bad.append((k, c, f"{_COLUMNS[c]} {text[c][k]!r} {reason}"))

    for c, allowed in [(1, ("c2s", "s2c"))] + [(c, ("0", "1")) for c in _FLAG_COLUMNS]:
        if not set(text[c]) <= set(allowed):
            check(c, np.array([cell not in allowed for cell in text[c]]), f"is not one of {allowed}")
            continue
        # both allowed words have the same length, so the joined cells
        # read back as a fixed-width byte-string array
        words = np.frombuffer("".join(text[c]).encode("ascii"), f"S{len(allowed[1])}")
        cols[c] = words == allowed[1].encode("ascii")
    for c, dtype, kind in [(0, np.float64, "number")] + [(c, np.int64, "integer") for c in _INT_COLUMNS]:
        try:
            cols[c] = np.array(text[c], dtype=dtype)
        except (ValueError, OverflowError):
            k = _first_unparsable(text[c], dtype)
            bad.append((k, c, f"{_COLUMNS[c]} {text[c][k]!r} is not a 64-bit {kind}"))
            continue
        if c == 0:
            check(c, ~(np.isfinite(cols[c]) & (cols[c] >= 0)), "is not finite and non-negative")
        else:
            check(c, (cols[c] < 0) | (cols[c] >= SEQ_MOD), "is outside [0, 2^32)")
    if bad:
        k, _, reason = min(bad)
        raise MalformedRow(k, reason)
    payload_on_control = np.flatnonzero((cols[4] > 0) & (cols[5] | cols[6] | cols[7]))
    order = np.argsort(cols[0], kind="stable")  # ties keep file order
    return PacketColumns(*(col[order] for col in cols)), payload_on_control.tolist()


def read_trace(path) -> TraceRecord:
    """Parse a trace file; events are sorted by ts (stable on ties)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc

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
    numbers = [i for i, line in enumerate(lines[2:], start=1) if line and line != "\r"]
    rows = [lines[i + 1] for i in numbers]
    if not rows:
        raise EmptyTrace(f"{path}: no event rows")
    try:
        events, payload_on_control = _parse_rows(rows)
    except MalformedRow as exc:
        raise MalformedRow(numbers[exc.row_index], f"{path}: {exc.reason}") from None
    for k in payload_on_control:
        warnings.warn(f"{path}: row {numbers[k]} carries payload on a syn/fin/rst packet")
    return TraceRecord(
        capture_point=capture,
        direction_of_transfer=transfer,
        events=events,
        declared_transfer_bytes=declared,
    )


def write_trace(trace: TraceRecord, path) -> None:
    """Write a trace; read_trace(write_trace(t)) reproduces t exactly."""
    ev = trace.events
    if not ev:
        raise EmptyTrace("refusing to write a trace with no events")
    names = [d.value for d in DIRECTIONS]
    ints = [getattr(ev, name).astype(np.int64).tolist() for name in FIELDS[2:]]
    rows = zip(map(_format_ts, ev.ts.tolist()), [names[d] for d in ev.dir.tolist()], *ints)
    out = [
        f"#capture={trace.capture_point.value},transfer={trace.direction_of_transfer.value},"
        f"bytes={trace.declared_transfer_bytes}",
        ",".join(_COLUMNS),
    ]
    out.extend(map(_ROW_FORMAT.__mod__, rows))
    write_text(path, "\n".join(out) + "\n")


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
