"""Hand-built packet traces for tests.

A packet is a row: a tuple in `FIELDS` order, `dir` as its index into
`DIRECTIONS`, as the columns hold it.  `columns` stacks rows into
`PacketColumns` and `record` wraps them in a `TraceRecord`.
"""

from __future__ import annotations

from netdiag.trace import (
    DIRECTIONS,
    FIELDS,
    CapturePoint,
    Direction,
    PacketColumns,
    TraceRecord,
    TransferDirection,
)


def ev(ts, dir=Direction.CLIENT_TO_SERVER, seq=0, ack=0, length=0, *,
       syn=False, fin=False, rst=False, ack_flag=False, win=0, sack_cnt=0) -> tuple:
    """One packet as a row; `length` is its payload_len."""
    return (ts, DIRECTIONS.index(dir), seq, ack, length, syn, fin, rst, ack_flag, win, sack_cnt)


def columns(rows) -> PacketColumns:
    """The rows as columns, in the order given."""
    rows = list(rows)
    return PacketColumns(*(zip(*rows) if rows else [()] * len(FIELDS)))


def record(rows, capture=CapturePoint.CLIENT, transfer=TransferDirection.DOWNLOAD, declared=1000) -> TraceRecord:
    """A trace of the rows; the record sorts them by ts, stably."""
    return TraceRecord(capture, transfer, columns(rows), declared)


def replaced(events: PacketColumns, **changed) -> PacketColumns:
    """`events` with the named columns replaced."""
    return PacketColumns(**{name: changed.get(name, getattr(events, name)) for name in FIELDS})
