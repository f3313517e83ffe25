"""The simulator's list-rebuilding interval merges, kept as the reference
for `netdiag.trace.IntervalSet`.

These are the receiver's out-of-order queue and the sender's SACK
scoreboard as `simulate.py` kept them before both became `IntervalSet`s:
every add rebuilds the list, merging each interval that the new one
overlaps or touches.  An `IntervalSet` given the same adds must hold the
same intervals, report the same SACK blocks in the same order, and answer
`covers` and the cumulative-ack pop the same way.
"""

from __future__ import annotations


def merge_sacked(sacked: list, s: int, e: int) -> list:
    """The scoreboard of [start, end] intervals after the SACK block [s, e)."""
    merged = [s, e]
    out = []
    for iv in sacked:
        if iv[1] < merged[0] or iv[0] > merged[1]:
            out.append(iv)
        else:
            merged[0] = min(merged[0], iv[0])
            merged[1] = max(merged[1], iv[1])
    out.append(merged)
    out.sort()
    return out


def add_ooo(ooo: list, s: int, e: int, touch: int) -> list:
    """The queue of [start, end, touched] intervals after [s, e) arrives
    as the add numbered `touch` (increasing)."""
    merged = [s, e, touch]
    out = []
    for iv in ooo:
        if iv[1] < merged[0] or iv[0] > merged[1]:
            out.append(iv)
        else:
            merged[0] = min(merged[0], iv[0])
            merged[1] = max(merged[1], iv[1])
    out.append(merged)
    out.sort(key=lambda iv: iv[0])
    return out


def absorb_ooo(ooo: list, rcv_nxt: int) -> int:
    """Pop the leading intervals that rcv_nxt reaches; return the new rcv_nxt."""
    while ooo and ooo[0][0] <= rcv_nxt:
        rcv_nxt = max(rcv_nxt, ooo.pop(0)[1])
    return rcv_nxt


def covers(intervals: list, s: int, e: int) -> bool:
    """Whether one of the [start, end, ...] intervals holds all of [s, e)."""
    for iv in intervals:
        if iv[0] <= s and e <= iv[1]:
            return True
    return False


def sack_blocks(ooo: list, k: int) -> list[tuple[int, int]]:
    """The k most recently touched intervals, the most recent first."""
    return [(iv[0], iv[1]) for iv in sorted(ooo, key=lambda iv: -iv[2])[:k]]
