"""The per-packet feature extractor, kept as the reference for
`netdiag.features._trace_statistics`.

This is the extractor as it was before its whole-array passes: every
data segment goes through an `IntervalSet` add, every send and ack
through the RTT matcher, and every sequence column through the
unwrapping passes.  The extractor must return the same values and
definedness, bit for bit, for any trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from netdiag.errors import EmptyTrace
from netdiag.features import SMALL_SEGMENT_BYTES
from netdiag.trace import SEQ_MOD, Direction, IntervalSet, TraceRecord


def unwrap_reference(raw: np.ndarray) -> np.ndarray:
    """Extends 32-bit sequence values to a monotone-friendly integer line.

    Each new value is placed at the representative closest to the
    previous one, so wraparound is handled as long as consecutive values
    stay within half the sequence space.  Values are anchored at the raw
    first value, which keeps independently unwrapped streams (e.g. data
    seq and the acks covering them) in the same frame provided both
    start before the first wrap.
    """
    if raw.size == 0:
        return raw
    step = np.diff(raw) % SEQ_MOD
    step[step > SEQ_MOD // 2] -= SEQ_MOD
    return raw[0] + np.concatenate(([0], np.cumsum(step)))


@dataclass
class RttMatcherReference:
    """First-transmission send -> covering-ack RTT sampling.

    Ranges that are ever retransmitted are discarded before they yield a
    sample (Karn's rule).  SYN and FIN consume one sequence unit each and
    participate, which is what gives receiver-side captures their
    handshake round-trip sample.
    """

    pending: list[list] = field(default_factory=list)  # [end, start, ts, valid]
    sent: IntervalSet = field(default_factory=IntervalSet)
    samples: list[float] = field(default_factory=list)

    def on_send(self, start: int, end: int, ts: float) -> None:
        overlap = self.sent.add(start, end)
        if overlap > 0:
            for entry in self.pending:
                if entry[1] < end and start < entry[0]:
                    entry[3] = False
            return
        self.pending.append([end, start, ts, True])

    def on_ack(self, ackval: int, ts: float) -> None:
        keep = []
        for entry in self.pending:
            if entry[0] <= ackval:
                if entry[3]:
                    self.samples.append(ts - entry[2])
            else:
                keep.append(entry)
        self.pending = keep


def trace_statistics_reference(trace: TraceRecord) -> tuple[list[float], list[bool]]:
    """Every Statistic of one trace and whether it is defined, in Statistic
    order.

    Order-free statistics are column reductions; retransmission and
    out-of-order detection and RTT matching walk the packets in order.
    Integer sums are exact (32-bit values in 64-bit columns), so every
    statistic equals the per-packet definition bit for bit.
    """
    ev = trace.events
    n = len(ev)
    if not n:
        raise EmptyTrace("cannot analyze a trace with no events")
    ts, length = ev.ts, ev.payload_len
    s2c = ev.is_dir(Direction.SERVER_TO_CLIENT)
    c2s = ~s2c
    data_is_s2c = trace.data_direction() is Direction.SERVER_TO_CLIENT
    data_dir = s2c if data_is_s2c else c2s
    ack_dir = ~data_dir
    out_dir = c2s if trace.capture_outbound() is Direction.CLIENT_TO_SERVER else s2c
    has_payload = length > 0
    pure_ack = ~has_payload & ev.ack_flag & ~(ev.syn | ev.fin | ev.rst)

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    def total(values) -> int:
        return int(values.sum())

    pure_acks_c2s, pure_acks_s2c = count(pure_ack & c2s), count(pure_ack & s2c)
    data_pkts_c2s, data_pkts_s2c = count(has_payload & c2s), count(has_payload & s2c)
    bytes_c2s, bytes_s2c = total(length[c2s]), total(length[s2c])

    wins = ev.win[ack_dir]
    acks = ev.ack[ack_dir & pure_ack]
    dup = acks[1:] == acks[:-1]
    dup_acks = count(dup)
    # a run of duplicates counts one triple event when its third arrives
    run = np.concatenate(([False] * 3, dup))
    triple_events = count(run[3:] & run[2:-1] & run[1:-2] & ~run[:-3])

    data_mask = data_dir & has_payload
    seg_sizes = length[data_mask]
    seg_start = unwrap_reference(ev.seq[data_mask])
    retrans_pkts = retrans_bytes = ooo_pkts = 0
    data_cover = IntervalSet()
    for s, e in zip(seg_start.tolist(), (seg_start + seg_sizes).tolist()):
        prev_max = data_cover.max_end
        overlap = data_cover.add(s, e)
        if overlap > 0:
            retrans_pkts += 1
            retrans_bytes += overlap
        elif prev_max is not None and s < prev_max:
            ooo_pkts += 1

    # The first ack-direction ack after the first data packet that
    # covers its first byte bounds the initial window.
    initial_window = total(seg_sizes)
    if seg_sizes.size:
        after = np.arange(n) > np.flatnonzero(data_mask)[0]
        candidates = np.flatnonzero(ack_dir & ev.ack_flag & after)
        covering = np.flatnonzero(unwrap_reference(ev.ack[candidates]) > seg_start[0])
        if covering.size:
            first_ack = candidates[covering[0]]
            early = data_mask & (np.arange(n) < first_ack) & (ts < ts[first_ack])
            initial_window = total(length[early])

    consumed = length + ev.syn + ev.fin
    sends = out_dir & (consumed > 0)
    acked = ~out_dir & ev.ack_flag
    lo = np.zeros(n, dtype=np.int64)
    lo[sends] = unwrap_reference(ev.seq[sends])
    lo[acked] = unwrap_reference(ev.ack[acked])
    hi = lo + consumed
    walk = sends | acked
    rtt = RttMatcherReference()
    for send, a, b, t in zip(sends[walk].tolist(), lo[walk].tolist(), hi[walk].tolist(), ts[walk].tolist()):
        if send:
            rtt.on_send(a, b, t)
        elif rtt.pending:
            rtt.on_ack(a, t)

    elapsed = float(ts[-1] - ts[0])
    idle_max = max(0.0, float(np.diff(ts).max())) if n >= 2 else 0.0
    data_bytes = bytes_s2c if data_is_s2c else bytes_c2s

    samples = rtt.samples
    n_rtt = len(samples)
    rtt_avg = sum(samples) / n_rtt if n_rtt else 0.0
    rtt_stdev = 0.0
    if n_rtt >= 2:
        try:
            var = sum((x - rtt_avg) ** 2 for x in samples) / (n_rtt - 1)
        except OverflowError:  # samples near the float range; refused below
            var = math.inf
        rtt_stdev = math.sqrt(var)

    # Appended in Statistic order, unkeyed: hashing 37 enum keys per trace
    # cost more than the arithmetic on the verdict path.
    values: list[float] = []
    defined: list[bool] = []

    def put(value, ok=True):
        values.append(float(value))
        defined.append(bool(ok))

    put(elapsed, n >= 2)
    put(count(c2s))
    put(count(s2c))
    put(bytes_c2s)
    put(bytes_s2c)
    put(data_pkts_c2s)
    put(data_pkts_s2c)
    put(pure_acks_c2s)
    put(pure_acks_s2c)
    throughput = data_bytes / elapsed if elapsed > 0 else 0.0
    throughput_ok = elapsed > 0 and math.isfinite(throughput)
    if not throughput_ok:  # denormal elapsed can overflow the ratio
        throughput = 0.0
    put(throughput, throughput_ok)
    put(retrans_pkts)
    put(retrans_bytes)
    put(ooo_pkts)
    put(dup_acks)
    put(triple_events)
    put(total(ev.sack_cnt))
    put(ev.sack_cnt.max())
    has_wins = wins.size > 0
    put(wins.min() if has_wins else 0.0, has_wins)
    put(wins.max() if has_wins else 0.0, has_wins)
    put(total(wins) / wins.size if has_wins else 0.0, has_wins)
    put(count(wins == 0), has_wins)
    put(rtt_avg, n_rtt >= 1)
    put(min(samples) if samples else 0.0, n_rtt >= 1)
    put(max(samples) if samples else 0.0, n_rtt >= 1)
    put(rtt_stdev, n_rtt >= 2)
    put(n_rtt)
    put(idle_max, n >= 2)
    has_segs = seg_sizes.size > 0
    put(total(seg_sizes) / seg_sizes.size if has_segs else 0.0, has_segs)
    put(seg_sizes.max() if has_segs else 0.0, has_segs)
    put(seg_sizes.min() if has_segs else 0.0, has_segs)
    put(count(seg_sizes < SMALL_SEGMENT_BYTES))
    put(count(ev.syn))
    put(count(ev.fin))
    put(count(ev.rst))
    put(initial_window, has_segs)
    n_data = data_pkts_s2c if data_is_s2c else data_pkts_c2s
    n_acks = pure_acks_c2s if data_is_s2c else pure_acks_s2c
    put(n_acks / n_data if n_data else 0.0, n_data > 0)
    put(data_bytes / n_acks if n_acks else 0.0, n_acks > 0)
    return values, defined
