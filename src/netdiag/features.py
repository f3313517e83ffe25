"""Connection-signature extraction.

Turns a pair of packet traces into one fixed-length connection
signature: 37 per-trace statistics (the `Statistic` table) for the
download trace, then the same 37 for the upload trace, 74 features.
A catalog is a version plus those feature names in signature order; this
build knows one, "v1", and refuses any other.  A statistic that is
undefined for a trace (e.g. an RTT deviation with fewer than two
samples) is emitted as 0.0, and the `Signature` carries the definedness
of every feature, so a caller can say what the vector did not measure.
All statistics use timestamps relative to the trace start, so
signatures are invariant under time shift.

Both traces are receiver captures (the download at the client, the
upload at the server).  There a repair of a lost segment overlaps no byte
already seen, so it counts as out of order, not as retransmitted:
`*_retransmitted_packets` equals the simulator's
`FlowStats.duplicate_arrivals`, the data segments that arrived twice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogMismatch, EmptyTrace, NonFiniteInput
from .trace import SEQ_MOD, Direction, IntervalSet, TracePair, TraceRecord

SMALL_SEGMENT_BYTES = 512  # "push-like" threshold


class Statistic(enum.Enum):
    ELAPSED_TIME = "elapsed_time"
    TOTAL_PACKETS_C2S = "total_packets_c2s"
    TOTAL_PACKETS_S2C = "total_packets_s2c"
    TOTAL_BYTES_C2S = "total_bytes_c2s"
    TOTAL_BYTES_S2C = "total_bytes_s2c"
    DATA_PACKETS_C2S = "data_packets_c2s"
    DATA_PACKETS_S2C = "data_packets_s2c"
    PURE_ACK_PACKETS_C2S = "pure_ack_packets_c2s"
    PURE_ACK_PACKETS_S2C = "pure_ack_packets_s2c"
    THROUGHPUT = "throughput"
    RETRANSMITTED_PACKETS = "retransmitted_packets"
    RETRANSMITTED_BYTES = "retransmitted_bytes"
    OUT_OF_ORDER_PACKETS = "out_of_order_packets"
    DUP_ACK_COUNT = "dup_ack_count"
    TRIPLE_DUP_ACK_EVENTS = "triple_dup_ack_events"
    SACK_BLOCKS_TOTAL = "sack_blocks_total"
    MAX_SACK_CNT = "max_sack_cnt"
    WIN_MIN = "win_min"
    WIN_MAX = "win_max"
    WIN_AVG = "win_avg"
    ZERO_WINDOW_COUNT = "zero_window_count"
    RTT_AVG = "rtt_avg"
    RTT_MIN = "rtt_min"
    RTT_MAX = "rtt_max"
    RTT_STDEV = "rtt_stdev"
    RTT_SAMPLES = "rtt_samples"
    IDLE_TIME_MAX = "idle_time_max"
    MEAN_SEGMENT_SIZE = "mean_segment_size"
    MAX_SEGMENT_SIZE = "max_segment_size"
    MIN_SEGMENT_SIZE = "min_segment_size"
    PUSH_LIKE_SMALL_SEGMENT_COUNT = "push_like_small_segment_count"
    SYN_COUNT = "syn_count"
    FIN_COUNT = "fin_count"
    RST_COUNT = "rst_count"
    INITIAL_WINDOW_BYTES = "initial_window_bytes"
    ACK_COMPRESSION_RATIO = "ack_compression_ratio"
    BYTES_PER_ACK = "bytes_per_ack"


@dataclass(frozen=True)
class FeatureCatalog:
    """A catalog version and its feature names, in signature order."""

    version: str
    feature_names: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.feature_names)


_CATALOG = FeatureCatalog(
    version="v1",
    feature_names=tuple(f"{prefix}_{stat.value}" for prefix in ("down", "up") for stat in Statistic),
)


def default_catalog() -> FeatureCatalog:
    """Catalog v1: every Statistic for each trace, download block first."""
    return _CATALOG


@dataclass(frozen=True, eq=False)
class Signature:
    """Feature vector for one trace pair and the definedness of each feature."""

    values: np.ndarray
    defined: tuple[bool, ...]

    def undefined_features(self, catalog: FeatureCatalog) -> tuple[str, ...]:
        return tuple(n for n, d in zip(catalog.feature_names, self.defined) if not d)


def _unwrap(raw: np.ndarray) -> np.ndarray:
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
class _RttMatcher:
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


def _trace_statistics(trace: TraceRecord) -> tuple[list[float], list[bool]]:
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
    c2s, s2c = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
    data_direction = trace.data_direction()
    ack_direction = s2c if data_direction is c2s else c2s
    data_dir = ev.is_dir(data_direction)
    ack_dir = ~data_dir
    out_dir = ev.is_dir(trace.capture_outbound())
    has_payload = length > 0
    pure_ack = ~has_payload & ev.ack_flag & ~(ev.syn | ev.fin | ev.rst)

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    def total(values) -> int:
        return int(values.sum())

    by_dir = {d: ev.is_dir(d) for d in (c2s, s2c)}
    counts = {d: count(m) for d, m in by_dir.items()}
    bytes_ = {d: total(length[m]) for d, m in by_dir.items()}
    data_pkts = {d: count(has_payload & m) for d, m in by_dir.items()}
    pure_acks = {d: count(pure_ack & m) for d, m in by_dir.items()}

    wins = ev.win[ack_dir]
    acks = ev.ack[ack_dir & pure_ack]
    dup = acks[1:] == acks[:-1]
    dup_acks = count(dup)
    # a run of duplicates counts one triple event when its third arrives
    run = np.concatenate(([False] * 3, dup))
    triple_events = count(run[3:] & run[2:-1] & run[1:-2] & ~run[:-3])

    data_mask = data_dir & has_payload
    seg_sizes = length[data_mask]
    seg_start = _unwrap(ev.seq[data_mask])
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
        covering = np.flatnonzero(_unwrap(ev.ack[candidates]) > seg_start[0])
        if covering.size:
            first_ack = candidates[covering[0]]
            early = data_mask & (np.arange(n) < first_ack) & (ts < ts[first_ack])
            initial_window = total(length[early])

    consumed = length + ev.syn + ev.fin
    sends = out_dir & (consumed > 0)
    acked = ~out_dir & ev.ack_flag
    lo = np.zeros(n, dtype=np.int64)
    lo[sends] = _unwrap(ev.seq[sends])
    lo[acked] = _unwrap(ev.ack[acked])
    hi = lo + consumed
    walk = sends | acked
    rtt = _RttMatcher()
    for send, a, b, t in zip(sends[walk].tolist(), lo[walk].tolist(), hi[walk].tolist(), ts[walk].tolist()):
        if send:
            rtt.on_send(a, b, t)
        elif rtt.pending:
            rtt.on_ack(a, t)

    elapsed = float(ts[-1] - ts[0])
    idle_max = max(0.0, float(np.diff(ts).max())) if n >= 2 else 0.0
    data_bytes = bytes_[data_direction]

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

    v: dict[Statistic, float] = {}
    defined: dict[Statistic, bool] = {}

    def put(stat, value, ok=True):
        v[stat] = float(value)
        defined[stat] = bool(ok)

    put(Statistic.ELAPSED_TIME, elapsed, n >= 2)
    put(Statistic.TOTAL_PACKETS_C2S, counts[c2s])
    put(Statistic.TOTAL_PACKETS_S2C, counts[s2c])
    put(Statistic.TOTAL_BYTES_C2S, bytes_[c2s])
    put(Statistic.TOTAL_BYTES_S2C, bytes_[s2c])
    put(Statistic.DATA_PACKETS_C2S, data_pkts[c2s])
    put(Statistic.DATA_PACKETS_S2C, data_pkts[s2c])
    put(Statistic.PURE_ACK_PACKETS_C2S, pure_acks[c2s])
    put(Statistic.PURE_ACK_PACKETS_S2C, pure_acks[s2c])
    throughput = data_bytes / elapsed if elapsed > 0 else 0.0
    throughput_ok = elapsed > 0 and math.isfinite(throughput)
    if not throughput_ok:  # denormal elapsed can overflow the ratio
        throughput = 0.0
    put(Statistic.THROUGHPUT, throughput, throughput_ok)
    put(Statistic.RETRANSMITTED_PACKETS, retrans_pkts)
    put(Statistic.RETRANSMITTED_BYTES, retrans_bytes)
    put(Statistic.OUT_OF_ORDER_PACKETS, ooo_pkts)
    put(Statistic.DUP_ACK_COUNT, dup_acks)
    put(Statistic.TRIPLE_DUP_ACK_EVENTS, triple_events)
    put(Statistic.SACK_BLOCKS_TOTAL, total(ev.sack_cnt))
    put(Statistic.MAX_SACK_CNT, ev.sack_cnt.max())
    has_wins = wins.size > 0
    put(Statistic.WIN_MIN, wins.min() if has_wins else 0.0, has_wins)
    put(Statistic.WIN_MAX, wins.max() if has_wins else 0.0, has_wins)
    put(Statistic.WIN_AVG, total(wins) / wins.size if has_wins else 0.0, has_wins)
    put(Statistic.ZERO_WINDOW_COUNT, count(wins == 0), has_wins)
    put(Statistic.RTT_AVG, rtt_avg, n_rtt >= 1)
    put(Statistic.RTT_MIN, min(samples) if samples else 0.0, n_rtt >= 1)
    put(Statistic.RTT_MAX, max(samples) if samples else 0.0, n_rtt >= 1)
    put(Statistic.RTT_STDEV, rtt_stdev, n_rtt >= 2)
    put(Statistic.RTT_SAMPLES, n_rtt)
    put(Statistic.IDLE_TIME_MAX, idle_max, n >= 2)
    has_segs = seg_sizes.size > 0
    put(Statistic.MEAN_SEGMENT_SIZE, total(seg_sizes) / seg_sizes.size if has_segs else 0.0, has_segs)
    put(Statistic.MAX_SEGMENT_SIZE, seg_sizes.max() if has_segs else 0.0, has_segs)
    put(Statistic.MIN_SEGMENT_SIZE, seg_sizes.min() if has_segs else 0.0, has_segs)
    put(Statistic.PUSH_LIKE_SMALL_SEGMENT_COUNT, count(seg_sizes < SMALL_SEGMENT_BYTES))
    put(Statistic.SYN_COUNT, count(ev.syn))
    put(Statistic.FIN_COUNT, count(ev.fin))
    put(Statistic.RST_COUNT, count(ev.rst))
    put(Statistic.INITIAL_WINDOW_BYTES, initial_window, has_segs)
    n_data = data_pkts[data_direction]
    n_acks = pure_acks[ack_direction]
    put(Statistic.ACK_COMPRESSION_RATIO, n_acks / n_data if n_data else 0.0, n_data > 0)
    put(Statistic.BYTES_PER_ACK, data_bytes / n_acks if n_acks else 0.0, n_acks > 0)

    return [v[stat] for stat in Statistic], [defined[stat] for stat in Statistic]


def extract_signature(pair: TracePair, catalog: FeatureCatalog) -> Signature:
    """Deterministic feature vector of one trace pair, download block first,
    with the definedness of each feature."""
    if catalog != _CATALOG:
        raise CatalogMismatch(
            f"catalog {catalog.version!r} differs from this build's {_CATALOG.version!r} in version or feature names"
        )
    down_values, down_defined = _trace_statistics(pair.download)
    up_values, up_defined = _trace_statistics(pair.upload)
    values = np.array(down_values + up_values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        bad = catalog.feature_names[int(np.flatnonzero(~np.isfinite(values))[0])]
        raise NonFiniteInput(f"feature {bad} is not finite: the traces hold values too large to combine")
    return Signature(values=values, defined=tuple(down_defined + up_defined))
