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

Every statistic is a whole-column numpy pass, the packet counts per
direction and kind one `np.bincount`, except two walks in Python that
touch only the packets able to move a count.  The retransmission and
out-of-order walk adds the late data segments, those starting below the
highest end before them, and one interval per run of the others, so a
loss-free trace walks nothing.  The RTT walk reads every send and then
acks only while a send is pending, so a receiver capture walks its SYN
and the ack answering it.  Sequence columns are unwrapped by numpy
passes only when their values lie half the sequence space apart or more.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogMismatch, EmptyTrace, NonFiniteInput
from .trace import SEQ_MOD, Direction, IntervalSet, PacketColumns, TracePair, TraceRecord

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

    When all values lie less than half the sequence space apart, no step
    reaches half of it and every value is already its own closest
    representative, so `raw` itself is returned after two reductions;
    the passes over the steps run only for a column that may wrap.
    """
    if raw.size == 0 or raw.max() - raw.min() < SEQ_MOD // 2:
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


def _cover_counts(start: np.ndarray, end: np.ndarray) -> tuple[int, int, int]:
    """Retransmitted packets and bytes and out-of-order packets of the data
    segments [start, end), in arrival order.

    Only a late segment, one that starts below the highest end before it,
    can count; any other lies past the top of the cover.  So the
    `IntervalSet` walk adds pieces: a late segment or one after a gap
    starts a piece, and every other segment extends the piece it touches.
    """
    late = start[1:] < np.maximum.accumulate(end[:-1])
    if not late.any():
        return 0, 0, 0
    first = np.flatnonzero(np.concatenate(([True], late | (start[1:] != end[:-1]))))
    last = np.append(first[1:], start.size) - 1
    retrans_pkts = retrans_bytes = ooo_pkts = 0
    cover = IntervalSet()
    for s, e in zip(start[first].tolist(), end[last].tolist()):
        prev_max = cover.max_end
        overlap = cover.add(s, e)
        if overlap > 0:
            retrans_pkts += 1
            retrans_bytes += overlap
        elif prev_max is not None and s < prev_max:
            ooo_pkts += 1
    return retrans_pkts, retrans_bytes, ooo_pkts


def _rtt_samples(ev: PacketColumns, out_dir: np.ndarray) -> list[float]:
    """RTT samples of the packets sent from the capture point (`out_dir`)
    that consume sequence space, against the acks coming back.  An ack
    moves the matcher only while a send is pending, so after each send the
    walk reads acks until none is and then skips to the next send."""
    consumed = ev.payload_len + ev.syn + ev.fin
    send_at = np.flatnonzero(out_dir & (consumed > 0))
    ack_at = np.flatnonzero(~out_dir & ev.ack_flag)
    send_lo = _unwrap(ev.seq[send_at])
    ack_val = _unwrap(ev.ack[ack_at])
    # the acks after send j and before send j + 1 are ack_at[bound[j]:bound[j + 1]]
    bound = np.searchsorted(ack_at, send_at).tolist() + [ack_at.size]
    rtt = _RttMatcher()
    sends = zip(send_lo.tolist(), (send_lo + consumed[send_at]).tolist(), ev.ts[send_at].tolist())
    for j, (a, b, t) in enumerate(sends):
        rtt.on_send(a, b, t)
        k = bound[j]
        while rtt.pending and k < bound[j + 1]:
            rtt.on_ack(int(ack_val[k]), float(ev.ts[ack_at[k]]))
            k += 1
    return rtt.samples


def _trace_statistics(trace: TraceRecord) -> tuple[list[float], list[bool]]:
    """Every Statistic of one trace and whether it is defined, in Statistic
    order.

    Column passes, but for the walks of `_cover_counts` and
    `_rtt_samples` (see the module docstring).  Integer sums are exact
    (32-bit values in 64-bit columns), so every statistic equals the
    per-packet definition bit for bit.
    """
    ev = trace.events
    n = len(ev)
    if not n:
        raise EmptyTrace("cannot analyze a trace with no events")
    ts, length = ev.ts, ev.payload_len
    s2c = ev.is_dir(Direction.SERVER_TO_CLIENT)
    data_is_s2c = trace.data_direction() is Direction.SERVER_TO_CLIENT
    data_dir = s2c if data_is_s2c else ~s2c
    ack_dir = ~data_dir
    out_dir = ~s2c if trace.capture_outbound() is Direction.CLIENT_TO_SERVER else s2c
    has_payload = length > 0
    pure_ack = ev.ack_flag & ~(has_payload | ev.syn | ev.fin | ev.rst)

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    def total(values) -> int:
        return int(values.sum())

    # code 3 * s2c + kind, kind 1 for a data packet, 2 for a pure ack, 0 otherwise
    kinds = np.bincount(3 * s2c + has_payload + 2 * pure_ack, minlength=6).tolist()
    packets_c2s, data_pkts_c2s, pure_acks_c2s = sum(kinds[:3]), kinds[1], kinds[2]
    packets_s2c, data_pkts_s2c, pure_acks_s2c = sum(kinds[3:]), kinds[4], kinds[5]
    bytes_s2c = total(length[s2c])
    bytes_c2s = total(length) - bytes_s2c
    data_bytes = bytes_s2c if data_is_s2c else bytes_c2s

    wins = ev.win[ack_dir]
    acks = ev.ack[ack_dir & pure_ack]
    dup = acks[1:] == acks[:-1]
    dup_acks = count(dup)
    triple_events = 0
    if dup_acks >= 3:
        # a run of duplicates counts one triple event when its third arrives
        run = np.concatenate(([False] * 3, dup))
        triple_events = count(run[3:] & run[2:-1] & run[1:-2] & ~run[:-3])

    data_mask = data_dir & has_payload
    seg_sizes = length[data_mask]
    seg_start = _unwrap(ev.seq[data_mask])
    retrans_pkts, retrans_bytes, ooo_pkts = _cover_counts(seg_start, seg_start + seg_sizes)

    # The first ack-direction ack after the first data packet that
    # covers its first byte bounds the initial window.
    initial_window = data_bytes
    if seg_sizes.size:
        after = int(data_mask.argmax()) + 1  # past the first data packet
        candidates = np.flatnonzero(ack_dir[after:] & ev.ack_flag[after:]) + after
        covering = np.flatnonzero(_unwrap(ev.ack[candidates]) > seg_start[0])
        if covering.size:
            first_ack = candidates[covering[0]]
            early = data_mask[:first_ack] & (ts[:first_ack] < ts[first_ack])
            initial_window = total(length[:first_ack][early])

    samples = _rtt_samples(ev, out_dir)

    elapsed = float(ts[-1] - ts[0])
    idle_max = max(0.0, float(np.diff(ts).max())) if n >= 2 else 0.0

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
    put(packets_c2s)
    put(packets_s2c)
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
    put(data_bytes / seg_sizes.size if has_segs else 0.0, has_segs)
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
