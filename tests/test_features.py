"""Signature extraction: per-statistic oracles and vector properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interval_reference as ref
from features_reference import trace_statistics_reference
from netdiag.errors import CatalogMismatch
from netdiag.features import (
    FeatureCatalog,
    Statistic,
    _trace_statistics,
    default_catalog,
    extract_signature,
)
from netdiag.simulate import HEALTHY_LINK, ClientParams, LinkParams, simulate_flow_with_stats
from netdiag.trace import (
    SEQ_MOD,
    CapturePoint,
    Direction,
    IntervalSet,
    PacketEvent,
    TracePair,
    TraceRecord,
    TransferDirection,
)

C2S, S2C = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT


def ev(ts, dir=C2S, seq=0, ack=0, length=0, **kw):
    return PacketEvent(ts=ts, dir=dir, seq=seq, ack=ack, payload_len=length, **kw)


def compute_statistic(t: TraceRecord, stat: Statistic) -> float:
    """One statistic of one trace, as the extractor computes it."""
    return _trace_statistics(t)[0][list(Statistic).index(stat)]


def trace(events, capture=CapturePoint.CLIENT, transfer=TransferDirection.DOWNLOAD):
    return TraceRecord(
        capture_point=capture,
        direction_of_transfer=transfer,
        events=tuple(events),
        declared_transfer_bytes=1000,
    )


class TestStatisticOracles:
    def test_total_bytes_sum(self):
        t = trace([ev(0.0, S2C, length=1448), ev(0.1, S2C, length=1448), ev(0.2, S2C, length=552)])
        assert compute_statistic(t, Statistic.TOTAL_BYTES_S2C) == 3448.0

    def test_elapsed_max_minus_min(self):
        t = trace([ev(0.0), ev(0.5), ev(2.0)])
        assert compute_statistic(t, Statistic.ELAPSED_TIME) == 2.0

    def test_rtt_hand_matched(self):
        # capture-outbound data at 0.00 and 0.10, covering acks at 0.10 and 0.30
        t = trace(
            [
                ev(0.00, C2S, seq=0, length=100),
                ev(0.10, S2C, ack=100, ack_flag=True),
                ev(0.10, C2S, seq=100, length=100),
                ev(0.30, S2C, ack=200, ack_flag=True),
            ]
        )
        assert compute_statistic(t, Statistic.RTT_AVG) == pytest.approx(0.15)
        assert compute_statistic(t, Statistic.RTT_MIN) == pytest.approx(0.10)
        assert compute_statistic(t, Statistic.RTT_MAX) == pytest.approx(0.20)
        assert compute_statistic(t, Statistic.RTT_SAMPLES) == 2.0

    def test_karn_retransmitted_range_excluded(self):
        t = trace(
            [
                ev(0.00, C2S, seq=0, length=100),
                ev(0.50, C2S, seq=0, length=100),  # retransmission of [0,100)
                ev(0.60, S2C, ack=100, ack_flag=True),
            ]
        )
        assert compute_statistic(t, Statistic.RTT_SAMPLES) == 0.0
        assert compute_statistic(t, Statistic.RTT_AVG) == 0.0

    def test_single_syn_degenerate(self):
        t = trace([ev(0.0, C2S, syn=True)])
        assert compute_statistic(t, Statistic.THROUGHPUT) == 0.0
        assert compute_statistic(t, Statistic.RTT_AVG) == 0.0
        assert compute_statistic(t, Statistic.TOTAL_PACKETS_C2S) == 1.0

    def test_retransmission_and_ooo_detection(self):
        t = trace(
            [
                ev(0.0, S2C, seq=0, length=100),
                ev(0.1, S2C, seq=200, length=100),  # hole at [100, 200)
                ev(0.2, S2C, seq=100, length=100),  # late fill: out of order
                ev(0.3, S2C, seq=0, length=100),  # seq reuse: retransmission
            ]
        )
        assert compute_statistic(t, Statistic.OUT_OF_ORDER_PACKETS) == 1.0
        assert compute_statistic(t, Statistic.RETRANSMITTED_PACKETS) == 1.0
        assert compute_statistic(t, Statistic.RETRANSMITTED_BYTES) == 100.0

    def test_seq_wraparound_not_retransmission(self):
        top = 2**32 - 1000
        t = trace(
            [
                ev(0.0, S2C, seq=top, length=1000),
                ev(0.1, S2C, seq=0, length=1000),  # contiguous across the wrap
            ]
        )
        assert compute_statistic(t, Statistic.RETRANSMITTED_PACKETS) == 0.0
        assert compute_statistic(t, Statistic.OUT_OF_ORDER_PACKETS) == 0.0

    def test_dup_acks_and_triple_event(self):
        acks = [ev(0.1 * i, C2S, ack=500, ack_flag=True) for i in range(5)]
        t = trace([ev(0.0, S2C, seq=0, length=500)] + acks)
        # five equal acks: first sets the value, four duplicates, one triple event
        assert compute_statistic(t, Statistic.DUP_ACK_COUNT) == 4.0
        assert compute_statistic(t, Statistic.TRIPLE_DUP_ACK_EVENTS) == 1.0

    def test_window_stats_receiver_direction(self):
        t = trace(
            [
                ev(0.0, C2S, ack=0, ack_flag=True, win=1000),
                ev(0.1, C2S, ack=0, ack_flag=True, win=0),
                ev(0.2, C2S, ack=0, ack_flag=True, win=3000),
                ev(0.3, S2C, seq=0, length=10, win=99999),  # sender side: ignored
            ]
        )
        assert compute_statistic(t, Statistic.WIN_MIN) == 0.0
        assert compute_statistic(t, Statistic.WIN_MAX) == 3000.0
        assert compute_statistic(t, Statistic.WIN_AVG) == pytest.approx(4000 / 3)
        assert compute_statistic(t, Statistic.ZERO_WINDOW_COUNT) == 1.0

    def test_segment_sizes(self):
        t = trace([ev(0.0, S2C, seq=0, length=100), ev(0.1, S2C, seq=100, length=700)])
        assert compute_statistic(t, Statistic.MEAN_SEGMENT_SIZE) == 400.0
        assert compute_statistic(t, Statistic.MAX_SEGMENT_SIZE) == 700.0
        assert compute_statistic(t, Statistic.MIN_SEGMENT_SIZE) == 100.0
        assert compute_statistic(t, Statistic.PUSH_LIKE_SMALL_SEGMENT_COUNT) == 1.0

    def test_idle_time(self):
        t = trace([ev(0.0), ev(0.1), ev(1.5), ev(1.6)])
        assert compute_statistic(t, Statistic.IDLE_TIME_MAX) == pytest.approx(1.4)

    def test_flag_counts_and_sack(self):
        t = trace(
            [
                ev(0.0, C2S, syn=True, sack_cnt=1),
                ev(0.1, S2C, syn=True, ack=1, ack_flag=True, sack_cnt=2),
                ev(0.2, S2C, seq=1, length=10, ack_flag=True),
                ev(0.3, S2C, fin=True, seq=11, ack_flag=True),
            ]
        )
        assert compute_statistic(t, Statistic.SYN_COUNT) == 2.0
        assert compute_statistic(t, Statistic.FIN_COUNT) == 1.0
        assert compute_statistic(t, Statistic.RST_COUNT) == 0.0
        assert compute_statistic(t, Statistic.SACK_BLOCKS_TOTAL) == 3.0
        assert compute_statistic(t, Statistic.MAX_SACK_CNT) == 2.0

    def test_initial_window_bytes(self):
        t = trace(
            [
                ev(0.00, S2C, seq=0, length=100),
                ev(0.01, S2C, seq=100, length=100),
                ev(0.02, C2S, ack=200, ack_flag=True),  # first ack covering data
                ev(0.03, S2C, seq=200, length=100),
            ]
        )
        assert compute_statistic(t, Statistic.INITIAL_WINDOW_BYTES) == 200.0

    def test_ack_ratios(self):
        t = trace(
            [
                ev(0.0, S2C, seq=0, length=100),
                ev(0.1, S2C, seq=100, length=100),
                ev(0.2, C2S, ack=200, ack_flag=True),
            ]
        )
        assert compute_statistic(t, Statistic.ACK_COMPRESSION_RATIO) == 0.5
        assert compute_statistic(t, Statistic.BYTES_PER_ACK) == 200.0


def assert_same_statistics(t: TraceRecord):
    """The extractor and the per-packet reference agree bit for bit on every
    value and on every definedness flag."""
    values, defined = _trace_statistics(t)
    ref_values, ref_defined = trace_statistics_reference(t)
    assert defined == ref_defined
    assert np.array_equal(np.array(values).view(np.int64), np.array(ref_values).view(np.int64)), [
        (stat.value, a, b) for stat, a, b in zip(Statistic, values, ref_values) if a != b
    ]


HALF = SEQ_MOD // 2
# offsets from a stream's ISN: small ones reorder, duplicate and overlap segments
SEQ_OFFSETS = st.one_of(st.integers(0, 6000), st.integers(0, 30).map(lambda k: 100 * k))
ISNS = st.one_of(st.just(0), st.integers(SEQ_MOD - 4000, SEQ_MOD - 1), st.integers(0, SEQ_MOD - 1))
RARE = st.sampled_from([False] * 5 + [True])


@st.composite
def oracle_traces(draw):
    """A trace of 1-30 packets from both ends.  Each seq and ack either
    continues its stream (the next byte in that direction, so in-order
    runs and their touching pieces are common), jumps to an offset, or
    steps exactly half the sequence space from the direction's last seq,
    unwrapping's boundary.  Now and then a packet comes four times, which
    makes duplicate segments and runs of duplicate acks."""
    isn = {C2S: draw(ISNS), S2C: draw(ISNS)}
    next_byte = {C2S: 0, S2C: 0}
    last = {C2S: 0, S2C: 0}
    ts = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=30))
    if draw(st.booleans()):
        ts.sort()
    events = []
    for t in ts:
        d = draw(st.sampled_from([C2S, S2C]))
        other = S2C if d is C2S else C2S
        length = draw(st.sampled_from([0, 0, 0, 0, 1, 100, 511, 512, 1448]))
        seq_off = draw(st.one_of(st.just(next_byte[d]), SEQ_OFFSETS, st.just((last[d] + HALF) % SEQ_MOD)))
        ack_off = draw(st.one_of(st.just(next_byte[other]), SEQ_OFFSETS, st.just((last[other] + HALF) % SEQ_MOD)))
        syn, fin = draw(RARE), draw(RARE)
        next_byte[d] = max(next_byte[d], seq_off + length + syn + fin)
        last[d] = seq_off
        events += [PacketEvent(
            ts=t, dir=d, seq=(isn[d] + seq_off) % SEQ_MOD, ack=(isn[other] + ack_off) % SEQ_MOD,
            payload_len=length, syn=syn, fin=fin, rst=draw(RARE), ack_flag=not draw(RARE),
            win=draw(st.sampled_from([0, 1000, 65535])), sack_cnt=draw(st.integers(0, 3)),
        )] * draw(st.sampled_from([1] * 7 + [4]))
    return trace(events, draw(st.sampled_from(list(CapturePoint))), draw(st.sampled_from(list(TransferDirection))))


def segments(starts, length=100, dir=S2C):
    """Data segments of `length` bytes at the given seqs, one per 0.1 s."""
    return [ev(0.1 * i, dir, seq=s % SEQ_MOD, length=length) for i, s in enumerate(starts)]


class TestReferenceOracle:
    """`_trace_statistics` equals the per-packet extractor it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(t=oracle_traces())
    def test_matches_per_packet_reference(self, t):
        assert_same_statistics(t)

    @pytest.mark.parametrize(
        "events",
        [
            [ev(0.0, C2S, syn=True)],
            [ev(0.0, S2C, seq=7, length=100)],
            # seq columns spanning exactly half the space, below it, and wrapping
            segments([HALF, 0]),
            segments([0, HALF]),
            segments([HALF - 1, 0]),
            segments([SEQ_MOD - 100, 0, SEQ_MOD - 100, 100]),
            segments([SEQ_MOD - 150, SEQ_MOD - 50, 50]),
            # in-order runs with gaps, a late fill, a duplicate and an overlap
            segments([0, 100, 300, 400, 200, 100, 450, 500, 600]),
            # sends from both ends; the last send stays pending
            [
                ev(0.0, C2S, seq=10, syn=True),
                ev(0.1, S2C, seq=90, ack=11, syn=True, ack_flag=True),
                ev(0.2, C2S, seq=11, ack=91, length=100, ack_flag=True),
                ev(0.3, S2C, seq=91, ack=111, length=50, ack_flag=True),
                ev(0.4, C2S, seq=111, ack=141, length=100, ack_flag=True),
            ],
        ],
        ids=["one_syn", "one_segment", "span_half_step_down", "span_half_step_up", "span_below_half",
             "isn_wraps_with_duplicate", "isn_wraps_in_order", "runs_gaps_late_fill", "both_ends_pending"],
    )
    @pytest.mark.parametrize("capture", list(CapturePoint))
    @pytest.mark.parametrize("transfer", list(TransferDirection))
    def test_boundary_traces(self, events, capture, transfer):
        assert_same_statistics(trace(events, capture, transfer))

    def test_simulated_lossy_pairs(self):
        for loss in (0.0, 0.03):
            link = LinkParams(bandwidth=20e6, one_way_delay=0.01, loss_rate=loss, reorder_rate=0.1)
            pair, _ = simulate_flow_with_stats(link, ClientParams(seed=5), 80_000, 11)
            assert_same_statistics(pair.download)
            assert_same_statistics(pair.upload)


class TestIntervalSet:
    @settings(max_examples=300, deadline=None)
    @given(
        adds=st.lists(st.tuples(st.integers(0, 60), st.integers(-2, 15)), max_size=30),
        queries=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 15)), max_size=10),
        point=st.integers(0, 80),
    )
    def test_matches_byte_set(self, adds, queries, point):
        cover, covered = IntervalSet(), set()
        ooo, sacked = [], []  # the simulator's old lists, rebuilt on every add
        for touch, (s, n) in enumerate(adds, start=1):
            got = cover.add(s, s + n)
            new = set(range(s, s + n))
            assert got == len(new & covered)
            covered |= new
            assert cover.max_end == (max(covered) + 1 if covered else None)
            if n > 0:
                ooo = ref.add_ooo(ooo, s, s + n, touch)
                sacked = ref.merge_sacked(sacked, s, s + n)
        assert cover.starts == sorted(cover.starts)
        assert all(a < b for a, b in zip(cover.starts, cover.ends))
        assert all(b < a for a, b in zip(cover.starts[1:], cover.ends))  # touching intervals merge
        assert sum(b - a for a, b in zip(cover.starts, cover.ends)) == len(covered)
        assert list(cover) == [(iv[0], iv[1]) for iv in ooo] == [tuple(iv) for iv in sacked]
        for k in range(5):
            assert cover.recent(k) == ref.sack_blocks(ooo, k)
        for s, n in queries:
            assert cover.covers(s, s + n) == ref.covers(ooo, s, s + n)
            if n > 0:
                assert cover.covers(s, s + n) == (set(range(s, s + n)) <= covered)
        assert cover.pop_through(point) == ref.absorb_ooo(ooo, point)
        assert list(cover) == [(iv[0], iv[1]) for iv in ooo]
        assert cover.recent(3) == ref.sack_blocks(ooo, 3)


class TestVectorProperties:
    def make_pair(self, seed=3):
        pair, _ = simulate_flow_with_stats(HEALTHY_LINK, ClientParams(seed=seed), 150_000, seed)
        return pair

    def test_determinism_bit_identical(self):
        cat = default_catalog()
        a = extract_signature(self.make_pair(), cat)
        b = extract_signature(self.make_pair(), cat)
        assert np.array_equal(a.values, b.values)

    def test_time_shift_invariance(self):
        cat = default_catalog()
        pair = self.make_pair()

        def shift(tr, dt):
            evs = tuple(
                PacketEvent(
                    ts=e.ts + dt, dir=e.dir, seq=e.seq, ack=e.ack, payload_len=e.payload_len,
                    syn=e.syn, fin=e.fin, rst=e.rst, ack_flag=e.ack_flag, win=e.win,
                    sack_cnt=e.sack_cnt,
                )
                for e in tr.events
            )
            return TraceRecord(tr.capture_point, tr.direction_of_transfer, evs, tr.declared_transfer_bytes)

        shifted = TracePair(download=shift(pair.download, 5.0), upload=shift(pair.upload, 5.0))
        a = extract_signature(pair, cat)
        b = extract_signature(shifted, cat)
        # identical up to float rounding of the shifted time differences
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-9)

    def test_payload_scale_property(self):
        cat = default_catalog()
        names = cat.feature_names
        pair = self.make_pair()

        def double(tr):
            evs = tuple(
                PacketEvent(
                    ts=e.ts, dir=e.dir, seq=(e.seq * 2) % 2**32, ack=(e.ack * 2) % 2**32,
                    payload_len=e.payload_len * 2, syn=e.syn, fin=e.fin, rst=e.rst,
                    ack_flag=e.ack_flag, win=e.win, sack_cnt=e.sack_cnt,
                )
                for e in tr.events
            )
            return TraceRecord(tr.capture_point, tr.direction_of_transfer, evs, tr.declared_transfer_bytes * 2)

        doubled = TracePair(download=double(pair.download), upload=double(pair.upload))
        a = extract_signature(pair, cat)
        b = extract_signature(doubled, cat)
        for prefix in ("down", "up"):
            for name in ("total_bytes_c2s", "total_bytes_s2c", "throughput", "mean_segment_size"):
                i = names.index(f"{prefix}_{name}")
                assert b.values[i] == pytest.approx(2 * a.values[i], rel=1e-12)
            for name in ("total_packets_c2s", "total_packets_s2c", "rtt_avg", "rtt_samples"):
                i = names.index(f"{prefix}_{name}")
                assert b.values[i] == pytest.approx(a.values[i], rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_nan_inf_on_random_traces(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        events = []
        ts = 0.0
        for _ in range(n):
            ts += data.draw(st.floats(min_value=0, max_value=1.0))
            events.append(
                PacketEvent(
                    ts=ts,
                    dir=data.draw(st.sampled_from([C2S, S2C])),
                    seq=data.draw(st.integers(0, 2**32 - 1)),
                    ack=data.draw(st.integers(0, 2**32 - 1)),
                    payload_len=data.draw(st.integers(0, 9000)),
                    ack_flag=data.draw(st.booleans()),
                    win=data.draw(st.integers(0, 2**20)),
                    sack_cnt=data.draw(st.integers(0, 4)),
                )
            )
        pair = TracePair(
            download=trace(events, CapturePoint.CLIENT, TransferDirection.DOWNLOAD),
            upload=trace(events, CapturePoint.SERVER, TransferDirection.UPLOAD),
        )
        sig = extract_signature(pair, default_catalog())
        assert np.all(np.isfinite(sig.values))

    def test_diagnostics_flags(self):
        cat = default_catalog()
        single = trace([ev(0.0, C2S, syn=True)])
        pair = TracePair(
            download=single,
            upload=trace([ev(0.0, C2S, syn=True)], CapturePoint.SERVER, TransferDirection.UPLOAD),
        )
        sig = extract_signature(pair, cat)
        undefined = set(sig.undefined_features(cat))
        assert "down_throughput" in undefined
        assert "down_rtt_avg" in undefined
        assert "down_total_packets_c2s" not in undefined
        assert np.all(np.isfinite(sig.values))

    def test_catalog_shape(self):
        cat = default_catalog()
        assert cat.version == "v1"
        assert cat.m == 74
        assert cat.feature_names == tuple(f"{p}_{stat.value}" for p in ("down", "up") for stat in Statistic)

    @pytest.mark.parametrize(
        "catalog",
        [
            FeatureCatalog("v2", default_catalog().feature_names),
            FeatureCatalog("v1", default_catalog().feature_names[::-1]),
        ],
        ids=["other_version", "reordered_names"],
    )
    def test_other_catalog_is_refused(self, catalog):
        pair, _ = simulate_flow_with_stats(HEALTHY_LINK, ClientParams(seed=1), 20_000, 9)
        with pytest.raises(CatalogMismatch):
            extract_signature(pair, catalog)

    def test_zero_loss_run_has_no_retransmission_artifacts(self):
        cat = default_catalog()
        names = cat.feature_names
        pair, stats = simulate_flow_with_stats(HEALTHY_LINK, ClientParams(seed=1), 200_000, 9)
        sig = extract_signature(pair, cat)
        assert stats["download"].sender_retransmissions == 0
        for name in (
            "down_retransmitted_packets",
            "down_dup_ack_count",
            "up_retransmitted_packets",
            "up_dup_ack_count",
        ):
            assert sig.values[names.index(name)] == 0.0

    def test_retransmitted_packets_are_duplicate_arrivals(self):
        # At a receiver capture a loss repair fills a hole, so it is out of
        # order; only a segment that arrives twice is retransmitted.
        names = default_catalog().feature_names
        arrivals = repairs = 0
        for loss, reorder, sack in itertools.product((0.0, 0.02, 0.08), (0.05, 0.2), (True, False)):
            link = LinkParams(bandwidth=20e6, one_way_delay=0.01, loss_rate=loss, reorder_rate=reorder)
            pair, stats = simulate_flow_with_stats(link, ClientParams(sack_enabled=sack, seed=3), 60_000, 7)
            sig = extract_signature(pair, default_catalog())
            for prefix, role in (("down", "download"), ("up", "upload")):
                duplicates = stats[role].duplicate_arrivals
                assert sig.values[names.index(f"{prefix}_retransmitted_packets")] == duplicates, (loss, reorder, sack, role)
                arrivals += duplicates
                repairs += stats[role].sender_retransmissions - duplicates
        assert arrivals > 0 and repairs > 0
