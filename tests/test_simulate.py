"""Flow simulator: determinism, conservation, fault artifacts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdiag import simulate
from netdiag.features import default_catalog, extract_signature
from netdiag.scenarios import Scenario
from netdiag.simulate import (
    HEALTHY_LINK,
    MSS,
    ClientParams,
    CwndProfile,
    LinkParams,
    simulate_flow,
    simulate_flow_with_stats,
    _TransferSim,
)
from netdiag.trace import FIELDS, TransferDirection, write_trace
from simulate_reference import simulate_reference

BYTES = 300_000
CAT = default_catalog()
NAMES = CAT.feature_names


def feature(sig, name):
    return sig.values[NAMES.index(name)]


class TestDeterminism:
    def test_byte_identical_files(self, tmp_path):
        link = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.04, reorder_rate=0.01)
        for i in range(2):
            pair = simulate_flow(link, ClientParams(seed=11), BYTES, seed=77)
            write_trace(pair.download, tmp_path / f"d{i}.csv")
            write_trace(pair.upload, tmp_path / f"u{i}.csv")
        assert (tmp_path / "d0.csv").read_bytes() == (tmp_path / "d1.csv").read_bytes()
        assert (tmp_path / "u0.csv").read_bytes() == (tmp_path / "u1.csv").read_bytes()

    def test_different_seeds_differ(self):
        link = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.04)
        a = simulate_flow(link, ClientParams(seed=11), BYTES, seed=1)
        b = simulate_flow(link, ClientParams(seed=11), BYTES, seed=2)
        assert a.download.events != b.download.events


def test_episodes_go_through_the_stats_entry_point(monkeypatch):
    # perfbench's synth workload records each episode's FlowStats by
    # replacing this module attribute, so both callers must look it up.
    real, calls = simulate.simulate_flow_with_stats, []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simulate, "simulate_flow_with_stats", recording)
    link, client = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.04), ClientParams(seed=11)
    pair = simulate_flow(link, client, 20_000, 77)
    scenario_pair = Scenario("s", link, client, 20_000, 77).simulate()
    assert calls == [(link, client, 20_000, 77)] * 2
    assert pair.download.events == scenario_pair.download.events


class TestConservation:
    @pytest.mark.parametrize("loss", [0.0, 0.03, 0.08])
    def test_delivered_equals_declared(self, loss):
        link = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=loss)
        pair, stats = simulate_flow_with_stats(link, ClientParams(seed=5), BYTES, seed=3)
        for side in ("download", "upload"):
            assert stats[side].delivered_bytes == BYTES
        # the capture at the receiver carries every delivered payload byte once
        for record in (pair.download, pair.upload):
            ev = record.events
            data = ev.is_dir(record.data_direction())
            # each byte's count of segments holding it: +1 at a segment's seq, -1 past its end
            depth = np.zeros(int((ev.seq + ev.payload_len).max()) + 1, np.int64)
            np.add.at(depth, ev.seq[data], 1)
            np.add.at(depth, (ev.seq + ev.payload_len)[data], -1)
            assert np.count_nonzero(np.cumsum(depth)) == BYTES

    def test_acks_never_cover_unsent_bytes(self):
        link = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.05)
        pair, _ = simulate_flow_with_stats(link, ClientParams(seed=5), BYTES, seed=3)
        for record in (pair.download, pair.upload):
            ev = record.events
            data = ev.is_dir(record.data_direction())
            sent_max = np.maximum.accumulate(np.where(data, ev.seq + ev.payload_len + (ev.syn | ev.fin), 0))
            acks = ~data & ev.ack_flag
            assert (ev.ack[acks] <= sent_max[acks] + 1).all()


class TestNullCase:
    def test_no_loss_no_artifacts(self):
        pair, stats = simulate_flow_with_stats(HEALTHY_LINK, ClientParams(seed=8), BYTES, seed=4)
        sig = extract_signature(pair, CAT)
        for side in ("download", "upload"):
            assert stats[side].sender_retransmissions == 0
            assert stats[side].dropped_data_packets == 0
        for prefix in ("down", "up"):
            assert feature(sig, f"{prefix}_retransmitted_packets") == 0
            assert feature(sig, f"{prefix}_dup_ack_count") == 0
            assert feature(sig, f"{prefix}_out_of_order_packets") == 0


class TestFaultArtifacts:
    def test_loss_separates_by_10x(self):
        client = ClientParams(seed=2)
        lossy = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.05)
        healthy_pair, healthy_stats = simulate_flow_with_stats(HEALTHY_LINK, client, BYTES, 21)
        faulty_pair, faulty_stats = simulate_flow_with_stats(lossy, client, BYTES, 21)
        healthy = extract_signature(healthy_pair, CAT)
        faulty = extract_signature(faulty_pair, CAT)
        # receiver-visible recovery artifacts explode under loss
        for name in ("down_dup_ack_count", "down_sack_blocks_total"):
            assert feature(faulty, name) > 10 * max(feature(healthy, name), 1.0)
        for name in ("down_out_of_order_packets", "down_triple_dup_ack_events"):
            assert feature(healthy, name) == 0 and feature(faulty, name) > 0
        # simulator bookkeeping is the ground truth for sender retransmissions
        assert healthy_stats["download"].sender_retransmissions == 0
        assert faulty_stats["download"].sender_retransmissions >= 10

    def test_read_buffer_window_ratio(self):
        small = extract_signature(
            simulate_flow(HEALTHY_LINK, ClientParams(read_buffer=16384, seed=2), BYTES, seed=6), CAT
        )
        large = extract_signature(
            simulate_flow(HEALTHY_LINK, ClientParams(read_buffer=1 << 20, seed=2), BYTES, seed=6), CAT
        )
        ratio = feature(small, "down_win_max") / feature(large, "down_win_max")
        assert ratio == pytest.approx(16384 / (1 << 20), rel=1e-6)
        assert feature(small, "down_throughput") < feature(large, "down_throughput")
        # 16 KB against a 100 KB bandwidth-delay pipe: window-limited throughput
        rtt = 2 * HEALTHY_LINK.one_way_delay
        assert feature(small, "down_throughput") == pytest.approx(16384 / rtt, rel=0.35)

    def test_write_buffer_caps_upload(self):
        small = extract_signature(
            simulate_flow(HEALTHY_LINK, ClientParams(write_buffer=16384, seed=2), BYTES, seed=6), CAT
        )
        large = extract_signature(simulate_flow(HEALTHY_LINK, ClientParams(seed=2), BYTES, seed=6), CAT)
        assert feature(small, "up_throughput") < 0.5 * feature(large, "up_throughput")
        assert feature(small, "up_win_max") == feature(large, "up_win_max")

    def test_delay_inflates_rtt(self):
        slow = extract_signature(
            simulate_flow(
                LinkParams(bandwidth=80e6, one_way_delay=0.05), ClientParams(seed=2), BYTES, seed=6
            ),
            CAT,
        )
        fast = extract_signature(simulate_flow(HEALTHY_LINK, ClientParams(seed=2), BYTES, seed=6), CAT)
        assert feature(slow, "down_rtt_avg") > 2 * feature(fast, "down_rtt_avg")

    def test_sack_gating(self):
        # sack disabled at the client silences sack counts on every packet
        pair = simulate_flow(
            LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.05),
            ClientParams(sack_enabled=False, dsack_enabled=False, seed=2),
            BYTES,
            seed=6,
        )
        for record in (pair.download, pair.upload):
            assert not record.events.sack_cnt.any()

    def test_sack_blocks_appear_under_loss(self):
        pair = simulate_flow(
            LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.05),
            ClientParams(seed=2),
            BYTES,
            seed=6,
        )
        sig = extract_signature(pair, CAT)
        assert feature(sig, "down_sack_blocks_total") > 10
        assert feature(sig, "down_max_sack_cnt") >= 2

    def test_capability_channels(self):
        def totals(client):
            sig = extract_signature(simulate_flow(HEALTHY_LINK, client, 50_000, seed=6), CAT)
            return feature(sig, "down_sack_blocks_total")

        healthy = totals(ClientParams(seed=1))
        sack_off = totals(ClientParams(sack_enabled=False, dsack_enabled=False, seed=1))
        dsack_off = totals(ClientParams(dsack_enabled=False, seed=1))
        assert sack_off < healthy < dsack_off

    def test_retransmissions_monotone_in_loss(self):
        rates = [0.0, 0.01, 0.03, 0.05, 0.08]
        for seed in (1, 2, 3):
            counts = []
            for rate in rates:
                link = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=rate)
                _, stats = simulate_flow_with_stats(link, ClientParams(seed=9), BYTES, seed=seed)
                counts.append(
                    stats["download"].sender_retransmissions + stats["upload"].sender_retransmissions
                )
            assert counts == sorted(counts), f"seed {seed}: {counts}"

    def test_reordering_without_loss(self):
        pair, stats = simulate_flow_with_stats(
            LinkParams(bandwidth=80e6, one_way_delay=0.01, reorder_rate=0.05),
            ClientParams(seed=4),
            BYTES,
            seed=8,
        )
        sig = extract_signature(pair, CAT)
        assert stats["download"].dropped_data_packets == 0
        assert feature(sig, "down_out_of_order_packets") > 0
        assert feature(sig, "down_dup_ack_count") > 0

    def test_profiles_produce_distinct_traces(self):
        sigs = {}
        for profile in CwndProfile:
            pair = simulate_flow(
                HEALTHY_LINK, ClientParams(cwnd_growth_profile=profile, seed=3), BYTES, seed=9
            )
            sigs[profile] = extract_signature(pair, CAT).values
        assert not np.array_equal(sigs[CwndProfile.CUBICLIKE], sigs[CwndProfile.RENOLIKE])
        assert not np.array_equal(sigs[CwndProfile.BICLIKE], sigs[CwndProfile.RENOLIKE])


class TestValidation:
    def test_param_invariants(self):
        with pytest.raises(ValueError):
            LinkParams(bandwidth=0, one_way_delay=0.01)
        with pytest.raises(ValueError):
            LinkParams(bandwidth=1e6, one_way_delay=0.01, loss_rate=1.0)
        with pytest.raises(ValueError):
            ClientParams(read_buffer=0)
        with pytest.raises(ValueError):
            simulate_flow(HEALTHY_LINK, ClientParams(), 0, seed=1)

    @pytest.mark.parametrize(
        "field, value",
        [("read_buffer", 1.5), ("read_buffer", True), ("write_buffer", 2048.0), ("write_buffer", -1), ("seed", 0.5)],
    )
    def test_client_integers_are_strict(self, field, value):
        # A fractional read_buffer used to end the simulation in a
        # conservation error, and a bool passed as buffer size 1.
        with pytest.raises(ValueError, match=f"client.{field}"):
            ClientParams(**{field: value})

    @pytest.mark.parametrize("field", ["read_buffer", "write_buffer"])
    def test_buffers_hold_at_least_one_segment(self, field):
        # A buffer below one segment once ended the simulation in a
        # conservation error.
        with pytest.raises(ValueError, match=f"client.{field} must be at least {MSS}, got {MSS - 1}"):
            ClientParams(**{field: MSS - 1})
        assert getattr(ClientParams(**{field: MSS}), field) == MSS

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_segment_buffers_conserve_bytes(self, seed):
        link = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.05, reorder_rate=0.05)
        client = ClientParams(read_buffer=MSS, write_buffer=MSS, seed=seed)
        _, stats = simulate_flow_with_stats(link, client, 50_000, seed=seed)
        assert stats["download"].delivered_bytes == stats["upload"].delivered_bytes == 50_000

    def test_trace_invariants_hold(self):
        pair = simulate_flow(
            LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.06),
            ClientParams(seed=5),
            BYTES,
            seed=10,
        )
        for record in (pair.download, pair.upload):
            ev = record.events
            assert (np.diff(ev.ts) >= 0).all()
            assert ev.ts[0] == 0.0
            assert not ev.payload_len[ev.syn | ev.fin | ev.rst].any()


class TestSackBlocks:
    def test_blocks_report_the_most_recent_intervals_first(self):
        # RFC 2018 section 4: the first block holds the latest arrival,
        # the next ones the most recently reported other intervals.
        sim = _TransferSim(HEALTHY_LINK, ClientParams(), 10 * MSS, 0, TransferDirection.DOWNLOAD)
        for i, k in enumerate((0, 2, 4, 6, 8)):
            sim._on_data(0.001 * i, k)
        _, _, offset, blocks, _ = sim.acks[-1]  # the ack sent last
        assert offset == MSS
        assert blocks == ((8 * MSS, 9 * MSS), (6 * MSS, 7 * MSS), (4 * MSS, 5 * MSS))


class TestEventOrder:
    def test_a_reordered_arrival_goes_first_on_a_tie(self):
        # Ties in time break by tick: a reordered segment, sent before a direct
        # one that arrives at the same time, reaches the receiver first.
        sim = _TransferSim(HEALTHY_LINK, ClientParams(), 10 * MSS, 0, TransferDirection.DOWNLOAD)
        sim.reordered.append((0.5, next(sim.tick), 1))
        sim.reordered.append((0.6, next(sim.tick), 2))
        sim._deliver(0.5, next(sim.tick), 0)
        assert [record[2] // MSS for record in sim.captured] == [1, 0]
        assert [entry[2] for entry in sim.reordered] == [2]


class TestRtoTimer:
    def test_the_slot_moves_rarely_on_a_healthy_link(self):
        # Each transmission and each ack draws one tick, and the RTO slot one
        # per move.  New acks push the deadline later without moving the
        # slot, so it moves a few times per transfer, not once per new ack.
        sim = _TransferSim(HEALTHY_LINK, ClientParams(), 2 << 20, 1207, TransferDirection.DOWNLOAD)
        _, stats = sim.run()
        assert stats.rto_events == 0
        assert 1 <= next(sim.tick) - stats.sender_transmissions - stats.acks_sent <= 8
        assert sim.timer is None

    def test_arming_moves_the_slot_only_before_it(self):
        sim = _TransferSim(HEALTHY_LINK, ClientParams(), 10 * MSS, 0, TransferDirection.DOWNLOAD)
        sim._arm_timer(0.0)  # the initial RTO of 1 s
        first = sim.timer
        assert first[0] == sim.rto_deadline == 1.0
        sim._arm_timer(0.5)
        assert sim.timer == first and sim.rto_deadline == 1.5
        sim.rto = 0.2
        sim._arm_timer(0.6)
        assert sim.timer[0] == sim.rto_deadline == 0.8 and sim.timer[1] > first[1]

    def test_timeouts_when_the_deadline_moves_earlier(self):
        # A new ack resets the backoff and the first RTT sample lowers the
        # RTO, so the deadline moves before the slot; the timer must then
        # fire at the earlier deadline, not at the slot's old time.
        link = LinkParams(bandwidth=80e6, one_way_delay=0.08, loss_rate=0.3)
        _, stats = simulate_flow_with_stats(link, ClientParams(seed=1), 120_000, seed=1)
        assert (stats["download"].rto_events, stats["upload"].rto_events) == (49, 9)


def _zero_or_up_to(high):
    return st.one_of(st.just(0.0), st.floats(0.0, high))


LINKS = st.builds(
    LinkParams,
    bandwidth=st.one_of(st.sampled_from([1e6, 20e6, 80e6, 1e9]), st.floats(1e5, 1e10)),
    one_way_delay=_zero_or_up_to(0.1),
    loss_rate=_zero_or_up_to(0.2),
    reorder_rate=_zero_or_up_to(0.5),
)
BUFFERS = st.one_of(st.sampled_from([MSS, MSS + 1, 2 * MSS]), st.integers(MSS, 300_000))
CLIENTS = st.builds(
    ClientParams,
    sack_enabled=st.booleans(),
    dsack_enabled=st.booleans(),
    read_buffer=BUFFERS,
    write_buffer=BUFFERS,
    cwnd_growth_profile=st.sampled_from(CwndProfile),
    seed=st.integers(0, 2**64 - 1),
)
SIZES = st.one_of(st.integers(1, 3 * MSS), st.integers(1, 60_000))


@settings(max_examples=300, deadline=None)
@given(link=LINKS, client=CLIENTS, size=SIZES, seed=st.integers(0, 2**64 - 1))
def test_ordered_queues_match_the_heap_loop(link, client, size, seed):
    """Each column's bytes and each FlowStats equal those of the original
    heap loop (tests/simulate_reference.py) on any link, client and size."""
    pair, stats = simulate_flow_with_stats(link, client, size, seed)
    ref_pair, ref_stats = simulate_reference(link, client, size, seed)
    assert stats == ref_stats
    for record, ref in ((pair.download, ref_pair.download), (pair.upload, ref_pair.upload)):
        for name in FIELDS:
            column, ref_column = getattr(record.events, name), getattr(ref.events, name)
            assert column.dtype == ref_column.dtype and column.tobytes() == ref_column.tobytes(), name
