"""Desk-scale TCP-like flow simulator with fault injection.

This is a coarse behavioral model, not a protocol implementation.  Its
job is to make configured faults leave the artifacts a passive trace
analyzer can see: losses produce gaps, duplicate acks, selective-ack
blocks and retransmitted arrivals; small receive buffers cap the
advertised window; small send buffers cap the data in flight; extra
path delay inflates the handshake round trip and stretches the transfer.

Each simulated episode renders two captures, one per transfer, both
taken at the data-receiving endpoint: the download at the client, the
upload at the server.  Packets originating at the capture point are
recorded before the link can drop them; packets from the far side
appear only if they survive the link.

Capability signaling: the client's SYN carries one option block when
selective acknowledgment is enabled (echoed on the server's SYN-ACK,
as real stacks only acknowledge an offered option), and the handshake
ack carries one block when selective acknowledgment is on but
duplicate-extent reporting is off, standing in for the option bytes a
real handshake exposes.  Encoding the two settings on separate handshake packets keeps
the two faults separable in the aggregate block counts: each fault
moves the totals to its own side of the healthy baseline.  Gap-driven
blocks appear on acks only when negotiated; duplicate arrivals
additionally raise the block count when duplicate-extent reporting is
on.

All randomness is derived from explicit 64-bit seeds via splitmix64
(see rng.py).  Loss draws are keyed by (segment index, attempt) so a
higher loss rate drops a superset of packets for the same seed.  Each
stream feeds only its own comparison, so a loss-free link draws no loss
randomness and a link without reordering draws no reorder randomness.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .preprocess import parse_bool, parse_integer, parse_real
from .rng import derive_seed, keyed_uniform, uniform_stream
from .trace import (
    SEQ_MOD,
    CapturePoint,
    Direction,
    IntervalSet,
    PacketColumns,
    TracePair,
    TraceRecord,
    TransferDirection,
    direction_codes,
)

MSS = 1448
HEADER_BYTES = 40
SERVER_BUFFER = 262144
SERVER_SEND_BUFFER = 1 << 20
MIN_RTO = 0.2
INITIAL_RTO = 1.0
ACK_JITTER_MAX = 0.001
CWND_CAP = 1 << 22
MAX_SACK_BLOCKS = 3


class CwndProfile(enum.Enum):
    CUBICLIKE = "cubiclike"
    BICLIKE = "biclike"
    RENOLIKE = "renolike"


_INIT_CWND_MSS = {
    CwndProfile.CUBICLIKE: 10,
    CwndProfile.BICLIKE: 8,
    CwndProfile.RENOLIKE: 4,
}


@dataclass(frozen=True)
class LinkParams:
    bandwidth: float  # bits/s
    one_way_delay: float  # seconds
    loss_rate: float = 0.0
    reorder_rate: float = 0.0

    def __post_init__(self):
        for name in ("bandwidth", "one_way_delay", "loss_rate", "reorder_rate"):
            parse_real(getattr(self, name), f"link.{name}", minimum=0)
        if not (self.bandwidth > 0 and self.loss_rate < 1 and self.reorder_rate < 1):
            raise ValueError("link.bandwidth must be positive, link.loss_rate and link.reorder_rate below 1")


HEALTHY_LINK = LinkParams(bandwidth=80e6, one_way_delay=0.010)


def link_is_healthy(link: LinkParams) -> bool:
    """The corpus rule for a healthy link: no loss and no more one-way delay than HEALTHY_LINK."""
    return link.loss_rate == 0 and link.one_way_delay <= HEALTHY_LINK.one_way_delay


@dataclass(frozen=True)
class ClientParams:
    sack_enabled: bool = True
    dsack_enabled: bool = True
    read_buffer: int = 262144
    write_buffer: int = 262144
    cwnd_growth_profile: CwndProfile = CwndProfile.CUBICLIKE
    seed: int = 0

    def __post_init__(self):
        parse_bool(self.sack_enabled, "client.sack_enabled")
        parse_bool(self.dsack_enabled, "client.dsack_enabled")
        # A buffer below one segment would hold no segment, and the transfer would stall.
        parse_integer(self.read_buffer, "client.read_buffer", minimum=MSS)
        parse_integer(self.write_buffer, "client.write_buffer", minimum=MSS)
        parse_integer(self.seed, "client.seed")
        # A scenario file names the profile by its value.
        object.__setattr__(self, "cwnd_growth_profile", CwndProfile(self.cwnd_growth_profile))


@dataclass
class FlowStats:
    """Simulator-side ground truth for one transfer."""

    transfer_bytes: int = 0
    data_segments: int = 0
    sender_transmissions: int = 0
    sender_retransmissions: int = 0
    rto_events: int = 0
    fast_retransmits: int = 0
    dropped_data_packets: int = 0
    dropped_acks: int = 0
    duplicate_arrivals: int = 0
    acks_sent: int = 0
    delivered_bytes: int = 0


class _TransferSim:
    """One reliable transfer over one lossy pipe, captured at the receiver."""

    def __init__(self, link: LinkParams, client: ClientParams, transfer_bytes: int,
                 seed: int, transfer: TransferDirection):
        self.link = link
        self.owd = link.one_way_delay
        self.loss_rate = link.loss_rate
        self.reorder_rate = link.reorder_rate
        self.ser0 = self._ser(0)  # serialization time of a packet without payload
        self.client = client
        self.B = int(transfer_bytes)
        self.transfer = transfer
        self.down = transfer is TransferDirection.DOWNLOAD

        # Roles: the client initiates both transfers; data flows from the
        # server for a download and from the client for an upload.
        # Directions are `dir` column codes.
        self.c2s, self.s2c = direction_codes((Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT)).tolist()
        self.data_dir = self.s2c if self.down else self.c2s
        self.ack_dir = self.c2s if self.down else self.s2c
        self.profile = CwndProfile.CUBICLIKE if self.down else client.cwnd_growth_profile
        self.write_buffer = SERVER_SEND_BUFFER if self.down else client.write_buffer
        self.read_buffer = client.read_buffer if self.down else SERVER_BUFFER
        self.sender_rwnd = SERVER_BUFFER if self.down else client.read_buffer
        self.sack = client.sack_enabled
        self.dsack = client.dsack_enabled and client.sack_enabled
        self.syn_sack_cnt = 1 if self.sack else 0
        self.hs_ack_sack_cnt = 1 if (self.sack and not self.dsack) else 0

        self.n_segs = (self.B + MSS - 1) // MSS
        self.seg_end = [min((k + 1) * MSS, self.B) for k in range(self.n_segs)]
        # wire times of a full segment and of the last one, which may be partial
        self.last_seg = self.n_segs - 1
        self.ser_mss, self.ser_last = self._ser(MSS), self._ser(self.B - self.last_seg * MSS)
        self.reorder_delay = 0.001 + 3.0 * self.ser_mss
        self.stats = FlowStats(transfer_bytes=self.B, data_segments=self.n_segs)

        label = transfer.value
        self.loss_seed = derive_seed(seed, label, "data-loss")
        self.ack_loss = uniform_stream(derive_seed(seed, label, "ack-loss"))
        self.reorder = uniform_stream(derive_seed(seed, label, "reorder"))
        role = "client-ack" if self.down else "server-ack"
        self.jitter = uniform_stream(derive_seed(client.seed, label, role))

        # sender state (offsets are payload bytes; FIN occupies offset B)
        self.snd_una = 0
        self.snd_nxt = 0
        self.next_seg = 0
        self.cwnd = float(_INIT_CWND_MSS[self.profile] * MSS)
        self.ssthresh = float(1 << 30)
        self.w_max = float(1 << 30)
        self.t_loss = 0.0
        self.peer_rwnd = self.read_buffer
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_until = 0
        self.recovery_rexmits: set[int] = set()
        self.sacked = IntervalSet()  # payload-space intervals
        self.first_send = [0.0] * self.n_segs  # first transmission time, per segment
        self.next_sample_seg = 0
        self.srtt: float | None = None
        self.rto = INITIAL_RTO
        self.backoff = 1
        self.rto_deadline: float | None = None  # None: the timer is disarmed
        self.timer_at: float | None = None  # time of the one live RTO heap entry
        self.fin_sent = False
        self.fin_acked = False
        self.fin_attempts = 0
        self.attempts = [0] * self.n_segs  # retransmissions so far, per segment

        # receiver state
        self.rcv_nxt = 0
        self.ooo = IntervalSet()
        self.last_ack_t = 0.0

        self.busy = [0.0, 0.0]  # link free time, by direction code
        self.heap: list = []
        self.tick = itertools.count()
        self.captured: list[tuple] = []  # packets as PacketEvent field tuples, dir as a code
        self.done_events = 0

    # -- wire helpers -------------------------------------------------

    def _ser(self, payload: int) -> float:
        return (payload + HEADER_BYTES) * 8.0 / self.link.bandwidth

    # -- sender -------------------------------------------------------

    def _lost(self, k: int, attempt: int) -> bool:
        """Whether transmission `attempt` of segment k (k = n_segs: the FIN) is lost."""
        return self.loss_rate > 0 and keyed_uniform(self.loss_seed, k, attempt) < self.loss_rate

    # Per packet, max(a, b) is written `b if b > a else a` (min alike): the builtin's operand.
    def _transmit(self, k: int, attempt: int, now: float) -> None:
        busy, d = self.busy, self.data_dir
        free = busy[d]
        dep = (free if free > now else now) + (self.ser_last if k == self.last_seg else self.ser_mss)
        busy[d] = dep
        stats = self.stats
        stats.sender_transmissions += 1
        if self.loss_rate > 0 and keyed_uniform(self.loss_seed, k, attempt) < self.loss_rate:
            stats.dropped_data_packets += 1
            return
        arrive = dep + self.owd
        if self.reorder_rate > 0 and next(self.reorder) < self.reorder_rate:
            arrive += self.reorder_delay
        heappush(self.heap, (arrive, next(self.tick), self._on_data, k))

    def _retransmit(self, k: int, now: float) -> None:
        # attempts are tracked per segment so loss draws stay keyed
        self.stats.sender_retransmissions += 1
        self.attempts[k] += 1
        self._transmit(k, self.attempts[k], now)

    def _send_fin(self, now: float) -> None:
        self.fin_sent = True
        dep = max(now, self.busy[self.data_dir]) + self.ser0
        self.busy[self.data_dir] = dep
        if not self._lost(self.n_segs, self.fin_attempts):
            heappush(self.heap, (dep + self.owd, next(self.tick), self._on_fin, None))
        self.fin_attempts += 1
        self._arm_timer(now)

    def _arm_timer(self, now: float) -> None:
        # One live heap entry stands for the timer.  Push only when there is
        # none or the deadline moved before it; the passed-over entry is an
        # orphan, dropped when it pops.
        self.rto_deadline = deadline = now + self.rto * self.backoff
        if self.timer_at is None or deadline < self.timer_at:
            self.timer_at = deadline
            heappush(self.heap, (deadline, next(self.tick), self._on_rto, None))

    def _try_send(self, now: float) -> None:
        k, n = self.next_seg, self.n_segs
        if k == n:
            return
        limit, rwnd, wbuf = self.cwnd, float(self.peer_rwnd), float(self.write_buffer)
        if rwnd < limit:
            limit = rwnd
        if wbuf < limit:
            limit = wbuf
        seg_end, una, snd_nxt = self.seg_end, self.snd_una, self.snd_nxt
        while k < n:
            e = seg_end[k]
            if (snd_nxt - una) + (e - k * MSS) > limit:
                break
            self.first_send[k] = now
            self._transmit(k, 0, now)
            snd_nxt = e
            k += 1
            if self.rto_deadline is None:
                self._arm_timer(now)
        self.snd_nxt, self.next_seg = snd_nxt, k

    def _next_proven_hole(self) -> int | None:
        """First un-sacked segment strictly below the highest sacked byte.

        Segments above the sacked region are merely in flight, not lost;
        retransmitting them would be spurious.
        """
        high = self.sacked.max_end or 0
        k = self.snd_una // MSS
        while k < self.next_seg:
            e = self.seg_end[k]
            if e > high:
                return None
            if e > self.snd_una and not self.sacked.covers(max(k * MSS, self.snd_una), e):
                if k not in self.recovery_rexmits:
                    return k
            k += 1
        return None

    def _retransmit_una_segment(self, now: float) -> None:
        k = self.snd_una // MSS
        if k < self.next_seg and k not in self.recovery_rexmits:
            self.recovery_rexmits.add(k)
            self._retransmit(k, now)

    def _enter_recovery(self, now: float) -> None:
        flight = max(self.snd_nxt - self.snd_una, MSS)
        self.ssthresh = max(flight / 2.0, 2.0 * MSS)
        self.w_max = self.cwnd
        self.cwnd = self.ssthresh
        self.t_loss = now
        self.in_recovery = True
        self.recovery_until = self.snd_nxt
        self.recovery_rexmits = set()
        self.stats.fast_retransmits += 1
        # the triple duplicate ack proves the cumulative-ack hole is lost
        self._retransmit_una_segment(now)

    def _grow_cwnd(self, bytes_acked: int, now: float) -> None:
        if self.cwnd < self.ssthresh:
            cwnd = self.cwnd + bytes_acked
            self.cwnd = CWND_CAP if CWND_CAP < cwnd else cwnd
            return
        dt = now - self.t_loss
        base = MSS * MSS / self.cwnd
        if self.profile is CwndProfile.RENOLIKE:
            inc = base
        elif self.profile is CwndProfile.BICLIKE:
            if self.w_max > self.cwnd:
                inc = min((self.w_max - self.cwnd) / 2.0, 16.0 * MSS) * (MSS / self.cwnd)
            else:
                inc = base
        else:  # cubic-like: convex re-probe after a loss event
            reprobe = 1.0 + 4.0 * dt * dt
            inc = base * (12.0 if 12.0 < reprobe else reprobe)
        cwnd = self.cwnd + inc
        self.cwnd = CWND_CAP if CWND_CAP < cwnd else cwnd

    def _sample_rtt(self, now: float) -> None:
        while self.next_sample_seg < self.next_seg:
            if self.seg_end[self.next_sample_seg] > self.snd_una:
                break
            k = self.next_sample_seg
            if not self.attempts[k]:  # Karn's rule: no sample from a retransmitted segment
                sample = now - self.first_send[k]
                self.srtt = sample if self.srtt is None else 0.875 * self.srtt + 0.125 * sample
                rto = 2.0 * self.srtt
                self.rto = rto if rto > MIN_RTO else MIN_RTO
            self.next_sample_seg += 1

    def _on_ack(self, now: float, payload) -> None:
        a, blocks, rwnd = payload
        self.peer_rwnd = rwnd
        for bs, be in blocks:
            self.sacked.add(bs, be)
        una, B = self.snd_una, self.B
        if a > una:
            acked_payload = (B if B < a else a) - (B if B < una else una)
            self.snd_una = a
            self.dupacks = 0
            self.backoff = 1
            k = self.next_sample_seg
            if k < self.next_seg and self.seg_end[k] <= a:
                self._sample_rtt(now)
            if self.in_recovery:
                if a >= self.recovery_until:
                    self.in_recovery = False
                else:
                    # partial ack: the new cumulative hole is proven lost
                    self._retransmit_una_segment(now)
            elif acked_payload > 0:
                self._grow_cwnd(acked_payload, now)
            if self.snd_una >= self.B and not self.fin_sent:
                self._send_fin(now)
            elif self.fin_sent and a >= self.B + 1:
                self.fin_acked = True
                self.rto_deadline = None
            elif self.snd_una < self.snd_nxt or (self.fin_sent and not self.fin_acked):
                self._arm_timer(now)
            else:
                self.rto_deadline = None
            self._try_send(now)
        elif a == self.snd_una and self.snd_una < self.B:
            self.dupacks += 1
            if self.dupacks == 3 and not self.in_recovery:
                self._enter_recovery(now)
            elif self.in_recovery and self.sack and blocks:
                hole = self._next_proven_hole()
                if hole is not None:
                    self.recovery_rexmits.add(hole)
                    self._retransmit(hole, now)
            self._try_send(now)

    def _on_rto(self, now: float, _payload) -> None:
        if now != self.timer_at:
            return  # an orphan
        self.timer_at = None
        if self.rto_deadline is None:
            return
        if self.rto_deadline > now:
            # acks moved the deadline later without a push (mod_timer), so
            # the live entry popped early and re-pushes itself at the deadline
            self.timer_at = self.rto_deadline
            heappush(self.heap, (self.timer_at, next(self.tick), self._on_rto, None))
            return
        self.stats.rto_events += 1
        self.backoff = min(self.backoff * 2, 64)
        if self.fin_sent and not self.fin_acked and self.snd_una >= self.B:
            self._send_fin(now)
            return
        if self.snd_una < self.snd_nxt:
            self.w_max = self.cwnd
            self.ssthresh = max((self.snd_nxt - self.snd_una) / 2.0, 2.0 * MSS)
            self.cwnd = float(MSS)
            self.t_loss = now
            self.in_recovery = False
            self.recovery_rexmits = set()
            self._retransmit(self.snd_una // MSS, now)
            self._arm_timer(now)
        else:
            self.rto_deadline = None

    # -- receiver -----------------------------------------------------

    def _send_ack(self, now: float, dup_arrival: bool, fin_seen: bool = False) -> None:
        rwnd, blocks, ooo = self.read_buffer, (), self.ooo
        if ooo.starts:
            rwnd -= sum(ooo.ends) - sum(ooo.starts)
            if rwnd < 0:
                rwnd = 0
            if self.sack:  # the first block reports the latest arrival (RFC 2018)
                blocks = tuple(ooo.recent(MAX_SACK_BLOCKS))
        sack_cnt = len(blocks) + (1 if dup_arrival and self.dsack else 0)
        t, last = now + next(self.jitter) * ACK_JITTER_MAX, self.last_ack_t
        if last > t:
            t = last
        self.last_ack_t = t
        offset = self.rcv_nxt + 1 if fin_seen and self.rcv_nxt >= self.B else self.rcv_nxt  # the FIN is offset B
        self.captured.append((t, self.ack_dir, 1, offset + 1, 0, 0, 0, 0, 1, rwnd, sack_cnt))
        stats = self.stats
        stats.acks_sent += 1
        busy, d = self.busy, self.ack_dir
        free = busy[d]
        dep = (free if free > t else t) + self.ser0
        busy[d] = dep
        if self.loss_rate > 0 and next(self.ack_loss) < self.loss_rate:
            stats.dropped_acks += 1
            return
        heappush(self.heap, (dep + self.owd, next(self.tick), self._on_ack, (offset, blocks, rwnd)))

    def _on_data(self, now: float, k: int) -> None:
        s, e = k * MSS, self.seg_end[k]
        rcv_nxt, ooo = self.rcv_nxt, self.ooo
        dup = e <= rcv_nxt or (ooo.covers(s, e) if ooo.starts else False)
        if dup:
            self.stats.duplicate_arrivals += 1
        elif s <= rcv_nxt:  # in order: e passes rcv_nxt, and held data may follow it
            self.rcv_nxt = ooo.pop_through(e) if ooo.starts else e
        else:
            ooo.add(s, e)
        self.captured.append((now, self.data_dir, 1 + s, 1, e - s, 0, 0, 0, 1, self.sender_rwnd, 0))
        self._send_ack(now, dup)

    def _on_fin(self, now: float, _payload) -> None:
        self.captured.append((now, self.data_dir, 1 + self.B, 1, 0, 0, 1, 0, 1, self.sender_rwnd, 0))
        self._send_ack(now, False, True)

    # -- top level ----------------------------------------------------

    def run(self) -> tuple[TraceRecord, FlowStats]:
        ser0, owd = self.ser0, self.owd
        # Handshake (never lost): SYN, SYN-ACK, ACK.  The client SYN
        # carries the capability signal; the server answers with one block.
        c2s, s2c = self.c2s, self.s2c
        syn_dep = self.busy[c2s] + ser0
        self.busy[c2s] = syn_dep
        syn_arr = syn_dep + owd
        synack_dep = max(syn_arr, self.busy[s2c]) + ser0
        self.busy[s2c] = synack_dep
        synack_arr = synack_dep + owd
        hs_ack_dep = max(synack_arr, self.busy[c2s]) + ser0
        self.busy[c2s] = hs_ack_dep
        hs_ack_arr = hs_ack_dep + owd

        # capture at the client for a download, at the server for an
        # upload: own packets at send time, far side on arrival
        syn_t, synack_t, hs_ack_t = (0.0, synack_arr, synack_arr) if self.down else (syn_arr, syn_arr, hs_ack_arr)
        self.captured += [
            (syn_t, c2s, 0, 0, 0, 1, 0, 0, 0, self.client.read_buffer, self.syn_sack_cnt),
            (synack_t, s2c, 0, 1, 0, 1, 0, 0, 1, SERVER_BUFFER, self.syn_sack_cnt),
            (hs_ack_t, c2s, 1, 1, 0, 0, 0, 0, 1, self.client.read_buffer, self.hs_ack_sack_cnt),
        ]
        self.last_ack_t = synack_t
        # the server may send once the handshake ack lands, the client once the SYN-ACK does
        self._try_send(hs_ack_arr if self.down else synack_arr)

        limit = 400 * self.n_segs + 200_000
        heap, events = self.heap, 0
        while heap:
            now, _, handler, payload = heappop(heap)
            handler(now, payload)
            events += 1
            if events > limit:
                raise RuntimeError("simulator event budget exceeded; parameters degenerate")
        self.done_events = events

        if self.rcv_nxt != self.B:
            raise RuntimeError(f"conservation violated: delivered {self.rcv_nxt} of {self.B} bytes")
        self.stats.delivered_bytes = self.rcv_nxt

        ts, dirs, seq, ack, *rest = zip(*self.captured)
        ts = np.array(ts)
        order = np.argsort(ts, kind="stable")  # ties keep capture order
        columns = [ts - ts.min(), np.array(dirs, np.int8), np.array(seq) % SEQ_MOD, np.array(ack) % SEQ_MOD, *rest]
        events = PacketColumns(*(np.asarray(col)[order] for col in columns))
        capture = CapturePoint.CLIENT if self.down else CapturePoint.SERVER
        return TraceRecord(capture, self.transfer, events, self.B), self.stats


def simulate_flow_with_stats(
    link: LinkParams, client: ClientParams, transfer_bytes: int, seed: int
) -> tuple[TracePair, dict[str, FlowStats]]:
    if transfer_bytes <= 0:
        raise ValueError("transfer_bytes must be positive")
    (down, down_stats), (up, up_stats) = (
        _TransferSim(link, client, transfer_bytes, derive_seed(seed, t.value), t).run()
        for t in (TransferDirection.DOWNLOAD, TransferDirection.UPLOAD)
    )
    return TracePair(download=down, upload=up), {"download": down_stats, "upload": up_stats}


def simulate_flow(link: LinkParams, client: ClientParams, transfer_bytes: int, seed: int) -> TracePair:
    """Deterministic synthetic trace pair for one episode."""
    pair, _ = simulate_flow_with_stats(link, client, transfer_bytes, seed)
    return pair
