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

Event order.  Each transfer is a conservative discrete-event simulation
(Chandy & Misra, IEEE TSE 5(5), 1979): sender and receiver share no
state but packets that cross the link with a delay, so an arrival can be
handled before its time as long as nothing sent later can overtake it.
A link's departures never go back in time (`busy`), so no packet sent
after a segment arrives before it, and the receiver handles a data or
FIN segment the link delivers without reordering the moment it is sent.
A reordered segment arrives `reorder_delay` late, the same for each, so
reordered segments wait in one FIFO (`reordered`) in arrival order;
before a segment is handled at send time, every reordered arrival that
comes before it is handled (`_deliver`), and while none waits the
sender hands the segment straight to the receiver.  The receiver has
one handler, `_on_data`, for data and FIN (segment n_segs) alike, which
builds and sends the ack of each arrival.  Acks wait for the sender in
a FIFO (`acks`), in order for the same reason, and the retransmission
timer is one (time, tick) slot.  The loop handles the earliest of the
ack head, the reordered head and the slot.  Ties break by tick: one
counter, drawn when a segment is transmitted, when an ack is sent and
when the slot moves, so of two events at the same time the one queued
first goes first.  This is the order of one heap of all events;
tests/simulate_reference.py keeps that heap loop as an oracle.  (There
the receiver draws an ack's tick when the arrival pops, not when the
segment is sent, which could only matter when an ack falls at exactly
the float time of the slot or of a reordered arrival.)

Sending.  Each time the sender may send, it counts the segments the
window lets out and hands the run to `_transmit`, which puts them on the
wire back to back and hands each survivor over as above; a
retransmission is a run of one.  The receiver touches no sender state,
so the window is counted before the run goes out.  SACK recovery resends
the first proven hole (RFC 6675's NextSeg): the first segment below the
highest sacked byte with a byte at or past the cumulative ack that no
sacked interval holds.  `_next_proven_hole` walks the gaps between the
scoreboard's intervals to find it, not every segment.

All randomness is derived from explicit 64-bit seeds via splitmix64
(see rng.py).  Loss draws are keyed by (segment index, attempt) so a
higher loss rate drops a superset of packets for the same seed.  The
draws of every first transmission, data and FIN, are taken in one bulk
call when the transfer is set up (`rng.keyed_uniforms`, the same floats
as the scalar form); a retransmission draws its key on its own.  Each
stream feeds only its own comparison, so a loss-free link draws no loss
randomness and a link without reordering draws no reorder randomness.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .preprocess import parse_bool, parse_integer, parse_real
from .rng import derive_seed, keyed_uniform, keyed_uniforms, uniform_stream
from .trace import (
    DIRECTIONS,
    SEQ_MOD,
    CapturePoint,
    Direction,
    IntervalSet,
    PacketColumns,
    TracePair,
    TraceRecord,
    TransferDirection,
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
    """Simulator-side ground truth for one transfer.

    Two counters are derived once the transfer ends: `acks_sent` is the
    number of data and FIN arrivals (each is acked once), and
    `sender_transmissions` is `data_segments + sender_retransmissions`.
    """

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
        self.c2s, self.s2c = map(DIRECTIONS.index, (Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT))
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
        self.seg_end = [*range(MSS, self.B, MSS), self.B]
        # wire times of a full segment and of the last one, which may be partial
        self.last_seg = self.n_segs - 1
        self.ser_mss, self.ser_last = self._ser(MSS), self._ser(self.B - self.last_seg * MSS)
        self.reorder_delay = 0.001 + 3.0 * self.ser_mss
        self.stats = FlowStats(transfer_bytes=self.B, data_segments=self.n_segs)

        label = transfer.value
        self.loss_seed = derive_seed(seed, label, "data-loss")
        # the loss decision of attempt 0 of each segment and of the FIN
        self.first_lost = (
            (keyed_uniforms(self.loss_seed, self.n_segs + 1, 0) < self.loss_rate).tolist()
            if self.loss_rate > 0
            else [False] * (self.n_segs + 1)
        )
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
        self.timer: tuple[float, int] | None = None  # the RTO slot: (time, tick) when it next fires
        self.fin_sent = False
        self.fin_acked = False
        self.fin_attempts = 0
        self.attempts = [0] * self.n_segs  # retransmissions so far, per segment

        # receiver state
        self.rcv_nxt = 0
        self.ooo = IntervalSet()
        self.last_ack_t = 0.0

        self.busy = [0.0, 0.0]  # link free time, by direction code
        self.tick = itertools.count()
        self.reordered: deque = deque()  # reordered data arrivals: (time, tick, k)
        self.acks: deque = deque()  # ack arrivals at the sender: (time, tick, offset, blocks, rwnd)
        # one record per data or FIN arrival, with the ack it triggers:
        # (arrival time, ack time, payload offset, payload length, ack offset, ack rwnd, ack sack_cnt)
        self.captured: list[tuple] = []

    # -- wire helpers -------------------------------------------------

    def _ser(self, payload: int) -> float:
        return (payload + HEADER_BYTES) * 8.0 / self.link.bandwidth

    # -- sender -------------------------------------------------------

    def _lost(self, k: int, attempt: int) -> bool:
        """Whether transmission `attempt` of segment k (k = n_segs: the FIN) is lost."""
        if not attempt:
            return self.first_lost[k]
        return self.loss_rate > 0 and keyed_uniform(self.loss_seed, k, attempt) < self.loss_rate

    # Per packet, max(a, b) is written `b if b > a else a` (min alike): the builtin's operand.
    def _transmit(self, k0: int, k1: int, now: float, lost: bool | None = None) -> None:
        """Put segments k0..k1-1 on the wire back to back at `now` and hand
        each that survives to the receiver.  A burst of first transmissions
        (`lost` None) takes each loss from `first_lost` and arms a disarmed
        timer right after its first segment; a retransmission is a run of
        one with its own loss decision."""
        arm = lost is None and self.rto_deadline is None
        busy, d = self.busy, self.data_dir  # only the sender moves the data direction's free time
        free = busy[d]
        k = k0
        while k < k1:  # a while loop: most runs hold one segment, and range() costs more
            free = (free if free > now else now) + (self.ser_last if k == self.last_seg else self.ser_mss)
            if self.first_lost[k] if lost is None else lost:
                self.stats.dropped_data_packets += 1
            else:
                arrive, tick = free + self.owd, next(self.tick)
                if self.reorder_rate > 0 and next(self.reorder) < self.reorder_rate:
                    self.reordered.append((arrive + self.reorder_delay, tick, k))
                elif self.reordered:
                    self._deliver(arrive, tick, k)
                else:
                    self._on_data(arrive, k)
            if arm:
                arm = False
                self._arm_timer(now)
            k += 1
        busy[d] = free

    def _deliver(self, arrive: float, tick: int, k: int) -> None:
        """Hand the receiver segment k (k = n_segs: the FIN), which arrives
        at (arrive, tick) and which no later packet can overtake, at once:
        first every reordered arrival that comes before it."""
        reordered = self.reordered
        if reordered:
            key = (arrive, tick)
            while reordered and reordered[0] < key:
                now, _, j = reordered.popleft()
                self._on_data(now, j)
        self._on_data(arrive, k)

    def _retransmit(self, k: int, now: float) -> None:
        # attempts are tracked per segment so loss draws stay keyed
        self.stats.sender_retransmissions += 1
        self.attempts[k] += 1
        self._transmit(k, k + 1, now, self._lost(k, self.attempts[k]))

    def _send_fin(self, now: float) -> None:
        self.fin_sent = True
        dep = max(now, self.busy[self.data_dir]) + self.ser0
        self.busy[self.data_dir] = dep
        if not self._lost(self.n_segs, self.fin_attempts):
            self._deliver(dep + self.owd, next(self.tick), self.n_segs)
        self.fin_attempts += 1
        self._arm_timer(now)

    def _arm_timer(self, now: float) -> None:
        # The slot moves only when it is empty or the deadline moved before
        # it; a later deadline waits for the slot to fire (see _drain).
        self.rto_deadline = deadline = now + self.rto * self.backoff
        timer = self.timer
        if timer is None or deadline < timer[0]:
            self.timer = (deadline, next(self.tick))

    def _try_send(self, now: float) -> None:
        k0 = k = self.next_seg
        n = self.n_segs
        if k == n:
            return
        limit, rwnd, wbuf = self.cwnd, float(self.peer_rwnd), float(self.write_buffer)
        if rwnd < limit:
            limit = rwnd
        if wbuf < limit:
            limit = wbuf
        seg_end, first_send, una, snd_nxt = self.seg_end, self.first_send, self.snd_una, self.snd_nxt
        while k < n:
            e = seg_end[k]
            if (snd_nxt - una) + (e - k * MSS) > limit:
                break
            first_send[k] = now
            snd_nxt = e
            k += 1
        if k > k0:
            self.snd_nxt, self.next_seg = snd_nxt, k
            self._transmit(k0, k, now)

    def _next_proven_hole(self) -> int | None:
        """First segment below the highest sacked byte that no single sacked
        interval covers, skipping those already resent in this recovery.

        Segments above the sacked region are merely in flight, not lost;
        retransmitting them would be spurious.  The walk visits the gaps of
        `sacked` from snd_una up, not every segment: a segment is proven
        lost exactly when one of its bytes at or past snd_una lies in a gap.
        """
        sacked = self.sacked
        starts, ends = sacked.starts, sacked.ends
        if not starts:
            return None
        high, una, next_seg = sacked.max_end, self.snd_una, self.next_seg
        seg_end, rexmits = self.seg_end, self.recovery_rexmits
        i = bisect.bisect_right(starts, una)
        gap = ends[i - 1] if i and ends[i - 1] > una else una
        for i in range(i, len(starts)):  # the gap [gap, starts[i])
            k = gap // MSS
            while k < next_seg and k * MSS < starts[i]:
                if seg_end[k] > high:
                    return None
                if k not in rexmits:
                    return k
                k += 1
            if k >= next_seg:
                return None
            gap = ends[i]
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

    def _grow_cwnd(self, now: float) -> None:
        """Congestion avoidance: one ack's growth past ssthresh (slow start is in _on_ack)."""
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

    def _on_ack(self, now: float, a: int, blocks: tuple, rwnd: int) -> None:
        self.peer_rwnd = rwnd
        for bs, be in blocks:
            self.sacked.add(bs, be)
        una, B = self.snd_una, self.B
        if a > una:
            acked_payload = (B if B < a else a) - (B if B < una else una)
            self.snd_una = a
            self.dupacks = 0
            self.backoff = 1
            # RTT samples from the segments this ack newly covers
            k, next_seg, seg_end = self.next_sample_seg, self.next_seg, self.seg_end
            if k < next_seg and seg_end[k] <= a:
                attempts, first_send, srtt = self.attempts, self.first_send, self.srtt
                while k < next_seg and seg_end[k] <= a:
                    if not attempts[k]:  # Karn's rule: no sample from a retransmitted segment
                        sample = now - first_send[k]
                        srtt = sample if srtt is None else 0.875 * srtt + 0.125 * sample
                    k += 1
                self.next_sample_seg = k
                if srtt is not None:
                    self.srtt, rto = srtt, 2.0 * srtt
                    self.rto = rto if rto > MIN_RTO else MIN_RTO
            if self.in_recovery:
                if a >= self.recovery_until:
                    self.in_recovery = False
                else:
                    # partial ack: the new cumulative hole is proven lost
                    self._retransmit_una_segment(now)
            elif acked_payload > 0:
                cwnd = self.cwnd
                if cwnd < self.ssthresh:
                    cwnd += acked_payload
                    self.cwnd = CWND_CAP if CWND_CAP < cwnd else cwnd
                else:
                    self._grow_cwnd(now)
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

    def _on_rto(self, now: float) -> None:
        """The retransmission timer expires at its deadline `now`."""
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

    def _on_data(self, now: float, k: int) -> None:
        """Receive segment k (k = n_segs: the FIN, no payload) at `now` and ack it."""
        ooo, rcv_nxt = self.ooo, self.rcv_nxt
        if k < self.n_segs:
            s, e = k * MSS, self.seg_end[k]
            length = e - s
            dup = e <= rcv_nxt or (ooo.covers(s, e) if ooo.starts else False)
            if dup:
                self.stats.duplicate_arrivals += 1
            elif s <= rcv_nxt:  # in order: e passes rcv_nxt, and held data may follow it
                self.rcv_nxt = rcv_nxt = ooo.pop_through(e) if ooo.starts else e
            else:
                ooo.add(s, e)
            offset = rcv_nxt
        else:
            s, length, dup = self.B, 0, False
            offset = rcv_nxt + 1 if rcv_nxt >= self.B else rcv_nxt  # the FIN is offset B
        rwnd, blocks = self.read_buffer, ()
        if ooo.starts:
            rwnd -= sum(ooo.ends) - sum(ooo.starts)
            if rwnd < 0:
                rwnd = 0
            if self.sack:  # the first block reports the latest arrival (RFC 2018)
                blocks = tuple(ooo.recent(MAX_SACK_BLOCKS))
        sack_cnt = len(blocks) + (1 if dup and self.dsack else 0)
        t, last = now + next(self.jitter) * ACK_JITTER_MAX, self.last_ack_t
        if last > t:
            t = last
        self.last_ack_t = t
        self.captured.append((now, t, s, length, offset, rwnd, sack_cnt))
        busy, d = self.busy, self.ack_dir
        free = busy[d]
        dep = (free if free > t else t) + self.ser0
        busy[d] = dep
        if self.loss_rate > 0 and next(self.ack_loss) < self.loss_rate:
            self.stats.dropped_acks += 1
            return
        self.acks.append((dep + self.owd, next(self.tick), offset, blocks, rwnd))

    # -- top level ----------------------------------------------------

    def run(self) -> tuple[TraceRecord, FlowStats]:
        self._handshake()
        self._drain()
        if self.rcv_nxt != self.B:
            raise RuntimeError(f"conservation violated: delivered {self.rcv_nxt} of {self.B} bytes")
        stats = self.stats
        stats.delivered_bytes = self.rcv_nxt
        stats.acks_sent = len(self.captured)
        stats.sender_transmissions = stats.data_segments + stats.sender_retransmissions
        capture = CapturePoint.CLIENT if self.down else CapturePoint.SERVER
        return TraceRecord(capture, self.transfer, self._columns(), self.B), self.stats

    def _handshake(self) -> None:
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
        self.handshake_ts = (0.0, synack_arr, synack_arr) if self.down else (syn_arr, syn_arr, hs_ack_arr)
        self.last_ack_t = self.handshake_ts[1]
        # the server may send once the handshake ack lands, the client once the SYN-ACK does
        self._try_send(hs_ack_arr if self.down else synack_arr)

    def _drain(self) -> None:
        """Handle the sender's events and the reordered arrivals, earliest (time, tick) first."""
        acks, reordered, on_ack, on_data = self.acks, self.reordered, self._on_ack, self._on_data
        limit = 400 * self.n_segs + 200_000  # more events than this: degenerate parameters
        for _ in range(limit + 1):
            timer = self.timer
            if acks and (timer is None or acks[0] < timer) and not (reordered and reordered[0] < acks[0]):
                now, _, a, blocks, rwnd = acks.popleft()
                on_ack(now, a, blocks, rwnd)
            elif reordered and (timer is None or reordered[0] < timer):
                now, _, k = reordered.popleft()
                on_data(now, k)
            elif timer is not None:
                self.timer = None
                now, deadline = timer[0], self.rto_deadline
                if deadline is None:
                    continue
                if deadline > now:
                    # acks moved the deadline later without moving the slot
                    # (mod_timer), so the slot fired early and moves to it
                    self.timer = (deadline, next(self.tick))
                else:
                    self._on_rto(now)
            else:
                return
        raise ConfigError("simulator event budget exceeded; parameters degenerate")

    def _columns(self) -> PacketColumns:
        """The capture in capture order: the handshake, then per arrival,
        in the order the receiver handled them, the data or FIN row and
        its ack row.  TraceRecord sorts it by ts, ties in this order."""
        arrive, ack_t, seq, length, ack, rwnd, sack_cnt = map(np.array, zip(*self.captured))
        rows = 3 + 2 * len(arrive)

        def interleave(handshake, data, acks, dtype=np.int64):
            column = np.empty(rows, dtype)
            column[:3], column[3::2], column[4::2] = handshake, data, acks
            return column

        ts = interleave(self.handshake_ts, arrive, ack_t, np.float64)
        read_buffer, syn_sack = self.client.read_buffer, self.syn_sack_cnt
        columns = (
            ts - ts.min(),
            interleave((self.c2s, self.s2c, self.c2s), self.data_dir, self.ack_dir, np.int8),
            interleave((0, 0, 1), seq + 1, 1) % SEQ_MOD,
            interleave((0, 1, 1), 1, ack + 1) % SEQ_MOD,
            interleave((0, 0, 0), length, 0),
            interleave((True, True, False), False, False, bool),  # syn
            interleave((False, False, False), length == 0, False, bool),  # fin: the arrival without payload
            np.zeros(rows, bool),  # rst
            interleave((False, True, True), True, True, bool),  # ack_flag
            interleave((read_buffer, SERVER_BUFFER, read_buffer), self.sender_rwnd, rwnd),
            interleave((syn_sack, syn_sack, self.hs_ack_sack_cnt), 0, sack_cnt),
        )
        return PacketColumns(*columns)


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
