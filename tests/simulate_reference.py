"""The flow simulator's original event loop, kept as an oracle.

`HeapTransferSim` runs the simulator's own sender and receiver on one
heap of (time, tick, handler, payload) entries.  Every data and FIN
arrival, every ack and the RTO timer go onto it, and each arrival is
handled when it pops, not when it is sent.  The timer is one live heap
entry: arming pushes only when there is none or the new deadline comes
before it, and a passed-over entry is an orphan, dropped when it pops.

Only the queueing differs from `netdiag.simulate`, so equal output shows
that the ordered queues, the send-time hand-over and the RTO slot handle
every event in the heap's (time, tick) order.  The heap loop shares the
sender's code, so it cannot catch a wrong choice of the segment SACK
recovery resends; `next_proven_hole_scan` keeps the original
per-segment scan as the oracle of that choice.
"""

from heapq import heappop, heappush

from netdiag.rng import derive_seed
from netdiag.simulate import MSS, _TransferSim
from netdiag.trace import TracePair, TransferDirection


class _OntoHeap:
    """Stands for one of the simulator's queues: each (time, tick, *payload)
    entry goes onto the heap with the handler that takes it."""

    def __init__(self, heap: list, handler):
        self.heap, self.handler = heap, handler

    def append(self, entry: tuple) -> None:
        heappush(self.heap, (entry[0], entry[1], self.handler, entry[2:]))

    def __bool__(self) -> bool:
        # Always true, so the sender sees a reordered arrival waiting and
        # routes every data and FIN arrival through `_deliver`, which here
        # pushes it onto the heap instead of handing it over at send time.
        return True


class HeapTransferSim(_TransferSim):
    def __init__(self, *args):
        super().__init__(*args)
        self.heap: list = []
        self.timer_at: float | None = None  # time of the one live RTO entry
        self.acks = _OntoHeap(self.heap, lambda now, payload: self._on_ack(now, *payload))
        self.reordered = _OntoHeap(self.heap, self._arrival)

    def _arrival(self, now: float, payload: tuple) -> None:
        self._on_data(now, *payload)

    def _deliver(self, arrive: float, tick: int, k: int) -> None:
        heappush(self.heap, (arrive, tick, self._arrival, (k,)))

    def _arm_timer(self, now: float) -> None:
        self.rto_deadline = deadline = now + self.rto * self.backoff
        if self.timer_at is None or deadline < self.timer_at:
            self.timer_at = deadline
            heappush(self.heap, (deadline, next(self.tick), self._rto_entry, None))

    def _rto_entry(self, now: float, _payload) -> None:
        if now != self.timer_at:
            return  # an orphan
        self.timer_at = None
        if self.rto_deadline is None:
            return
        if self.rto_deadline > now:
            # acks moved the deadline later without a push, so the live
            # entry popped early and re-pushes itself at the deadline
            self.timer_at = self.rto_deadline
            heappush(self.heap, (self.timer_at, next(self.tick), self._rto_entry, None))
            return
        self._on_rto(now)

    def _drain(self) -> None:
        limit = 400 * self.n_segs + 200_000
        heap, events = self.heap, 0
        while heap:
            now, _, handler, payload = heappop(heap)
            handler(now, payload)
            events += 1
            if events > limit:
                raise RuntimeError("simulator event budget exceeded; parameters degenerate")


def simulate_reference(link, client, transfer_bytes: int, seed: int):
    """`simulate_flow_with_stats` on the heap loop."""
    (down, down_stats), (up, up_stats) = (
        HeapTransferSim(link, client, transfer_bytes, derive_seed(seed, t.value), t).run()
        for t in (TransferDirection.DOWNLOAD, TransferDirection.UPLOAD)
    )
    return TracePair(download=down, upload=up), {"download": down_stats, "upload": up_stats}


def next_proven_hole_scan(sacked, snd_una: int, next_seg: int, seg_end: list, recovery_rexmits) -> int | None:
    """`_TransferSim._next_proven_hole` as the original scan of every
    segment from snd_una's up: the first whose part at or past snd_una
    no single interval of `sacked` covers, below the highest sacked byte
    and not in recovery_rexmits."""
    high = sacked.max_end or 0
    k = snd_una // MSS
    while k < next_seg:
        e = seg_end[k]
        if e > high:
            return None
        if e > snd_una and not sacked.covers(max(k * MSS, snd_una), e):
            if k not in recovery_rexmits:
                return k
        k += 1
    return None
