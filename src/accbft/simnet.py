"""Deterministic discrete-event network fabric.

Single-threaded virtual-time simulator: every run is fully determined by its
seed.  The network itself never drops a message: the delay models only reorder
and delay them, with every delay clamped to the synchrony bound after the
global stabilization time.  Only a faulty sender's send filter (benign
omission or crash, byzantine garbling) drops frames, and ``stats.omitted``
counts them.  Virtual time is integer microseconds.

Events wait in a calendar queue: one FIFO list per pending tick, plus a heap
of the distinct pending ticks.  Each event takes two slots of its tick's
list, the recipient pid and an event tuple: ``(src, msg)`` for a frame, one
tuple per send that all its recipients share, or ``(None, key)`` for a
timer.  Events of one tick run in the order they were pushed, whether frames
or timers, including a zero-delay frame pushed while its tick is being
drained.  A frame costs one delay draw per recipient, from the network's one
``Random``, in recipient pid order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

from .crypto import SignedMessage

TICKS_PER_MS = 1000

# which delay statistic a link's frames feed (see VirtualNet._link)
INTRA = 1
CROSS = 2


@dataclass(frozen=True)
class UniformDelay:
    """A delay drawn as ``randint(lo, hi)``."""

    lo: int  # ticks
    hi: int


@dataclass(frozen=True)
class GammaDelay:
    shape: float = 2.5
    scale: int = 40 * TICKS_PER_MS

    def sample(self, rng: random.Random) -> int:
        return int(rng.gammavariate(self.shape, self.scale))


@dataclass(frozen=True)
class TraceDelay:
    """Latency table keyed by (region, region); processes map to regions
    round-robin.  A small seeded jitter, ``randint(0, jitter)`` added to the
    link's latency, keeps schedules from degenerate ties."""

    table: tuple[tuple[str, str, int], ...]
    regions: tuple[str, ...]
    jitter: int = TICKS_PER_MS

    def lookup(self, r1: str, r2: str) -> int:
        for a, b, ticks in self.table:
            if (a, b) == (r1, r2) or (b, a) == (r1, r2):
                return ticks
        raise KeyError((r1, r2))

    def latency(self, src: int, dst: int) -> int:
        regions = self.regions
        return self.lookup(regions[src % len(regions)], regions[dst % len(regions)])


DelayModel = object  # UniformDelay | GammaDelay | TraceDelay


@dataclass
class NetConfig:
    delta: int                       # synchrony bound, ticks
    gst: int                         # global stabilization time, ticks
    base: DelayModel
    cross: Optional[DelayModel] = None   # honest pairs in different partitions


class SlotIndex:
    """What the message stores of one network share (see
    consensus.MessageStore): the live slot table and the retired logs.

    ``table`` maps a slot key to the one message object the stores hold for
    that slot, or to a list of the variants when they hold different objects
    for it; it lists a message exactly while a store that has not retired
    its instance holds it.  ``logs`` maps the id of an instance some store
    has retired to ``[mask, msg, ...]``: ``mask`` ORs the marks of the
    stores that retired it, and the messages are those of a kind that can
    be half of a proof of fraud (``crypto.CONFLICT_ELIGIBLE``) that any of
    these stores holds, each object once.  ``iids`` maps each agreement
    instance id to itself, so the cores of the network share one tuple per
    id, and ``values`` maps each decided value to itself, so the cores that
    decide one value share one bytes object for it.
    """

    __slots__ = ("table", "logs", "iids", "values")

    def __init__(self) -> None:
        self.table: dict[tuple, object] = {}
        self.logs: dict[tuple, list] = {}
        self.iids: dict[tuple, tuple] = {}
        self.values: dict[bytes, bytes] = {}


class VirtualNet:
    """Calendar event queue + per-link delay assignment.  Hosts register with
    deliver_frame/on_timer.

    Pending events sit in one FIFO list per virtual tick (``_cal``), and
    ``_heap`` holds each pending tick once.  An event is two slots of its
    tick's list, ``[dst, event, dst, event, ...]``: ``event`` is the
    ``(src, msg)`` tuple that ``send`` builds once and shares among its
    recipients (a filter that returns another object gets a tuple of its
    own), or ``(None, key)`` for a timer, so a pending frame costs two list
    slots and no object of its own.  ``run`` drains the earliest tick's list
    front to back, so events of one tick come out in the order they were
    pushed, across frames and timers alike; a zero-delay frame pushed while
    that tick drains (a send to an attacker pid) joins the end of the list
    being drained.  That is the order a heap keyed by (tick, push sequence)
    gives.

    ``send`` is the one frame primitive.  Each (src, dst) link resolves once,
    on its first frame, into its delay draw and its statistics class, so the
    wiring (``attacker_pids``, ``partition_of``, the delay models) must be in
    place before the first send.
    """

    def __init__(self, cfg: NetConfig, seed: int, horizon: int):
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.horizon = horizon
        self.now = 0
        self._heap: list[int] = []  # distinct pending ticks
        self._cal: dict[int, list] = {}  # tick -> [dst, event, ...], push order
        self._links: dict[int, dict[int, tuple]] = {}  # src -> dst -> link
        self.hosts: dict[int, object] = {}
        # pid -> partition index for honest processes; attackers absent
        self.partition_of: dict[int, int] = {}
        self.attacker_pids: set[int] = set()
        # outbound frame filters per pid (benign omission, byzantine garbling)
        self.send_filters: dict[int, Callable[[SignedMessage], Optional[SignedMessage]]] = {}
        self.stats = NetStats()
        self.trace: Optional[list] = None
        self._stores = 0  # message stores given a mark so far
        self.slot_index = SlotIndex()  # the index and logs those stores share

    # -- wiring ------------------------------------------------------------

    def add_host(self, pid: int, host: object) -> None:
        self.hosts[pid] = host

    def store_mark(self) -> int:
        """A bit of its own for one message store on this network: the stores
        that receive the same frame objects tell their held marks apart by it,
        also in the ``slot_index`` they share (see consensus.MessageStore)."""
        mark = 1 << self._stores
        self._stores += 1
        return mark

    # -- sampling ----------------------------------------------------------

    def _link(self, src: int, dst: int) -> tuple:
        """Resolve and cache one link as (lo, width, bits, sample, stat).

        A frame's raw delay is ``lo + r`` for ``r`` drawn below ``width``
        from ``bits`` random bits, redrawn while ``r >= width``: the draw
        ``randint(lo, lo + width - 1)`` makes (``Random._randbelow``), which
        the simnet tests pin.  With ``width`` 0 it is
        ``sample(rng)``, or 0 when there is no sampler (the adversary reads
        honest traffic instantly).  ``stat`` says which delay statistic the
        frame feeds: INTRA, CROSS or none for a link that touches an
        attacker.
        """
        attackers = self.attacker_pids
        psrc, pdst = self.partition_of.get(src), self.partition_of.get(dst)
        crossing = psrc is not None and pdst is not None and psrc != pdst
        if src in attackers or dst in attackers:
            stat = 0
        else:
            stat = CROSS if crossing else INTRA
        if dst in attackers:
            link = (0, 0, 0, None, stat)
        else:
            model = self.cfg.base
            if self.cfg.cross is not None and crossing and src not in attackers:
                model = self.cfg.cross
            if isinstance(model, GammaDelay):
                link = (0, 0, 0, model.sample, stat)
            else:
                if isinstance(model, UniformDelay):
                    lo, width = model.lo, model.hi - model.lo + 1
                else:
                    lo, width = model.latency(src, dst), model.jitter + 1
                if width < 1:
                    raise ValueError("empty delay range on link %d -> %d" % (src, dst))
                link = (lo, width, width.bit_length(), None, stat)
        self._links.setdefault(src, {})[dst] = link
        return link

    # -- primitives used by hosts -------------------------------------------

    def send(self, src: int, dsts: Iterable[int], msg: SignedMessage) -> None:
        """Send ``msg`` from ``src`` to every pid of ``dsts`` but ``src``.

        Recipients go in pid order.  Each one runs the sender's send filter
        (if any), then takes one delay draw from ``rng`` unless the filter
        dropped the frame.  Before the global stabilization time a frame
        lands by GST + delta, after it within delta of the send.
        """
        now = self.now
        cfg = self.cfg
        post_gst = now >= cfg.gst
        cap = now + cfg.delta if post_gst else cfg.gst + cfg.delta
        filt = self.send_filters.get(src)
        links = self._links.get(src)
        if links is None:
            links = self._links[src] = {}
        cal = self._cal
        heap = self._heap
        rng = self.rng
        getrandbits = rng.getrandbits
        stats = self.stats
        trace = self.trace
        sent = intra_sum = intra_n = cross_sum = cross_n = 0
        shared = (src, msg)  # the event every unfiltered recipient queues
        for dst in sorted(dsts):
            if dst == src:
                continue
            out = msg
            event = shared
            if filt is not None:
                out = filt(msg)
                if out is None:
                    stats.omitted += 1
                    continue
                if out is not msg:
                    event = (src, out)
            link = links.get(dst)
            if link is None:
                link = self._link(src, dst)
            lo, width, bits, sample, stat = link
            if width:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                at = now + (lo + r)
            elif sample is not None:
                at = now + sample(rng)
            else:
                at = now
            if at > cap:
                at = cap
            q = cal.get(at)
            if q is None:
                cal[at] = [dst, event]
                heappush(heap, at)
            else:
                q.append(dst)
                q.append(event)
            sent += 1
            if stat == INTRA:
                intra_sum += at - now
                intra_n += 1
            elif stat == CROSS:
                cross_sum += at - now
                cross_n += 1
            if trace is not None:
                trace.append(
                    {
                        "t": now,
                        "ev": "send",
                        "from": src,
                        "to": dst,
                        "kind": int(out.kind),
                        "instance": list(out.instance),
                        "round": out.round,
                        "at": at,
                    }
                )
        if sent:
            # a filter may drop or garble a frame but keeps its instance, so
            # one count by the original's channel covers every frame sent
            stats.count_send(msg, post_gst, sent)
        if intra_n:
            stats.intra_delay_sum += intra_sum
            stats.intra_delay_n += intra_n
        if cross_n:
            stats.cross_delay_sum += cross_sum
            stats.cross_delay_n += cross_n

    def arm_timer(self, pid: int, key: tuple, delay: int) -> None:
        at = self.now + max(delay, 1)
        q = self._cal.get(at)
        if q is None:
            self._cal[at] = [pid, (None, key)]
            heappush(self._heap, at)
        else:
            q.append(pid)
            q.append((None, key))

    # -- main loop ----------------------------------------------------------

    def run(self, event_budget: int = 20_000_000) -> str:
        """Drain events until quiescence, the horizon, or the budget.

        Returns the stop reason: "quiescent" | "horizon" | "budget".  A
        budget stop inside a tick leaves that tick's unprocessed events
        queued, so a later ``run`` resumes exactly where this one stopped.
        A tick's list holds each event as two slots, the recipient pid and
        then (src, msg) for a frame or (None, key) for a timer.  The loop
        over one iterator of the list takes each pid, and ``next`` on the
        same iterator takes its event.
        """
        heap = self._heap
        cal = self._cal
        hosts = self.hosts
        horizon = self.horizon
        left = event_budget
        while heap:
            t = heap[0]
            if t > horizon:
                return "horizon"
            if left <= 0:
                return "budget"
            self.now = t
            q = cal[t]
            start = left
            slots = iter(q)
            # frames pushed for tick t while it drains join q and are reached
            for pid in slots:
                if not left:
                    del q[: 2 * start]  # the budget ran out after q's first start events
                    return "budget"
                left -= 1
                src, item = next(slots)
                host = hosts.get(pid)
                if host is not None:
                    if src is None:
                        host.on_timer(item)
                    else:
                        host.deliver_frame(src, item)
            heappop(heap)
            del cal[t]
        return "quiescent"


class NetStats:
    def __init__(self):
        self.sends = 0
        self.sends_post_gst = 0
        self.omitted = 0
        self.by_channel: dict[int, int] = {}
        self.by_channel_post_gst: dict[int, int] = {}
        self.intra_delay_sum = 0
        self.intra_delay_n = 0
        self.cross_delay_sum = 0
        self.cross_delay_n = 0

    def count_send(self, msg: SignedMessage, post_gst: bool, n: int = 1) -> None:
        """Count ``n`` frames of ``msg``'s channel."""
        self.sends += n
        chan = msg.instance[3]
        self.by_channel[chan] = self.by_channel.get(chan, 0) + n
        if post_gst:
            self.sends_post_gst += n
            self.by_channel_post_gst[chan] = (
                self.by_channel_post_gst.get(chan, 0) + n
            )


@dataclass
class BenignBehavior:
    kind: str  # "crash_at" | "omit_fraction" | "stale"
    crash_at: int = 0          # ticks
    omit_p: float = 0.0


def make_benign_filter(
    net: VirtualNet, behavior: BenignBehavior, rng: random.Random
) -> Callable[[SignedMessage], Optional[SignedMessage]]:
    from .crypto import Kind, CHAN_BINARY, CHAN_CONFIRM

    def filt(msg: SignedMessage) -> Optional[SignedMessage]:
        if behavior.kind == "crash_at":
            if net.now >= behavior.crash_at:
                return None
            return msg
        if behavior.kind == "omit_fraction":
            if rng.random() < behavior.omit_p:
                return None
            return msg
        # stale: keeps re-sending its first-round traffic, never advances
        if msg.round > 1:
            return None
        chan = msg.instance[3]
        if chan == CHAN_CONFIRM:
            return None
        if chan == CHAN_BINARY and msg.phase >= 2:
            return None
        if msg.kind == Kind.MSGSET:
            return None
        return msg

    return filt


def make_garble_filter(
    rng: random.Random, garble_p: float, drop_p: float
) -> Callable[[SignedMessage], Optional[SignedMessage]]:
    """Byzantine filter: may drop or corrupt the node's own sends."""

    def filt(msg: SignedMessage) -> Optional[SignedMessage]:
        r = rng.random()
        if r < drop_p:
            return None
        if r < drop_p + garble_p:
            bad_sig = bytes([msg.signature[0] ^ 0xFF]) + msg.signature[1:]
            return SignedMessage(
                kind=msg.kind,
                instance=msg.instance,
                round=msg.round,
                phase=msg.phase,
                payload=msg.payload,
                signer=msg.signer,
                signature=bad_sig,
                certificate=msg.certificate,
                pofs=msg.pofs,
            )
        return msg

    return filt
