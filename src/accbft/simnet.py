"""Deterministic discrete-event network fabric.

Single-threaded virtual-time simulator: every run is fully determined by its
seed.  The network itself never drops a message: the delay models only reorder
and delay them, with every delay clamped to the synchrony bound after the
global stabilization time.  Only a faulty sender's send filter (benign
omission or crash, byzantine garbling) drops frames, and ``stats.omitted``
counts them.  Virtual time is integer microseconds.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .crypto import SignedMessage

TICKS_PER_MS = 1000

FRAME = 0
TIMER = 1


@dataclass(frozen=True)
class UniformDelay:
    lo: int  # ticks
    hi: int

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)


@dataclass(frozen=True)
class GammaDelay:
    shape: float = 2.5
    scale: int = 40 * TICKS_PER_MS

    def sample(self, rng: random.Random) -> int:
        return int(rng.gammavariate(self.shape, self.scale))


@dataclass(frozen=True)
class TraceDelay:
    """Latency table keyed by (region, region); processes map to regions
    round-robin.  A small seeded jitter keeps schedules from degenerate ties."""

    table: tuple[tuple[str, str, int], ...]
    regions: tuple[str, ...]
    jitter: int = TICKS_PER_MS

    def lookup(self, r1: str, r2: str) -> int:
        for a, b, ticks in self.table:
            if (a, b) == (r1, r2) or (b, a) == (r1, r2):
                return ticks
        raise KeyError((r1, r2))

    def sample_pair(self, rng: random.Random, src: int, dst: int) -> int:
        r1 = self.regions[src % len(self.regions)]
        r2 = self.regions[dst % len(self.regions)]
        return self.lookup(r1, r2) + rng.randint(0, self.jitter)


DelayModel = object  # UniformDelay | GammaDelay | TraceDelay


@dataclass
class NetConfig:
    delta: int                       # synchrony bound, ticks
    gst: int                         # global stabilization time, ticks
    base: DelayModel
    cross: Optional[DelayModel] = None   # honest pairs in different partitions


class VirtualNet:
    """Event heap + delay assignment.  Hosts register with deliver/on_timer."""

    def __init__(self, cfg: NetConfig, seed: int, horizon: int):
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.horizon = horizon
        self.now = 0
        self._seq = 0
        self._heap: list[tuple] = []
        self.hosts: dict[int, object] = {}
        # pid -> partition index for honest processes; attackers absent
        self.partition_of: dict[int, int] = {}
        self.attacker_pids: set[int] = set()
        # outbound frame filters per pid (benign omission, byzantine garbling)
        self.send_filters: dict[int, Callable[[SignedMessage], Optional[SignedMessage]]] = {}
        self.stats = NetStats()
        self.trace: Optional[list] = None
        self._stores = 0  # message stores given a mark so far

    # -- wiring ------------------------------------------------------------

    def add_host(self, pid: int, host: object) -> None:
        self.hosts[pid] = host

    def store_mark(self) -> int:
        """A bit of its own for one message store on this network: the stores
        that receive the same frame objects tell their held marks apart by it
        (see consensus.MessageStore)."""
        mark = 1 << self._stores
        self._stores += 1
        return mark

    # -- sampling ----------------------------------------------------------

    def _raw_delay(self, src: int, dst: int) -> int:
        if dst in self.attacker_pids:
            return 0  # adversary omniscience: reads honest traffic instantly
        model = self.cfg.base
        if self.cfg.cross is not None and src not in self.attacker_pids:
            psrc, pdst = self.partition_of.get(src), self.partition_of.get(dst)
            if psrc is not None and pdst is not None and psrc != pdst:
                model = self.cfg.cross
        if isinstance(model, TraceDelay):
            return model.sample_pair(self.rng, src, dst)
        return model.sample(self.rng)

    def delay(self, src: int, dst: int) -> int:
        d = self._raw_delay(src, dst)
        assert d >= 0
        if self.now < self.cfg.gst:
            # pre-GST sends still land by GST + delta
            deliver = min(self.now + d, self.cfg.gst + self.cfg.delta)
        else:
            deliver = self.now + min(d, self.cfg.delta)
        return deliver - self.now

    # -- primitives used by hosts -------------------------------------------

    def send(self, src: int, dst: int, msg: SignedMessage) -> None:
        filt = self.send_filters.get(src)
        if filt is not None:
            out = filt(msg)
            if out is None:
                self.stats.omitted += 1
                return
            msg = out
        deliver_at = self.now + self.delay(src, dst)
        self._seq += 1
        heapq.heappush(self._heap, (deliver_at, self._seq, FRAME, src, dst, msg))
        self.stats.count_send(msg, post_gst=self.now >= self.cfg.gst)
        if src not in self.attacker_pids and dst not in self.attacker_pids:
            psrc, pdst = self.partition_of.get(src), self.partition_of.get(dst)
            if psrc is not None and pdst is not None and psrc != pdst:
                self.stats.cross_delay_sum += deliver_at - self.now
                self.stats.cross_delay_n += 1
            else:
                self.stats.intra_delay_sum += deliver_at - self.now
                self.stats.intra_delay_n += 1
        if self.trace is not None:
            self.trace.append(
                {
                    "t": self.now,
                    "ev": "send",
                    "from": src,
                    "to": dst,
                    "kind": int(msg.kind),
                    "instance": list(msg.instance),
                    "round": msg.round,
                    "at": deliver_at,
                }
            )

    def broadcast(self, src: int, dsts: Iterable[int], msg: SignedMessage) -> None:
        for dst in sorted(dsts):
            if dst != src:
                self.send(src, dst, msg)

    def arm_timer(self, pid: int, key: tuple, delay: int) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + max(delay, 1), self._seq, TIMER, pid, key)
        )

    # -- main loop ----------------------------------------------------------

    def run(self, event_budget: int = 20_000_000) -> str:
        """Drain events until quiescence, the horizon, or the budget.

        Returns the stop reason: "quiescent" | "horizon" | "budget".
        """
        processed = 0
        while self._heap:
            t = self._heap[0][0]
            if t > self.horizon:
                return "horizon"
            processed += 1
            if processed > event_budget:
                return "budget"
            entry = heapq.heappop(self._heap)
            self.now = entry[0]
            if entry[2] == FRAME:
                _, _, _, src, dst, msg = entry
                host = self.hosts.get(dst)
                if host is not None:
                    host.deliver_frame(src, msg)
            else:
                _, _, _, pid, key = entry
                host = self.hosts.get(pid)
                if host is not None:
                    host.on_timer(key)
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

    def count_send(self, msg: SignedMessage, post_gst: bool) -> None:
        self.sends += 1
        chan = msg.instance[3]
        self.by_channel[chan] = self.by_channel.get(chan, 0) + 1
        if post_gst:
            self.sends_post_gst += 1
            self.by_channel_post_gst[chan] = (
                self.by_channel_post_gst.get(chan, 0) + 1
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
