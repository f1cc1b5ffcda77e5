"""Per-process runtime: verified message store, fraud-proof accounting, and
the multi-valued context that ties n broadcast slots to n binary votes.

A NodeCore is the single owning actor for one simulated process, and it talks
to the network itself: the network hands it frames and timer callbacks, and
the core sends its frames and arms its timers there under its own pid.  It
verifies signatures, admits messages into a shared store (where
duplicate-slot payload conflicts become fraud proofs), and routes them into
per-instance state machines.  Routing is one table, ``NodeCore.routes``, from
instance id to (context, instance): every message belongs to exactly one
broadcast slot, binary vote or confirmation echo, and context keys are unique
per core, so the tally, the dispatch, the timers and the instance callbacks
each take one lookup.  At each new main height the core forgets the contexts
no input can change any more; the store keeps those of their messages that
can still convict a signer.  Set-exchange bundles, certificate cross-checks, and
exclusion recounts all read from that one store, which is what makes
accountability automatic: any certificate that crosses a partition is taken
apart and checked against what we stored locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Optional

from .analysis import alpha_confirm_threshold
from .binary import BinaryInstance, parity
from .broadcast import BroadcastInstance
from .committee import Committee, FaultProfile, mask_members, update_committee
from .crypto import (
    CHAN_BCAST,
    CHAN_BINARY,
    CHAN_CONFIRM,
    CONFLICT_ELIGIBLE,
    GLOBAL_INSTANCE,
    GROUP_MAIN,
    InstanceId,
    Kind,
    Pof,
    SignedMessage,
    _enc_u32,
    derive_pof,
    make_message,
    msgset_payload,
    pofs_payload,
    quorum_valid,
    verify_message,
    verify_pof,
)
from .simnet import SlotIndex

_ENVELOPES = frozenset({Kind.MSGSET, Kind.POF_LIST})
BACKOFF = 1.5  # retransmission timer multiplier per earlier fire


@dataclass(frozen=True)
class ProtoConfig:
    """Protocol-level knobs shared by every instance on one process."""

    delta: int  # timer base in virtual microseconds
    profile: FaultProfile  # declared fault budget (feeds vote thresholds)
    alpha: Optional[object] = None  # confirmation ratio; None skips confirms


@dataclass
class CoreMetrics:
    frames: int = 0
    bad_signature: int = 0
    admitted: int = 0
    pofs_recorded: int = 0


class MessageStore:
    """First verified message per slot, indexed by slot and by instance.

    A slot is (kind, instance, round, phase, signer).  A second verified
    message on an occupied slot with a different payload convicts the signer
    (for the kinds where a double-send is equivocation rather than a relay).
    While the instance is live, a duplicate that carries a certificate when
    the stored copy has none replaces it: justifications travel lazily.

    ``by_instance`` lists each live instance's messages in this store's
    first-admission order, which ``group``, ``quorum_cert``, the instances'
    retransmissions and ``NodeCore.register_context``'s replay read, so it
    stays per store.  The slot index is shared: the stores of one network
    see the same message objects, so they index them in one ``SlotIndex``
    (``simnet.VirtualNet.slot_index``; a store made without one keeps its
    own).  Its table maps a slot key to the one object the stores admitted,
    or to a list of variants when stores hold different objects for the
    slot: an equivocation, or an upgrade one store has taken and another
    has not.  ``mark`` is this store's bit in ``SignedMessage._held``: it
    is set on the very object the store holds for a slot, and moved to the
    new copy on an upgrade, so the store finds its own variant in the table
    by its bit, and ``m._held & store.mark`` tells whether it holds m itself
    without hashing the slot.  Stores that share an index need distinct
    marks.  ``slots`` builds a fresh dict of this store's live messages.

    ``retire(iid)`` takes an instance whose state machine can no longer act
    out of ``by_instance`` and into the network's one log of it
    (``SlotIndex.logs``), which the stores that retired the instance share.
    A retired instance keeps only what can convict: every message that could
    be half of a proof of fraud (a ``crypto.CONFLICT_ELIGIBLE`` kind).  The
    log lists each such message any of these stores holds once, and a
    store's part of it is the messages that carry the store's mark.  A READY
    or a DECISION is dropped at retirement: the store clears its mark on it.
    The log is evidence only.  Admission finds a conflict or a duplicate in
    the store's part by scanning it, so a late equivocation yields the same
    proof of fraud as before, and never edits a listed message.  A new
    conflict-eligible message for a retired instance joins the log, never
    the table.  A late READY or DECISION, and a certified copy of a listed
    message, is reported "new" and kept nowhere, so the caller walks its
    certificate as on first sight, and an equivocating inner still convicts
    its signer.

    One rule ties the table to the marks: a message is in the table, and
    keeps its cached slot key (``SignedMessage.slot()``), exactly while a
    store that has not retired its instance holds it, that is while
    ``m._held & ~logs[iid][0]`` is set.  ``admit``, ``retire`` and
    ``release`` apply it to each message whose holders they change.
    """

    def __init__(self, mark: int, index: Optional[SlotIndex] = None) -> None:
        if index is None:
            index = SlotIndex()
        self.table = index.table
        self.logs = index.logs
        self.by_instance: dict[InstanceId, list[SignedMessage]] = {}
        self.mark = mark

    @property
    def slots(self) -> dict:
        """A fresh {slot key: message} dict of this store's live messages."""
        return {m.slot(): m for held in self.by_instance.values() for m in held}

    def group(
        self, kind: int, iid: InstanceId, round: int, phase: int
    ) -> dict[int, SignedMessage]:
        """A fresh {signer: message} view of one (kind, instance, round,
        phase), in the order the signers were first admitted."""
        return {
            m.signer: m
            for m in self.by_instance.get(iid, ())
            if m.kind == kind and m.round == round and m.phase == phase
        }

    def quorum_cert(
        self, kind: int, iid: InstanceId, round: int, phase: int, signers: int, h: int
    ) -> tuple[SignedMessage, ...]:
        """The first h signers of the mask, in signer order, attachments
        stripped: the certificate a quorum of that group backs."""
        group = self.group(kind, iid, round, phase)
        return tuple(group[s].stripped() for s in mask_members(signers)[:h])

    def first(
        self, kind: int, iid: InstanceId, round: int, phase: int, signer: int
    ) -> Optional[SignedMessage]:
        """The message this store holds live for a slot, if any."""
        log = self.logs.get(iid)
        if log is not None and log[0] & self.mark:
            return None
        entry = self.table.get((kind, iid, round, phase, signer))
        if entry.__class__ is list:
            for m in entry:
                if m._held & self.mark:
                    return m
            return None
        if entry is not None and entry._held & self.mark:
            return entry
        return None

    def admit(self, registry, msg: SignedMessage) -> tuple[str, Optional[Pof]]:
        """Returns (status, pof) with status in new|dup|upgraded|conflict."""
        mark = self.mark
        log = self.logs.get(msg.instance)
        mask = 0 if log is None else log[0]  # the stores that retired it
        if not mask & mark:
            key = msg.slot()
            table = self.table
            entry = prev = table.get(key)
            # prev becomes the variant this store holds, or None
            if entry is None:
                table[key] = msg
            elif entry.__class__ is list:
                for prev in entry:
                    if prev._held & mark:
                        break
                else:
                    if msg not in entry:
                        entry.append(msg)
                    prev = None
            elif not entry._held & mark:
                if entry is not msg:
                    table[key] = [entry, msg]
                prev = None
            if prev is None:
                msg._held |= mark
                held = self.by_instance.get(msg.instance)
                if held is None:
                    self.by_instance[msg.instance] = [msg]
                else:
                    held.append(msg)
                return "new", None
        else:
            # a retired instance: its slots are compared field by field, so
            # no slot key is built for it again, and only this store's
            # variant counts
            kind, round, phase, signer = msg.kind, msg.round, msg.phase, msg.signer
            if kind not in CONFLICT_ELIGIBLE:
                # it can convict no one, so it is not kept; "new" has the
                # caller walk its certificate, whose inners still can
                return "new", None
            for prev in islice(log, 1, None):
                if (
                    prev.signer == signer
                    and prev.round == round
                    and prev.phase == phase
                    and prev.kind == kind
                    and prev._held & mark
                ):
                    break
            else:
                if not msg._held & mask:  # not listed yet for another store
                    log.append(msg)
                    if not msg._held:  # nor by a live store: no slot key
                        msg._slot = None
                msg._held |= mark
                return "new", None
        if prev.payload != msg.payload:
            return "conflict", derive_pof(registry, prev, msg)
        if not msg.certificate or prev.certificate:
            return "dup", None
        if mask & mark:
            # a retired log is evidence only, and a kept certificate convicts
            # no one: the copy is new and kept nowhere, so the caller walks
            # its certificate
            return "new", None
        # msg takes prev's place here and in the entry, which keeps prev too
        # while a live store still holds it
        prev._held &= ~mark
        msg._held |= mark
        held = self.by_instance[msg.instance]
        held[held.index(prev)] = msg
        kept = prev._held & ~mask
        if not kept:
            prev._slot = None
        if entry is prev:
            table[key] = [prev, msg] if kept else msg
        else:
            if msg not in entry:
                entry.append(msg)
            if not kept:
                entry.remove(prev)
                if len(entry) == 1:
                    table[key] = entry[0]
        return "upgraded", None

    def _unindex(self, m: SignedMessage) -> None:
        """Take a message no live store holds any more out of the table, and
        drop its slot key."""
        key, m._slot = m._slot, None
        entry = self.table.get(key)
        if entry is m:
            del self.table[key]
        elif entry.__class__ is list and m in entry:
            entry.remove(m)
            if len(entry) == 1:
                self.table[key] = entry[0]

    def retire(self, iid: InstanceId) -> None:
        """Move an instance's messages out of the live index into the
        network's log of it, listing only those no store that retired it
        before already holds.  A message of a kind that can be no half of a
        proof of fraud is dropped instead: the store lets go of it.  A
        message no live store holds any more leaves the table."""
        log = self.logs.setdefault(iid, [0])
        mark = self.mark
        mask = log[0]
        log[0] = mask | mark
        live = ~(mask | mark)
        for m in self.by_instance.pop(iid, ()):
            if m.kind not in CONFLICT_ELIGIBLE:
                m._held &= ~mark
            elif not m._held & mask:
                log.append(m)
            if not m._held & live:
                self._unindex(m)

    def release(self) -> None:
        """Forget a store that is being dropped: take its mark off every
        message and log, so nothing only it held outlives it in the table or
        in a log."""
        mark = self.mark
        for iid, held in self.by_instance.items():
            live = ~self.logs.get(iid, (0,))[0]
            for m in held:
                m._held &= ~mark
                if not m._held & live:
                    self._unindex(m)
        self.by_instance.clear()
        for iid, log in list(self.logs.items()):
            mask = log[0]
            if not mask & mark:
                continue
            # a logged message's live holders, and so its key, stay as they are
            mask &= ~mark
            kept = [mask]
            for m in islice(log, 1, None):
                m._held &= ~mark
                if m._held & mask:
                    kept.append(m)
            if mask:
                self.logs[iid] = kept
            else:
                del self.logs[iid]


class NodeCore:
    """Owns the store, the committee view, and all contexts of one process.

    The core is a host of ``net``: it sends every frame and arms every
    timer there as ``pid``, and reads the virtual clock from it.
    """

    def __init__(
        self,
        pid: int,
        registry,
        committee: Committee,
        cfg: ProtoConfig,
        net,
    ):
        self.pid = pid
        self.registry = registry
        self.committee = committee
        self.cfg = cfg
        self.net = net
        self.store = MessageStore(net.store_mark(), net.slot_index)
        self.metrics = CoreMetrics()
        self.contexts: dict[tuple, "MultiContext"] = {}
        # every instance id a live context owns -> (context, instance); the
        # confirmation echo's id maps to (context, None)
        self.routes: dict[InstanceId, tuple["MultiContext", object]] = {}
        self._seen_bundles: set[bytes] = set()
        # every verified proof of fraud this process holds, by Pof.key()
        self.pofs: dict[tuple, Pof] = {}
        # wired by the membership layer: called with the proofs one intake
        # added to ``pofs``, after the committee and before the recheck
        self.on_new_pofs: Optional[Callable[[list[Pof]], None]] = None

    # ---------------------------------------------------------------- signing

    def sign(
        self,
        kind: int,
        instance: InstanceId,
        round: int,
        phase: int,
        payload: bytes,
        certificate: tuple = (),
        pofs: tuple = (),
    ) -> SignedMessage:
        return make_message(
            self.registry,
            self.pid,
            kind,
            instance,
            round,
            phase,
            payload,
            tuple(certificate),
            tuple(pofs),
        )

    def now(self) -> int:
        return self.net.now

    def arm_retry(self, key: tuple, fires: int) -> None:
        """Arm an instance's retransmission timer, backed off per earlier fire."""
        self.net.arm_timer(self.pid, key, int(self.cfg.delta * (BACKOFF**fires)))

    def share(
        self, iid: InstanceId, round: int, phase: int, held: list, committee: Committee
    ) -> None:
        """Send a MSGSET of the held messages (nothing if there are none)."""
        if held:
            env = self.sign(Kind.MSGSET, iid, round, phase, msgset_payload(held), held)
            self.emit(env, committee)

    def emit(self, msg: SignedMessage, committee: Committee) -> None:
        """Send a signed message to the committee's other members, storing
        it first unless it is an envelope (envelopes are never stored)."""
        if msg.kind not in _ENVELOPES:
            self._admit(msg)
        self._send(committee.members, msg)

    def _send(self, dsts: list, msg: SignedMessage) -> None:
        # the network skips the sender itself
        self.net.send(self.pid, dsts, msg)

    def _admit(self, msg: SignedMessage) -> tuple[str, Optional[Pof]]:
        """Store a verified message; a new or upgraded one is counted at once
        by its instance's tallies, before anything is dispatched."""
        status, pof = self.store.admit(self.registry, msg)
        if status == "new" or status == "upgraded":
            route = self.routes.get(msg.instance)
            if route is not None and route[1] is not None:
                route[1].tally(msg)
        return status, pof

    # ---------------------------------------------------------------- routing

    def register_context(self, ctx: "MultiContext") -> None:
        """Route the context's instance ids to it, then replay what the store
        already holds for them (messages that arrived before the context).

        Context keys are unique per core (a (height, attempt, group) is built
        once), so no routed id is ever taken over by a later context.
        """
        self.contexts[ctx.key] = ctx
        routed = ctx.routed()
        for iid, inst in routed:
            self.routes[iid] = (ctx, inst)
        for iid, _ in routed:
            # a copy: dispatching can admit more messages of the instance
            for m in list(self.store.by_instance.get(iid, ())):
                self._dispatch(m)

    def retire_inert(self) -> None:
        """Forget every context that no input can change any more (see
        MultiContext.inert) and retire its instance ids in the store.  A
        message for a retired id that can convict its signer is still
        stored, but nothing tallies or dispatches it: that is all the
        context would have done with it."""
        for key, ctx in list(self.contexts.items()):
            if ctx.inert():
                del self.contexts[key]
                for iid, _ in ctx.routed():
                    del self.routes[iid]
                    self.store.retire(iid)

    def deliver_frame(self, src: int, msg: SignedMessage) -> None:
        self.metrics.frames += 1
        if not verify_message(self.registry, msg):
            self.metrics.bad_signature += 1
            return
        if msg.kind == Kind.POF_LIST:
            self.ingest_pofs(list(msg.pofs))
            return
        if msg.kind != Kind.MSGSET and not msg.certificate:
            # a bare message: _ingest's steps for it, without the lists
            pof = None
            if not msg._held & self.store.mark:
                status, pof = self._admit(msg)
                if status == "new":
                    self.metrics.admitted += 1
            self._dispatch(msg)
            if pof is not None:
                self.ingest_pofs([pof])
            return
        found: list[Pof] = []
        fresh: list[SignedMessage] = []
        if msg.kind == Kind.MSGSET:
            if msg.payload in self._seen_bundles:
                return
            self._seen_bundles.add(msg.payload)
            for inner in msg.certificate:
                self._ingest(inner, found, fresh)
            for m in fresh:
                self._dispatch(m)
        else:
            self._ingest(msg, found, fresh)
            for m in fresh:
                if m is not msg:
                    self._dispatch(m)
            self._dispatch(msg)
        if found:
            self.ingest_pofs(found)

    def _ingest(self, m: SignedMessage, found: list, fresh: list) -> None:
        mark = self.store.mark
        # envelopes never nest; and the very object stored here is verified
        # and cannot upgrade itself, so its held mark settles it
        if m.kind in _ENVELOPES or m._held & mark:
            return
        status = self._ingest_one(m, found, fresh)
        if status is None or status == "dup":
            # the stored copy's certificate was already walked on first sight;
            # retransmissions add nothing (their inners ride the wire anyway)
            return
        for inner in m.certificate:
            if not inner._held & mark and inner.kind not in _ENVELOPES:
                self._ingest_one(inner, found, fresh)

    def _ingest_one(self, m: SignedMessage, found: list, fresh: list) -> Optional[str]:
        """Verify and admit one message; None if its signature is bad."""
        if not verify_message(self.registry, m):
            self.metrics.bad_signature += 1
            return None
        status, pof = self._admit(m)
        if pof is not None:
            found.append(pof)
        if status in ("new", "upgraded"):
            self.metrics.admitted += 1
            fresh.append(m)
        return status

    def _dispatch(self, m: SignedMessage) -> None:
        route = self.routes.get(m.instance)
        if route is None or route[0].stopped:
            return
        ctx, inst = route
        if inst is not None:
            inst.on_message(m)
        elif m.kind == Kind.ECHO:
            ctx._eval_confirm()

    def on_timer(self, key: tuple) -> None:
        """An instance timer: key[1] is the instance id."""
        route = self.routes.get(key[1])
        if route is not None and not route[0].stopped:
            route[1].on_timer(key)

    # ---------------------------------------------------- fraud-proof intake

    def ingest_pofs(self, pofs: Iterable[Pof]) -> None:
        """Keep each proof not held yet that verifies, exclude its accused,
        relay the new proofs to the members left and recheck every context."""
        stored: list[Pof] = []
        for pof in pofs:
            key = pof.key()
            if key not in self.pofs and verify_pof(self.registry, pof):
                self.pofs[key] = pof
                stored.append(pof)
        if not stored:
            return
        update_committee(self.committee, stored)
        self.metrics.pofs_recorded += len(stored)
        env = self.sign(
            Kind.POF_LIST, GLOBAL_INSTANCE, 0, 0, pofs_payload(stored), pofs=tuple(stored)
        )
        self.emit(env, self.committee)
        if self.on_new_pofs is not None:
            self.on_new_pofs(stored)
        for ctx in list(self.contexts.values()):
            ctx.recheck()

    # ------------------------------------------------- instance callbacks

    def rb_delivered(self, iid: InstanceId, source: int, value: bytes) -> None:
        route = self.routes.get(iid)
        if route is not None and not route[0].stopped:
            route[0].on_slot_delivered(source, value)

    def instance_decided(self, iid: InstanceId, value: int, round: int) -> None:
        route = self.routes.get(iid)
        if route is not None and not route[0].stopped:
            route[0].on_bin_decided(iid[4], value, round)


# ---------------------------------------------------------------------------
# block encodings and the pure confirmation rule
# ---------------------------------------------------------------------------


def encode_value_set(values: Iterable[bytes]) -> bytes:
    """Canonical encoding of a value set: distinct members, sorted bytes."""
    vs = sorted(set(values))
    parts = [_enc_u32(len(vs))]
    for v in vs:
        parts.append(_enc_u32(len(v)))
        parts.append(v)
    return b"".join(parts)


def decode_value_set(blob: bytes) -> list[bytes]:
    if len(blob) < 4:
        raise ValueError("truncated value set")
    count = int.from_bytes(blob[:4], "big")
    off = 4
    out = []
    for _ in range(count):
        if off + 4 > len(blob):
            raise ValueError("truncated value set")
        ln = int.from_bytes(blob[off : off + 4], "big")
        off += 4
        if off + ln > len(blob):
            raise ValueError("truncated value set")
        out.append(blob[off : off + ln])
        off += ln
    if off != len(blob):
        raise ValueError("trailing bytes in value set")
    return out


def confirm_status(
    n: int, h: int, alpha, confirmations: int, conflicting_certificate: bool = False
) -> str:
    """Classify a local decision given peer confirmations.

    A valid certificate for a different decision wins immediately
    (disagreement-detected); otherwise enough confirmations upgrade the
    decision to confirmed; anything else stays pending.
    """
    if conflicting_certificate:
        return "disagreement-detected"
    if confirmations >= alpha_confirm_threshold(n, h, alpha):
        return "confirmed"
    return "pending"


# ---------------------------------------------------------------------------
# the multi-valued context: n broadcast slots + n binary votes
# ---------------------------------------------------------------------------

class MultiContext:
    """One multi-valued agreement: every proposer broadcasts a value, every
    slot gets a binary vote, and the frozen bit vector projects to a decision.

    A slot's vote starts at 1 when its value arrives (and validates), and at 0
    once h(d_r) slots have decided 1 — so a shrinking h after exclusions can
    unlock the zero-fill.  The vector freezes when all votes are in; the
    decision is the superblock, the canonical union of all bit-1 values.  With
    the run's confirmation ratio set, the decision is echoed with the lowest
    bit-1 vote certificate attached, and peer echoes either confirm it or
    expose a certified conflicting decision.
    """

    def __init__(
        self,
        core: NodeCore,
        committee: Committee,
        period: int = 0,
        attempt: int = 0,
        group: int = GROUP_MAIN,
        validator: Optional[Callable[[int, bytes], bool]] = None,
    ):
        self.core = core
        self.committee = committee
        self.key = (period, attempt, group)
        self.validator = validator
        self.stopped = False
        self.proposers = tuple(sorted(committee.members))
        self.slots: dict[int, BroadcastInstance] = {}
        self.bins: dict[int, BinaryInstance] = {}
        # each id is one tuple object across the cores of the network, which
        # every message of the instance then shares
        iids = core.net.slot_index.iids
        for src in self.proposers:
            b_iid = (period, attempt, group, CHAN_BCAST, src)
            v_iid = (period, attempt, group, CHAN_BINARY, src)
            b_iid = iids.setdefault(b_iid, b_iid)
            v_iid = iids.setdefault(v_iid, v_iid)
            self.slots[src] = BroadcastInstance(core, committee, b_iid, src)
            self.bins[src] = BinaryInstance(core, committee, v_iid)
        c_iid = (period, attempt, group, CHAN_CONFIRM, 0)
        self.confirm_iid: InstanceId = iids.setdefault(c_iid, c_iid)
        self.delivered: dict[int, bytes] = {}
        self.bits: dict[int, int] = {}
        self.zero_filled = False
        self.vector: Optional[tuple] = None
        self.decision: Optional[bytes] = None
        # the lowest bit-1 vote's decision certificate, set with the decision
        self.decision_cert: tuple = ()
        self.decided_at: Optional[int] = None
        self.confirm_sent = False
        self.confirmation = "pending"
        self.on_decided: Optional[Callable] = None
        self.on_status: Optional[Callable] = None

    # ------------------------------------------------------------- lifecycle

    def start(self, value: Optional[bytes]) -> None:
        if value is not None and self.core.pid in self.slots:
            self.slots[self.core.pid].broadcast_value(value)

    def stop(self) -> None:
        self.stopped = True

    def routed(self) -> list[tuple[InstanceId, object]]:
        """(instance id, instance) for every id this context owns; the
        confirmation echo's id has no instance."""
        routed = [(i.iid, i) for i in (*self.slots.values(), *self.bins.values())]
        routed.append((self.confirm_iid, None))
        return routed

    def inert(self) -> bool:
        """Whether no input can change what this context does: it is
        stopped, or it decided and no part of it can still act.  A delivered
        slot that never echoed still echoes a late INIT, and a pending
        confirmation still counts echoes."""
        if self.stopped:
            return True
        if self.decision is None:
            return False
        if self.core.cfg.alpha is not None and self.confirmation == "pending":
            return False
        return all(
            s.cancelled or (s.delivered is not None and s.echoed)
            for s in self.slots.values()
        )

    # -------------------------------------------------------------- progress

    def on_slot_delivered(self, source: int, value: bytes) -> None:
        self.delivered[source] = value
        if self.validator is not None and not self.validator(source, value):
            return
        bin_ = self.bins[source]
        if not bin_.started and bin_.decided is None:
            bin_.propose(1)
        self._try_finish()

    def on_bin_decided(self, source: int, value: int, round: int) -> None:
        self.bits[source] = value
        slot = self.slots.get(source)
        if slot is not None:
            if value == 0:
                slot.cancel()
            elif source not in self.delivered:
                slot.ensure_timer()  # the value is now load-bearing
        self._maybe_zero_fill()
        self._try_finish()

    def _maybe_zero_fill(self) -> None:
        if self.zero_filled:
            return
        ones = sum(1 for b in self.bits.values() if b == 1)
        if ones >= self.committee.h:
            self.zero_filled = True
            for b in self.bins.values():
                if not b.started and b.decided is None:
                    b.propose(0)

    def _try_finish(self) -> None:
        if self.stopped or self.decision is not None:
            return
        if self.vector is None and len(self.bits) == len(self.bins):
            self.vector = tuple((src, self.bits[src]) for src in self.proposers)
        if self.vector is None:
            return
        ones = [src for src, b in self.vector if b == 1]
        if any(src not in self.delivered for src in ones):
            return
        decision = encode_value_set(self.delivered[src] for src in ones)
        # one object per decided value across the cores of the network
        self.decision = self.core.net.slot_index.values.setdefault(decision, decision)
        if ones:
            self.decision_cert = self.bins[ones[0]].decision_cert
        self.decided_at = self.core.now()
        if self.on_decided is not None:
            self.on_decided(self)
        if self.core.cfg.alpha is not None:
            self._send_confirm()
        # slot values for bit-0 slots are never needed
        for src, b in self.vector:
            if b == 0:
                self.slots[src].cancel()

    # ---------------------------------------------------------- confirmation

    def _send_confirm(self) -> None:
        if self.confirm_sent:
            return
        self.confirm_sent = True
        msg = self.core.sign(
            Kind.ECHO, self.confirm_iid, 1, 1, self.decision, self.decision_cert
        )
        self.core.emit(msg, self.committee)
        self._eval_confirm()

    def _valid_foreign_cert(self, cert: tuple) -> bool:
        """A binary decision certificate for this context: h distinct active
        signers echoing one parity-matching bit on one of our vote instances."""
        if not cert:
            return False
        kind, iid, r, phase, want = cert[0].vote()
        v = want[0] if len(want) == 1 else -1
        return (
            kind == Kind.ECHO
            and phase == 2
            and iid[:4] == self.key + (CHAN_BINARY,)
            and iid[4] in self.bins
            and v == parity(r)
            and quorum_valid(
                self.core.registry, cert, self.committee.h, self.committee.is_active
            )
        )

    def _eval_confirm(self) -> None:
        alpha = self.core.cfg.alpha
        if self.decision is None or alpha is None or self.confirmation != "pending":
            return
        msgs = self.core.store.group(Kind.ECHO, self.confirm_iid, 1, 1)
        count = 0
        conflict = False
        for signer, m in msgs.items():
            if not self.committee.is_active(signer):
                continue
            if m.payload == self.decision:
                count += 1
            elif self._valid_foreign_cert(m.certificate):
                conflict = True
        status = confirm_status(
            self.committee.n0, self.committee.h, alpha, count, conflict
        )
        if status != self.confirmation:
            self.confirmation = status
            if self.on_status is not None:
                self.on_status(self, status)

    # ------------------------------------------------------------- exclusion

    def recheck(self) -> None:
        """Committee changed: rerun every threshold under the new h."""
        if self.stopped:
            return
        for b in self.bins.values():
            b.recheck_and_reset()
        for s in self.slots.values():
            s.recheck_and_reset()
        self._maybe_zero_fill()
        self._try_finish()
        self._eval_confirm()

    # --------------------------------------------------------------- queries

    def decided_values(self) -> Optional[list[bytes]]:
        if self.decision is None:
            return None
        return decode_value_set(self.decision)

