"""Accountable reliable broadcast: source INIT, one ECHO per process, READY
with an h(d_r)-echo certificate, and timer-driven set exchange until delivery.

Deceitful sources that INIT different values to different processes either
fail to reach an echo quorum anywhere (and the set exchange then yields fraud
proofs), or one value wins; helpers echoing both values convict themselves.

ECHO support is tallied per value as the store admits each echo, and
recounted from the store only when the committee's exclusion count changes.

pump() runs when the source broadcasts and on a committee recheck.  A
dispatched INIT or ECHO runs it only before the first count, after an echo
value reached h(d_r), or once d_r differs from the one the tally was counted
under (see _stale): the one trigger is a value's echo count reaching h(d_r).
"""

from __future__ import annotations

from typing import Optional

from .committee import Committee
from .crypto import Kind, SignedMessage, quorum_valid


class BroadcastInstance:
    __slots__ = (
        "core",
        "committee",
        "iid",
        "source",
        "echoed",
        "ready_sent",
        "delivered",
        "epoch",
        "fires",
        "cancelled",
        "_armed",
        "_counted_d_r",
        "_echoes",
        "_due",
    )

    def __init__(self, core, committee: Committee, iid, source: int):
        self.core = core
        self.committee = committee
        self.iid = iid
        self.source = source
        self.echoed = False
        self.ready_sent = False
        self.delivered: Optional[bytes] = None
        self.epoch = 0
        self.fires = 0
        self.cancelled = False
        self._armed = False
        # value -> bitmask of active echo signers, and the d_r it was counted
        # under; none until the first pump, dropped at delivery or cancellation
        self._counted_d_r = committee.d_r
        self._echoes: Optional[dict[bytes, int]] = None
        # an echo value reached h(d_r) since the last pump (or nothing has
        # been counted yet); cleared when pump starts
        self._due = True

    # ------------------------------------------------------------- lifecycle

    def broadcast_value(self, value: bytes) -> None:
        assert self.core.pid == self.source, "only the source starts"
        self._emit(Kind.INIT, value)
        if not self.echoed:  # the source supports its own value
            self.echoed = True
            self._emit(Kind.ECHO, value)
        self.ensure_timer()
        self.pump()

    def ensure_timer(self) -> None:
        if not self._armed and self.delivered is None and not self.cancelled:
            self._armed = True
            self._arm()

    def cancel(self) -> None:
        """Parent no longer needs this value (its slot decided 0)."""
        self.cancelled = True
        self.epoch += 1
        self._echoes = None

    def _emit(self, kind, payload: bytes, certificate=()):
        msg = self.core.sign(kind, self.iid, 1, kind_phase(kind), payload, certificate)
        self.core.emit(msg, self.committee)
        return msg

    def _arm(self) -> None:
        self.epoch += 1
        self.core.arm_retry(("rb", self.iid, self.epoch), self.fires)

    # -------------------------------------------------------------- handlers

    def on_message(self, m: SignedMessage) -> None:
        if self.cancelled:
            return
        self.ensure_timer()  # engaged instances retry until they deliver
        if m.kind == Kind.INIT:
            if m.signer != self.source:
                return
            if not self.echoed:
                self.echoed = True
                self._emit(Kind.ECHO, m.payload)
            if self._stale():
                self.pump()
        elif m.kind == Kind.ECHO:
            if self._stale():
                self.pump()
        elif m.kind == Kind.READY:
            self._on_ready(m)

    def _on_ready(self, m: SignedMessage) -> None:
        if self.delivered is not None:
            return
        cert = m.certificate
        if not (
            cert
            and cert[0].vote() == (Kind.ECHO, self.iid, 1, _ECHO_PHASE, m.payload)
            and quorum_valid(
                self.core.registry, cert, self.committee.h, self.committee.is_active
            )
        ):
            return
        if not self.ready_sent:
            self.ready_sent = True
            self._emit(Kind.READY, m.payload, tuple(cert))
        self._deliver(m.payload)

    def tally(self, m: SignedMessage) -> None:
        """Count a message the store just admitted as new or upgraded (a
        tally counted under an older d_r is recounted before it is read)."""
        if self._echoes is not None:
            mask = self._count(m)
            if mask.bit_count() >= self.committee.h:
                self._due = True

    def _count(self, m: SignedMessage) -> int:
        """Add m's signer to its value's echo mask; the mask (0 if m is not
        a counted echo)."""
        if (
            m.kind == Kind.ECHO
            and m.round == 1
            and m.phase == _ECHO_PHASE
            and self.committee.is_active(m.signer)
        ):
            mask = self._echoes.get(m.payload, 0) | 1 << m.signer
            self._echoes[m.payload] = mask
            return mask
        return 0

    def _stale(self) -> bool:
        """Whether a pump could fire anything: an echo value reached h(d_r),
        or d_r moved, since the last one."""
        return self._due or self._counted_d_r != self.committee.d_r

    def _support(self) -> dict[bytes, int]:
        """The echo tally, recounted from the store if d_r moved."""
        d_r = self.committee.d_r
        if self._echoes is None or self._counted_d_r != d_r:
            self._counted_d_r = d_r
            self._echoes = {}
            group = self.core.store.group(Kind.ECHO, self.iid, 1, _ECHO_PHASE)
            for m in group.values():
                self._count(m)
        return self._echoes

    def pump(self) -> None:
        self._due = False
        if self.delivered is not None or self.cancelled or self.ready_sent:
            return
        support = self._support()
        h = self.committee.h
        quorum = [value for value, mask in support.items() if mask.bit_count() >= h]
        if not quorum:
            return
        value = min(quorum)
        cert = self.core.store.quorum_cert(
            Kind.ECHO, self.iid, 1, _ECHO_PHASE, support[value], h
        )
        self.ready_sent = True
        self._emit(Kind.READY, value, cert)
        self._deliver(value)

    def _deliver(self, value: bytes) -> None:
        if self.delivered is not None:
            return
        self.delivered = value
        self._echoes = None
        self.epoch += 1  # cancels pending timer
        self.core.rb_delivered(self.iid, self.source, value)

    # ---------------------------------------------------------------- timers

    def on_timer(self, key: tuple) -> None:
        if key[2] != self.epoch or self.delivered is not None or self.cancelled:
            return
        self.fires += 1
        held = self.core.store.by_instance.get(self.iid, ())
        bundle = [m for m in held if m.kind == Kind.INIT or m.kind == Kind.ECHO]
        self.core.share(self.iid, 1, 0, bundle, self.committee)
        self._arm()

    def recheck_and_reset(self) -> None:
        if self.delivered is not None or self.cancelled:
            return
        self.pump()
        if self.delivered is None and self._armed:
            self._arm()


# fixed wire phases: INIT announces, ECHO supports, READY commits
_PHASES = {Kind.INIT: 0, Kind.ECHO: 1, Kind.READY: 2}
_ECHO_PHASE = _PHASES[Kind.ECHO]


def kind_phase(kind: int) -> int:
    return _PHASES.get(kind, 0)
