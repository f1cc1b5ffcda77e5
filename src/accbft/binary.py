"""Accountable binary consensus: one per-process instance state machine.

Round structure (round r, parity p = r mod 2):

  phase 1  binary-value broadcast: BVECHO the estimate (certified from the
           previous round), second-echo values with enough distinct support,
           deliver values reaching h(d_r) echoes into bin_vals with a
           certificate, announce deliveries via BVREADY.  The round's rotating
           coordinator broadcasts its first delivered value as COORD.
  phase 2  ECHO an aux set (the coordinator's value if delivered, else the
           bin_vals snapshot); once h(d_r) coherent ECHOs arrive and the phase
           timer has expired, reduce them to a value set.
  finish   single value equal to p -> decide it (broadcast a decision with an
           ECHO-only certificate); single other value -> adopt it; both values
           -> adopt p.  The estimate's certificate feeds the next round.

Thresholds count each vote once.  The core hands every message the store
admits as new or upgraded to tally(), which sets the signer's bit in the
current round's BVECHO value mask or phase-2 aux-set mask if the signer is
active and the message admissible, so pump() tests h(d_r) = h0 - d_r by bit
counts.  Exclusions shrink h(d_r) live: the tallies are recounted from the
store when the round or the committee's exclusion count d_r changes (d_r
only grows), so a committee update plus a pump() re-evaluates the round
under the new threshold.  A quorum certificate is the first h counted
signers in signer order, built once when the threshold is crossed.

pump() runs on propose, at every round and phase entry, on every timer and
on a committee recheck.  A dispatched message runs it only if something a
trigger reads moved since the last pump (see _stale):
  - a tally bit that meets a threshold: BVECHO(v) while v is unsent and the
    others' support reaches the second-echo count, or while v is undelivered
    and the support reaches h(d_r); a phase-2 aux bit in phase 2 once the
    phase timer has expired (see _can_fire);
  - a certified BVREADY that adds a value to the current round's bin_vals;
  - a committee d_r other than the one the tally was counted under, which a
    context's own committee can reach without a recheck.
Nothing else can make a trigger fire: the triggers read only those counts,
bin_vals, d_r, the timer latches and the round and phase, and a change to
the last two pumps on its own.

Timers latch: once a phase timer fires, the "expired" half of the exit
condition stays satisfied; further fires only rebroadcast the stored message
set for the stuck phase (and everything held for future phases/rounds).
"""

from __future__ import annotations

from typing import Optional

from .committee import Committee, mask_members
from .crypto import Kind, SignedMessage, pick_certificate, quorum_valid


_TALLIED = frozenset({Kind.BVECHO, Kind.ECHO})
# tally index of each phase-2 aux set; indexes 0 and 1 hold BVECHO support
_AUX_INDEX = {frozenset({0}): 2, frozenset({1}): 3, frozenset({0, 1}): 4}
# one shared object per non-empty value set, so rounds hold no copies
_VALUE_SETS = {s: s for s in _AUX_INDEX}


def parity(r: int) -> int:
    return r & 1


def enc_bit(b: int) -> bytes:
    return bytes([b])


def enc_bits(bits) -> bytes:
    return bytes(sorted(bits))


def dec_bits(payload: bytes) -> Optional[frozenset]:
    if not payload or any(b not in (0, 1) for b in payload):
        return None
    s = frozenset(payload)
    if len(s) != len(payload):
        return None
    return s


class RoundState:
    __slots__ = (
        "sent_bvecho",
        "bin_vals",
        "coord_done",
        "aux",
        "echo_sent",
        "expired",
        "epoch",
        "fires",
    )

    def __init__(self):
        self.sent_bvecho = 0  # bit v set once BVECHO(v) went out
        self.bin_vals: dict[int, tuple] = {}
        self.coord_done = False
        self.aux: Optional[frozenset] = None
        self.echo_sent = False
        # indexed by phase; index 0 is unused
        self.expired = [False, False, False]
        self.epoch = [0, 0, 0]
        self.fires = [0, 0, 0]


class BinaryInstance:
    __slots__ = (
        "core",
        "committee",
        "iid",
        "started",
        "est",
        "est_cert",
        "round",
        "phase",
        "rounds",
        "decided",
        "decision_cert",
        "_decision_relayed",
        "_tally",
        "_counted_d_r",
        "_due",
    )

    def __init__(self, core, committee: Committee, iid):
        self.core = core
        self.committee = committee
        self.iid = iid
        self.started = False
        self.est: Optional[int] = None
        self.est_cert: tuple = ()
        self.round = 0
        self.phase = 0
        self.rounds: dict[int, RoundState] = {}
        self.decided: Optional[tuple[int, int]] = None  # (value, round)
        self.decision_cert: tuple = ()
        self._decision_relayed = False
        # the current round's tally (see _counts) and the d_r it was counted
        # under; none until the first pump of a round, dropped at decision
        self._tally: Optional[list[int]] = None
        self._counted_d_r = committee.d_r
        # a tally bit or a bin_vals entry since the last pump that can fire
        # a trigger (see _can_fire); cleared when pump starts
        self._due = False

    # ------------------------------------------------------------------ util

    def _rs(self, r: int) -> RoundState:
        rs = self.rounds.get(r)
        if rs is None:
            rs = self.rounds[r] = RoundState()
        return rs

    def _counts(self) -> list[int]:
        """Signer bitmasks for the current round: BVECHO support of value 0
        and 1, then phase-2 ECHO support per aux set (see _AUX_INDEX).
        Recounted from the store after round entry or when d_r moved."""
        d_r = self.committee.d_r
        if self._tally is None or self._counted_d_r != d_r:
            self._counted_d_r = d_r
            self._tally = self._recount(self.round)
        return self._tally

    def _recount(self, r: int) -> list[int]:
        tally = [0] * 5
        for m in self.core.store.by_instance.get(self.iid, ()):
            if m.round == r:
                self._count(m, tally)
        return tally

    def tally(self, m: SignedMessage) -> None:
        """Count a message the store just admitted as new or upgraded (a
        tally counted under an older d_r is recounted before it is read)."""
        if m.kind in _TALLIED and self._tally is not None and m.round == self.round:
            i = self._count(m, self._tally)
            if i >= 0 and self._can_fire(i):
                self._due = True

    def _count(self, m: SignedMessage, tally: list[int]) -> int:
        """Set m's signer bit in the tally entry its vote counts for; that
        entry's index if the bit is new, else -1."""
        if m.kind == Kind.BVECHO:
            # the wire phase is 1+v, so a slot only supports the value it names
            if m.phase not in (1, 2) or m.payload != enc_bit(m.phase - 1):
                return -1
            i = m.phase - 1
            if (
                tally[i] >> m.signer & 1
                or not self.committee.is_active(m.signer)
                or not self._bvecho_admissible(m)
            ):
                return -1
        elif m.kind == Kind.ECHO and m.phase == 2:
            s = dec_bits(m.payload)
            if s is None or not self.committee.is_active(m.signer):
                return -1
            i = _AUX_INDEX[s]
            if tally[i] >> m.signer & 1:
                return -1
        else:
            return -1
        tally[i] |= 1 << m.signer
        return i

    def _can_fire(self, i: int) -> bool:
        """Whether the current round's tally entry i, just grown by one
        signer, meets a threshold pump acts on: the second echo or the
        delivery of value i, or (an aux entry) the phase-2 exit once its
        timer has expired."""
        rs = self.rounds[self.round]
        if i >= 2:
            return self.phase == 2 and rs.expired[2]
        signers = self._tally[i]
        if not rs.sent_bvecho >> i & 1:
            others = signers & ~(1 << self.core.pid)
            if others.bit_count() >= self._second_need():
                return True
        return i not in rs.bin_vals and signers.bit_count() >= self.committee.h

    def _stale(self) -> bool:
        """Whether a pump could fire anything: something it reads moved since
        the last one (a due tally bit or bin_vals entry, or d_r)."""
        return self._due or self._counted_d_r != self.committee.d_r

    def _second_need(self) -> int:
        """Distinct other supporters of a value that make this process echo
        it too."""
        com = self.committee
        profile = self.core.cfg.profile
        return max(1, (com.n0 - profile.q - profile.t) // 2 - com.d_r)

    def _support(self, r: int, v: int) -> int:
        """Bitmask of the signers whose round-r BVECHO for v counts.  Round r
        is the current round except in a pump a nested delivery moved past."""
        if r != self.round:
            return self._recount(r)[v]
        return self._counts()[v]

    def _cert_valid(self, cert: tuple, kind: int, value: int, r: int, phase: int) -> bool:
        """A certificate is h(d_r) distinct active signers over one slot+value."""
        want = enc_bits({value}) if kind == Kind.ECHO else enc_bit(value)
        return (
            bool(cert)
            and cert[0].vote() == (kind, self.iid, r, phase, want)
            and quorum_valid(
                self.core.registry, cert, self.committee.h, self.committee.is_active
            )
        )

    def _bvecho_admissible(self, m: SignedMessage) -> bool:
        """Rule check: post-round-1 estimates need a prior-round certificate,
        except value 1 entering round 2 (round-1 parity needs none)."""
        if m.round == 1:
            return True
        v = m.payload[0] if m.payload else -1
        if v not in (0, 1):
            return False
        if m.round == 2 and v == 1:
            return True
        return self._cert_valid(
            m.certificate, Kind.ECHO, v, m.round - 1, 2
        ) or self._cert_valid(m.certificate, Kind.BVECHO, v, m.round - 1, 1 + v)

    def _emit(self, kind, round_, phase, payload, certificate=()):
        msg = self.core.sign(kind, self.iid, round_, phase, payload, certificate)
        self.core.emit(msg, self.committee)
        return msg

    def _arm(self, phase: int) -> None:
        rs = self._rs(self.round)
        rs.epoch[phase] += 1
        self.core.arm_retry(
            ("bin", self.iid, self.round, phase, rs.epoch[phase]), rs.fires[phase]
        )

    # ------------------------------------------------------------- lifecycle

    def propose(self, v: int) -> None:
        assert not self.started, "already started"
        self.started = True
        self.est = v
        self.est_cert = ()
        self._enter_round(1)

    def _enter_round(self, r: int) -> None:
        self.round = r
        self.phase = 1
        self._tally = None
        rs = self._rs(r)
        if not rs.sent_bvecho & (1 << self.est):
            rs.sent_bvecho |= 1 << self.est
            # the wire phase indexes the echoed value (1+v): echoing both
            # values in one round is legitimate here, so the two sends must
            # occupy distinct slots or they would read as self-equivocation
            self._emit(Kind.BVECHO, r, 1 + self.est, enc_bit(self.est), self.est_cert)
        self._arm(1)
        self.pump()

    # -------------------------------------------------------------- handlers

    def on_message(self, m: SignedMessage) -> None:
        if m.kind == Kind.DECISION:
            self._on_decision(m)
            return
        if m.kind == Kind.BVREADY:
            self._on_bvready(m)
        if self._stale():
            self.pump()

    def _on_decision(self, m: SignedMessage) -> None:
        if self.decided is not None:
            return  # its certificate could change nothing
        v = m.payload[0] if len(m.payload) == 1 else -1
        if v not in (0, 1) or v != parity(m.round):
            return
        if not self._cert_valid(m.certificate, Kind.ECHO, v, m.round, 2):
            return
        self._settle(v, m.round, m.certificate)
        if not self._decision_relayed:
            self._decision_relayed = True
            self.core.emit(m, self.committee)

    def _on_bvready(self, m: SignedMessage) -> None:
        # past rounds are settled; future-round deliveries are fine to record
        if self.decided is not None or m.round < self.round:
            return
        v = m.payload[0] if len(m.payload) == 1 else -1
        if v not in (0, 1):
            return
        rs = self._rs(m.round)
        if v in rs.bin_vals:
            return
        if not self._cert_valid(m.certificate, Kind.BVECHO, v, m.round, 1 + v):
            return
        self._bv_deliver(m.round, v, tuple(m.certificate))
        if m.round == self.round:  # a later round pumps at its entry
            self._due = True

    def _bv_deliver(self, r: int, v: int, cert: tuple) -> None:
        rs = self._rs(r)
        if v in rs.bin_vals:
            return
        rs.bin_vals[v] = cert
        if (
            not rs.coord_done
            and self.committee.coordinator(r) == self.core.pid
        ):
            rs.coord_done = True
            self._emit(Kind.COORD, r, 1, enc_bit(v))
        self._emit(Kind.BVREADY, r, 1 + v, enc_bit(v), cert)

    # ----------------------------------------------------------------- pump

    def pump(self) -> None:
        """Re-evaluate every monotone trigger for the current round."""
        self._due = False
        if self.decided is not None or not self.started:
            return
        r = self.round
        rs = self._rs(r)
        com = self.committee

        # second echo + delivery per value
        second_need = self._second_need()
        pid = self.core.pid
        for v in (0, 1):
            signers = self._support(r, v)
            others = signers & ~(1 << pid)
            if not rs.sent_bvecho & (1 << v) and others.bit_count() >= second_need:
                cert = ()
                if r > 1 and not (r == 2 and v == 1):
                    echoes = self.core.store.group(Kind.BVECHO, self.iid, r, 1 + v)
                    cert = pick_certificate(echoes[s] for s in mask_members(others))
                    if not cert:
                        continue
                rs.sent_bvecho |= 1 << v
                self._emit(Kind.BVECHO, r, 1 + v, enc_bit(v), cert)
                signers = self._support(r, v)
            if v not in rs.bin_vals and signers.bit_count() >= com.h:
                cert = self.core.store.quorum_cert(
                    Kind.BVECHO, self.iid, r, 1 + v, signers, com.h
                )
                self._bv_deliver(r, v, cert)

        # phase-1 exit
        if self.phase == 1 and rs.bin_vals and rs.expired[1]:
            self._enter_phase2(rs)

        # phase-2 exit
        if self.phase == 2 and rs.expired[2]:
            vals = self._comp_vals(rs)
            if vals:
                self._finish_round(rs, vals)

    def _enter_phase2(self, rs: RoundState) -> None:
        r = self.round
        coord = self.committee.coordinator(r)
        cm = self.core.store.first(Kind.COORD, self.iid, r, 1, coord)
        if cm is not None and len(cm.payload) == 1 and cm.payload[0] in rs.bin_vals:
            aux = _VALUE_SETS[frozenset({cm.payload[0]})]
        else:
            aux = _VALUE_SETS[frozenset(rs.bin_vals)]
        rs.aux = aux
        self.phase = 2
        if not rs.echo_sent:
            rs.echo_sent = True
            self._emit(Kind.ECHO, r, 2, enc_bits(aux))
        self._arm(2)
        self.pump()

    def _comp_vals(self, rs: RoundState) -> Optional[frozenset]:
        tally = self._counts()
        h = self.committee.h
        counts = {s: tally[i].bit_count() for s, i in _AUX_INDEX.items() if tally[i]}
        aux = rs.aux or frozenset()
        in_aux = [s for s in counts if s <= aux]
        if sum(counts[s] for s in in_aux) >= h and frozenset().union(*in_aux) == aux:
            return aux
        bits = frozenset(rs.bin_vals)
        in_bin = [s for s in counts if s <= bits]
        if sum(counts[s] for s in in_bin) < h:
            return None
        p = parity(self.round)
        # deterministic preference among the admissible h-subsets: a unanimous
        # parity quorum, then a unanimous non-parity quorum, then the mix
        for pick in (frozenset({p}), frozenset({1 - p})):
            if pick <= bits and counts.get(pick, 0) >= h:
                return pick
        return frozenset().union(*in_bin)

    def _echo_only_cert(self, v: int) -> tuple:
        signers = self._counts()[_AUX_INDEX[frozenset({v})]]
        assert signers.bit_count() >= self.committee.h, "phase-2 exit guaranteed these"
        return self.core.store.quorum_cert(
            Kind.ECHO, self.iid, self.round, 2, signers, self.committee.h
        )

    def _finish_round(self, rs: RoundState, vals: frozenset) -> None:
        r = self.round
        p = parity(r)
        if vals == {p}:
            cert = self._echo_only_cert(p)
            self.est = p
            self.est_cert = rs.bin_vals[p] if r > 1 else ()
            if self.decided is None:
                self._settle(p, r, cert)
                self._emit(Kind.DECISION, r, 2, enc_bit(p), cert)
            return
        if len(vals) == 1:
            (v,) = vals
            self.est = v
            self.est_cert = self._echo_only_cert(v)
        else:
            self.est = p
            self.est_cert = rs.bin_vals[p] if r > 1 else ()
        self._enter_round(r + 1)

    def _settle(self, v: int, r: int, cert: tuple) -> None:
        self.decided = (v, r)
        self.decision_cert = tuple(cert)
        self._tally = None
        # invalidate timers
        rs = self.rounds.get(self.round)
        if rs is not None:
            rs.epoch[1] += 1
            rs.epoch[2] += 1
        self.core.instance_decided(self.iid, v, r)

    # ---------------------------------------------------------------- timers

    def on_timer(self, key: tuple) -> None:
        _, _, r, phase, epoch = key
        if self.decided is not None or r != self.round:
            return
        rs = self._rs(r)
        if epoch != rs.epoch[phase] or phase != self.phase:
            return
        rs.expired[phase] = True
        rs.fires[phase] += 1
        self.pump()
        if self.decided is not None or self.round != r or self.phase != phase:
            return
        # stuck: share everything held for this phase and all future ones
        held = self.core.store.by_instance.get(self.iid, ())
        bundle = [m for m in held if m.round > r or m.round == r and m.phase >= phase]
        self.core.share(self.iid, r, phase, bundle, self.committee)
        self._arm(phase)

    # ------------------------------------------------------------- exclusion

    def recheck_and_reset(self) -> None:
        """Committee changed: retry exits with the old timer latch, then give
        the still-current phase a fresh timer."""
        if self.decided is not None or not self.started:
            return
        before = (self.round, self.phase)
        self.pump()
        if self.decided is None and (self.round, self.phase) == before:
            rs = self._rs(self.round)
            rs.expired[self.phase] = False
            self._arm(self.phase)
