"""Signed protocol messages, canonical encodings, and equivocation proofs.

Everything on the simulated wire is a SignedMessage.  A signature covers the
canonical encoding of the message core (kind, instance, round, phase, payload,
signer) so that certificates stay detachable: a relayed message can be
re-wrapped with a different certificate without invalidating the signature,
and two messages signed for the same slot with different payloads form a
transferable proof of fraud on their own.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, Optional, Sequence


class Kind(IntEnum):
    INIT = 1
    ECHO = 2
    READY = 3
    EST = 4
    BVECHO = 5
    BVREADY = 6
    COORD = 7
    DECISION = 8
    POF_LIST = 9
    MSGSET = 10


# Kinds whose duplicate-slot payload conflicts prove deceit.  Defensive kinds
# (READY relays, decision notices, fraud-proof lists, set exchanges) are
# excluded: re-sending someone's justified value is not equivocation.
CONFLICT_ELIGIBLE = frozenset(
    {Kind.EST, Kind.ECHO, Kind.BVECHO, Kind.BVREADY, Kind.INIT, Kind.COORD}
)

# Instance ids are 5-tuples: (period, attempt, group, channel, index).
InstanceId = tuple[int, int, int, int, int]

GROUP_MAIN = 0
GROUP_EXCLUDE = 1
GROUP_INCLUDE = 2
GROUP_GLOBAL = 3

CHAN_BCAST = 0
CHAN_BINARY = 1
CHAN_CONFIRM = 2

GLOBAL_INSTANCE: InstanceId = (0, 0, GROUP_GLOBAL, 0, 0)


def _enc_u32(x: int) -> bytes:
    return struct.pack(">I", x)


# the fixed-width head of a core encoding (see SignedMessage.core_encoding)
_CORE_HEAD = struct.Struct(">B8I")


@dataclass(eq=False, slots=True)
class SignedMessage:
    """One signed protocol message and its attachments.

    A store may keep a message for the rest of the run, as one half of a
    later proof of fraud, so it holds no bytes derived from its fields:
    ``core_encoding()`` is built on each call.  Three per-object fields
    are not part of the message: ``_sigok`` memoises the signature check,
    ``_slot`` caches the slot key, which is also the message's key in the
    live slot table the stores of a network share, and ``_held`` marks the
    stores that hold this very object (see consensus.MessageStore).  A
    message keeps ``_slot`` while a store that has not retired its instance
    holds it: one kept only in a retired instance's log keeps no key.
    """

    kind: int
    instance: InstanceId
    round: int
    phase: int
    payload: bytes
    signer: int
    signature: bytes = b""
    # Attached justification (not covered by the signature, see module doc).
    certificate: tuple["SignedMessage", ...] = ()
    # Fraud proofs riding on a POF_LIST envelope.
    pofs: tuple["Pof", ...] = ()

    _sigok: Optional[bool] = field(default=None, repr=False, compare=False)
    _slot: Optional[tuple] = field(default=None, repr=False, compare=False)
    # bit i set while the store with mark 1 << i holds this very object, live
    # or retired; in the shared live table and in an instance's shared log it
    # is how that store tells its own variant of a slot from another store's,
    # and how a log tells that it already lists the object for some store
    _held: int = field(default=0, repr=False, compare=False)

    def core_encoding(self) -> bytes:
        """Deterministic byte encoding of the signed fields, built on each
        call: kind, the five instance fields, round, phase and the payload
        length, then the payload and the signer."""
        head = _CORE_HEAD.pack(
            self.kind, *self.instance, self.round, self.phase, len(self.payload)
        )
        return b"".join((head, self.payload, _enc_u32(self.signer)))

    def full_encoding(self) -> bytes:
        """Core, signature, and one level of attached-certificate cores.

        Used for digest commitments (set exchanges, fraud-proof lists) and the
        lexicographic tie-break between competing certificates.
        """
        parts = [self.core_encoding(), _enc_u32(len(self.signature)), self.signature]
        parts.append(_enc_u32(len(self.certificate)))
        for inner in self.certificate:
            ie = inner.core_encoding() + inner.signature
            parts.append(_enc_u32(len(ie)))
            parts.append(ie)
        return b"".join(parts)

    def vote(self) -> tuple:
        """What a quorum member backs: its slot less the signer, and its payload."""
        return (self.kind, self.instance, self.round, self.phase, self.payload)

    def slot(self) -> tuple:
        key = self._slot
        if key is None:
            key = (self.kind, self.instance, self.round, self.phase, self.signer)
            self._slot = key
        return key

    def stripped(self) -> "SignedMessage":
        """Copy without attachments; the signature stays valid by design."""
        if not self.certificate and not self.pofs:
            return self
        return SignedMessage(
            kind=self.kind,
            instance=self.instance,
            round=self.round,
            phase=self.phase,
            payload=self.payload,
            signer=self.signer,
            signature=self.signature,
            _sigok=self._sigok,
        )


def cert_sort_key(msg: SignedMessage) -> tuple[int, bytes]:
    # Lowest round wins, then lexicographically smallest canonical encoding.
    return (msg.round, msg.full_encoding())


def pick_certificate(candidates: Iterable[SignedMessage]) -> tuple[SignedMessage, ...]:
    """Adopt the certificate of the best-ranked candidate message."""
    best = None
    best_key = None
    for m in candidates:
        if not m.certificate:
            continue
        k = cert_sort_key(m)
        if best_key is None or k < best_key:
            best, best_key = m, k
    return best.certificate if best is not None else ()


# ---------------------------------------------------------------------------
# signing
# ---------------------------------------------------------------------------


class KeyRegistry:
    """Key material for a closed set of process ids: one keyed BLAKE2b MAC
    per process.  The simulator is a closed world, so a per-process secret MAC
    registry gives honest observers the same unforgeability as signatures.
    """

    def __init__(self, pids: Sequence[int], seed: int = 0):
        self._macs: dict[int, bytes] = {}
        for pid in pids:
            self.add(pid, seed)

    def add(self, pid: int, seed: int = 0) -> None:
        if pid not in self._macs:
            self._macs[pid] = hashlib.blake2b(
                b"accbft-key:%d:%d" % (seed, pid), digest_size=32
            ).digest()

    def sign(self, pid: int, data: bytes) -> bytes:
        return hashlib.blake2b(data, key=self._macs[pid], digest_size=16).digest()

    def verify(self, pid: int, data: bytes, sig: bytes) -> bool:
        key = self._macs.get(pid)
        if key is None:
            return False
        return sig == hashlib.blake2b(data, key=key, digest_size=16).digest()


def make_message(
    registry: KeyRegistry,
    signer: int,
    kind: int,
    instance: InstanceId,
    round: int,
    phase: int,
    payload: bytes,
    certificate: tuple[SignedMessage, ...] = (),
    pofs: tuple["Pof", ...] = (),
) -> SignedMessage:
    msg = SignedMessage(
        kind=kind,
        instance=instance,
        round=round,
        phase=phase,
        payload=payload,
        signer=signer,
        certificate=certificate,
        pofs=pofs,
    )
    msg.signature = registry.sign(signer, msg.core_encoding())
    msg._sigok = True
    return msg


def verify_message(registry: KeyRegistry, msg: SignedMessage) -> bool:
    """Signature check over the canonical core; memoised per object."""
    if msg._sigok is None:
        msg._sigok = registry.verify(msg.signer, msg.core_encoding(), msg.signature)
    return msg._sigok


def quorum_valid(
    registry: KeyRegistry,
    cert: Sequence[SignedMessage],
    h: int,
    active: Callable[[int], bool],
) -> bool:
    """The one certificate rule: a non-empty set of messages that all back the
    first one's vote, every signature valid, and at least h distinct signers
    for which active() holds.  Callers check that the vote is the one they
    expect."""
    if not cert:
        return False
    vote = cert[0].vote()
    signers = set()
    for m in cert:
        if m.vote() != vote or not verify_message(registry, m):
            return False
        if active(m.signer):
            signers.add(m.signer)
    return len(signers) >= h


# ---------------------------------------------------------------------------
# proofs of fraud
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Pof:
    """Two verified messages by one signer for one slot with different payloads."""

    accused: int
    first: SignedMessage
    second: SignedMessage

    def key(self) -> tuple:
        m = self.first
        return (self.accused, m.kind, m.instance, m.round, m.phase)

    def encoding(self) -> bytes:
        a = self.first.core_encoding() + self.first.signature
        b = self.second.core_encoding() + self.second.signature
        if b < a:
            a, b = b, a
        return _enc_u32(len(a)) + a + _enc_u32(len(b)) + b


def derive_pof(
    registry: KeyRegistry, m1: SignedMessage, m2: SignedMessage
) -> Optional[Pof]:
    """Build the transferable proof if (m1, m2) convict their signer."""
    if m1.kind not in CONFLICT_ELIGIBLE:
        return None
    if m1.signer != m2.signer:
        return None
    if (m1.kind, m1.instance, m1.round, m1.phase) != (
        m2.kind,
        m2.instance,
        m2.round,
        m2.phase,
    ):
        return None
    if m1.payload == m2.payload:
        return None
    if not verify_message(registry, m1) or not verify_message(registry, m2):
        return None
    a, b = m1.stripped(), m2.stripped()
    if b.core_encoding() < a.core_encoding():
        a, b = b, a
    return Pof(accused=m1.signer, first=a, second=b)


def verify_pof(registry: KeyRegistry, pof: Pof) -> bool:
    rebuilt = derive_pof(registry, pof.first, pof.second)
    return rebuilt is not None and rebuilt.accused == pof.accused


def _decode_core_sig(blob: bytes) -> SignedMessage:
    """Inverse of core_encoding()+signature (certificates don't travel here)."""
    head = _CORE_HEAD.size
    if len(blob) < head:
        raise ValueError("truncated message")
    kind, *inst, round_, phase, plen = _CORE_HEAD.unpack_from(blob)
    if len(blob) < head + plen + 4:
        raise ValueError("truncated message")
    payload = blob[head : head + plen]
    (signer,) = struct.unpack(">I", blob[head + plen : head + plen + 4])
    sig = blob[head + plen + 4 :]
    return SignedMessage(
        kind=kind,
        instance=tuple(inst),
        round=round_,
        phase=phase,
        payload=payload,
        signer=signer,
        signature=sig,
    )


def decode_pof(blob: bytes) -> Pof:
    """Inverse of Pof.encoding(); the result still needs verify_pof()."""
    if len(blob) < 8:
        raise ValueError("truncated proof")
    (alen,) = struct.unpack(">I", blob[:4])
    if len(blob) < 4 + alen + 4:
        raise ValueError("truncated proof")
    a = blob[4 : 4 + alen]
    (blen,) = struct.unpack(">I", blob[4 + alen : 8 + alen])
    if len(blob) != 8 + alen + blen:
        raise ValueError("truncated proof")
    b = blob[8 + alen : 8 + alen + blen]
    first, second = _decode_core_sig(a), _decode_core_sig(b)
    return Pof(accused=first.signer, first=first, second=second)


def encode_pof_list(pofs: Sequence[Pof]) -> bytes:
    """Canonical, order-independent encoding of a proof set."""
    encs = sorted(p.encoding() for p in pofs)
    return b"".join([_enc_u32(len(encs))] + [_enc_u32(len(e)) + e for e in encs])


def decode_pof_list(blob: bytes) -> list[Pof]:
    if len(blob) < 4:
        raise ValueError("truncated proof list")
    (count,) = struct.unpack(">I", blob[:4])
    off = 4
    out = []
    for _ in range(count):
        if off + 4 > len(blob):
            raise ValueError("truncated proof list")
        (ln,) = struct.unpack(">I", blob[off : off + 4])
        off += 4
        if off + ln > len(blob):
            raise ValueError("truncated proof list")
        out.append(decode_pof(blob[off : off + ln]))
        off += ln
    if off != len(blob):
        raise ValueError("trailing bytes in proof list")
    return out


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def pofs_payload(pofs: Sequence[Pof]) -> bytes:
    """Commitment payload for a fraud-proof list envelope."""
    return digest(b"".join(p.encoding() for p in pofs))


def msgset_payload(msgs: Sequence[SignedMessage]) -> bytes:
    """Commitment payload for a stored-message set exchange."""
    return digest(b"".join(m.core_encoding() + m.signature for m in msgs))
