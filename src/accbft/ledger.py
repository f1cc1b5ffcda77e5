"""UTXO ledger that merges forked branches instead of discarding one.

When two certified blocks conflict, a replica keeps both: the late branch's
transactions are committed on top of local state, and any input that is not
spendable here (already consumed, or produced only on the other branch) is
paid out of a shared security deposit.  The deposit is replenished when the
missing output later materialises, and by seizing the funds of accounts that
provably misbehaved.  The merge never rejects a transaction — totality is the
point — so the deposit is a signed balance and a shortfall is recorded, not
refused.

All amounts are whole coin units.  An unspent output is keyed by
(producing-transaction digest, output index).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .analysis import Ratio, as_fraction
from .crypto import KeyRegistry

Ref = tuple[bytes, int]  # (producing tx digest, output index)


# ---------------------------------------------------------------------------
# transactions and blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TxInput:
    source: bytes  # digest of the producing transaction
    index: int     # which of its outputs
    value: int     # coin units that output carried

    @property
    def ref(self) -> Ref:
        return (self.source, self.index)


@dataclass(frozen=True)
class TxOutput:
    account: int
    value: int


@dataclass(frozen=True)
class Transaction:
    """A UTXO transfer: consumes whole outputs, produces new ones.

    ``seq`` is a per-issuer sequence number; honest issuers never reuse one.
    The digest covers everything except the signature, so a re-signed copy is
    still the same transaction.
    """

    issuer: int
    seq: int
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    signature: bytes = b""

    # Caches of payload_encoding() and digest().  init=False keeps them out
    # of dataclasses.replace, so a copy with new fields starts empty.
    _payload: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def payload_encoding(self) -> bytes:
        enc = self._payload
        if enc is None:
            parts = [struct.pack(">IIH", self.issuer, self.seq, len(self.inputs))]
            for inp in self.inputs:
                assert len(inp.source) == 32, "input refs are sha-256 digests"
                parts.append(inp.source)
                parts.append(struct.pack(">IQ", inp.index, inp.value))
            parts.append(struct.pack(">H", len(self.outputs)))
            for out in self.outputs:
                parts.append(struct.pack(">IQ", out.account, out.value))
            enc = b"".join(parts)
            object.__setattr__(self, "_payload", enc)
        return enc

    def encoding(self) -> bytes:
        body = self.payload_encoding()
        return body + struct.pack(">H", len(self.signature)) + self.signature

    def digest(self) -> bytes:
        d = self._digest
        if d is None:
            d = hashlib.sha256(self.payload_encoding()).digest()
            object.__setattr__(self, "_digest", d)
        return d

    def output_total(self) -> int:
        return sum(o.value for o in self.outputs)

    def input_total(self) -> int:
        return sum(i.value for i in self.inputs)


def sign_tx(registry: KeyRegistry, tx: Transaction) -> Transaction:
    payload = tx.payload_encoding()
    signed = replace(tx, signature=registry.sign(tx.issuer, payload))
    # the signature lies outside the payload, so the payload cache carries over
    object.__setattr__(signed, "_payload", payload)
    return signed


def tx_valid(registry: KeyRegistry, tx: Transaction, *, last_seq: int = -1) -> bool:
    """Stateless validity: covered by signature, no value creation, fresh seq.

    Coinbase-style transactions (no inputs) are how value enters the system
    and are exempt from the no-creation rule.
    """
    if tx.seq <= last_seq:
        return False
    if tx.inputs and tx.input_total() < tx.output_total():
        return False
    return registry.verify(tx.issuer, tx.payload_encoding(), tx.signature)


def _decode_tx(blob: bytes, off: int) -> tuple[Transaction, int]:
    start = off
    issuer, seq, n_in = struct.unpack_from(">IIH", blob, off)
    off += 10
    inputs = []
    for _ in range(n_in):
        source = blob[off : off + 32]
        if len(source) != 32:
            raise ValueError("truncated input ref")
        index, value = struct.unpack_from(">IQ", blob, off + 32)
        inputs.append(TxInput(source, index, value))
        off += 44
    (n_out,) = struct.unpack_from(">H", blob, off)
    off += 2
    outputs = []
    for _ in range(n_out):
        account, value = struct.unpack_from(">IQ", blob, off)
        outputs.append(TxOutput(account, value))
        off += 12
    (siglen,) = struct.unpack_from(">H", blob, off)
    sig = blob[off + 2 : off + 2 + siglen]
    if len(sig) != siglen:
        raise ValueError("truncated signature")
    tx = Transaction(issuer, seq, tuple(inputs), tuple(outputs), sig)
    # fixed-width fields: the payload bytes are exactly what encoding would give
    object.__setattr__(tx, "_payload", blob[start:off])
    return tx, off + 2 + siglen


GENESIS_PARENT = bytes(32)


@dataclass(frozen=True)
class Block:
    height: int
    parent: bytes  # digest of the previous block; GENESIS_PARENT at the root
    proposer: int
    txs: tuple[Transaction, ...]

    # Caches of encoding() and digest(), as on Transaction.
    _encoding: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def encoding(self) -> bytes:
        enc = self._encoding
        if enc is None:
            assert len(self.parent) == 32
            parts = [struct.pack(">II", self.height, self.proposer), self.parent]
            parts.append(struct.pack(">I", len(self.txs)))
            for tx in self.txs:
                tx_enc = tx.encoding()
                parts.append(struct.pack(">I", len(tx_enc)))
                parts.append(tx_enc)
            enc = b"".join(parts)
            object.__setattr__(self, "_encoding", enc)
        return enc

    def digest(self) -> bytes:
        d = self._digest
        if d is None:
            d = hashlib.sha256(self.encoding()).digest()
            object.__setattr__(self, "_digest", d)
        return d


def decode_block(blob: bytes) -> Block:
    if len(blob) < 44:
        raise ValueError("truncated block header")
    height, proposer = struct.unpack_from(">II", blob, 0)
    parent = blob[8:40]
    (n_txs,) = struct.unpack_from(">I", blob, 40)
    off = 44
    txs = []
    for _ in range(n_txs):
        try:
            (txlen,) = struct.unpack_from(">I", blob, off)
            tx, end = _decode_tx(blob, off + 4)
        except struct.error:
            # a short read anywhere in a transaction is a truncated block
            raise ValueError("truncated transaction") from None
        if end != off + 4 + txlen:
            raise ValueError("transaction length mismatch")
        txs.append(tx)
        off = end
    if off != len(blob):
        raise ValueError("trailing bytes after block")
    block = Block(height, parent, proposer, tuple(txs))
    object.__setattr__(block, "_encoding", bytes(blob))
    return block


def gain_of_block(block: Block) -> int:
    """What a proposer can move in one block: the sum of all outputs."""
    return sum(tx.output_total() for tx in block.txs)


# ---------------------------------------------------------------------------
# deposit sizing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepositPolicy:
    """Sizing rule for the shared security deposit.

    The pool must stay covered by any third of the membership, so each of the
    n processes escrows 3*factor*gain_cap/n and the pool target is
    factor*gain_cap.  ``blockdepth`` is how many blocks a deposit stays locked
    after its owner leaves.
    """

    gain_cap: int        # hard ceiling on the summed outputs of one block
    factor: Ratio        # pool target, in units of the gain cap
    n: int               # processes sharing the escrow
    blockdepth: int      # blocks a leaving process keeps its stake locked

    def __post_init__(self):
        assert self.gain_cap >= 0 and self.n >= 1 and self.blockdepth >= 0
        assert as_fraction(self.factor) >= 0

    @property
    def pool_target(self) -> Fraction:
        return as_fraction(self.factor) * self.gain_cap


def within_gain_cap(block: Block, policy: DepositPolicy) -> bool:
    """Proposal-time validity hook: oversized blocks never enter consensus."""
    return gain_of_block(block) <= policy.gain_cap


# ---------------------------------------------------------------------------
# replica state and the merge
# ---------------------------------------------------------------------------


@dataclass
class MergeReport:
    """What one block merge did to the ledger, for audit and tests."""

    block: bytes
    merged: list = field(default_factory=list)    # tx digests applied
    skipped: list = field(default_factory=list)   # tx digests already known
    funded: list = field(default_factory=list)    # (ref, value) paid from deposit
    refunded: list = field(default_factory=list)  # (ref, value) recovered
    seized: int = 0                               # value confiscated from punished accounts
    deposit_before: int = 0
    deposit_after: int = 0

    @property
    def funded_total(self) -> int:
        return sum(v for _, v in self.funded)

    @property
    def refunded_total(self) -> int:
        return sum(v for _, v in self.refunded)

    @property
    def conserved(self) -> bool:
        delta = self.deposit_after - self.deposit_before
        return delta == self.refunded_total + self.seized - self.funded_total


class LedgerState:
    """Single-owner UTXO state of one replica; merges are atomic transitions.

    deposit        signed pool balance (negative = recorded shortfall)
    inputs_deposit refs the deposit paid for, still awaiting their output
    punished       accounts whose funds are forfeit
    txs            digests of every committed transaction
    utxos          ref -> TxOutput for every unspent output
    """

    def __init__(self, deposit: int = 0):
        self.deposit = deposit
        self.inputs_deposit: dict[Ref, int] = {}
        self.punished: set[int] = set()
        self.txs: set[bytes] = set()
        self.utxos: dict[Ref, TxOutput] = {}
        self.blocks: list[bytes] = []  # digests, in merge order

    def clone(self) -> "LedgerState":
        other = LedgerState(self.deposit)
        other.inputs_deposit = dict(self.inputs_deposit)
        other.punished = set(self.punished)
        other.txs = set(self.txs)
        other.utxos = dict(self.utxos)
        other.blocks = list(self.blocks)
        return other

    def merge_tx(self, tx: Transaction, report: Optional[MergeReport] = None) -> bool:
        """Commit one transaction unconditionally (skip if already known).

        Spendable inputs are consumed; anything else is bought out of the
        deposit and remembered so a later branch can pay it back.  Returns
        whether the transaction was new.
        """
        digest = tx.digest()
        if digest in self.txs:
            if report is not None:
                report.skipped.append(digest)
            return False
        for inp in tx.inputs:
            if inp.ref in self.utxos:
                del self.utxos[inp.ref]
            else:
                self.inputs_deposit[inp.ref] = inp.value
                self.deposit -= inp.value
                if report is not None:
                    report.funded.append((inp.ref, inp.value))
        for idx, out in enumerate(tx.outputs):
            self.utxos[(digest, idx)] = out
        self.txs.add(digest)
        if report is not None:
            report.merged.append(digest)
        return True

    def punish_account(self, account: int) -> int:
        """Forfeit an account: its unspent funds refill the deposit."""
        self.punished.add(account)
        seized = 0
        for ref in [r for r, o in self.utxos.items() if o.account == account]:
            seized += self.utxos.pop(ref).value
        self.deposit += seized
        return seized

    def refund_inputs(self, report: Optional[MergeReport] = None) -> int:
        """Recover deposit spent on inputs whose output has since appeared."""
        recovered = 0
        for ref in [r for r in self.inputs_deposit if r in self.utxos]:
            del self.utxos[ref]
            value = self.inputs_deposit.pop(ref)
            self.deposit += value
            recovered += value
            if report is not None:
                report.refunded.append((ref, value))
        return recovered

    def merge_block(self, block: Block) -> MergeReport:
        """Fold a (possibly conflicting) block into local state.

        Every unknown transaction is committed; fresh outputs to punished
        accounts are seized on the spot; then any deposit-funded input that
        the block has made whole is refunded.  A block that brings no
        conflicts is just a normal commit and leaves the deposit untouched.

        Between merges no funded input is also unspent (each merge refunds
        them all, and only merges create outputs), so the refund scan runs
        only when an output this merge created is a funded input.
        """
        report = MergeReport(block=block.digest(), deposit_before=self.deposit)
        funded = self.inputs_deposit
        refundable = False
        for tx in block.txs:
            if self.merge_tx(tx, report):
                digest = report.merged[-1]
                for idx, out in enumerate(tx.outputs):
                    if (digest, idx) in funded:
                        refundable = True
                    if out.account in self.punished:
                        report.seized += self.punish_account(out.account)
        if refundable:
            self.refund_inputs(report)
        self.blocks.append(report.block)
        report.deposit_after = self.deposit
        assert report.conserved
        return report


def make_genesis(
    balances: Mapping[int, int],
    deposit: int = 0,
    proposer: int = 0,
    chunk: Optional[int] = None,
) -> tuple[Block, LedgerState]:
    """Root block minting each account's balance, plus the state after it.

    With ``chunk`` the balance is split into outputs of at most that value,
    so early spends stay small instead of moving one whole-balance coin.
    """
    outputs = []
    for account, value in sorted(balances.items()):
        if chunk is None:
            outputs.append(TxOutput(account, value))
            continue
        while value > 0:
            outputs.append(TxOutput(account, min(chunk, value)))
            value -= chunk
    coinbase = Transaction(issuer=0, seq=0, inputs=(), outputs=tuple(outputs))
    block = Block(height=0, parent=GENESIS_PARENT, proposer=proposer, txs=(coinbase,))
    state = LedgerState(deposit)
    state.merge_block(block)
    return block, state


# ---------------------------------------------------------------------------
# synthetic traffic
# ---------------------------------------------------------------------------


def synthetic_transactions(
    registry: KeyRegistry,
    state: LedgerState,
    issuers: Sequence[int],
    count: int,
    rng,
    *,
    seqs: Optional[dict[int, int]] = None,
    max_value: int = 100,
    recipients: Optional[Sequence[int]] = None,
) -> list[Transaction]:
    """Generate ``count`` valid transactions spending the issuers' coins in state.

    Issuers rotate round-robin; each spends one of its own unspent outputs to
    a random peer (drawn from ``recipients``, default the issuers) with change
    back to itself, so later transactions can chain on earlier ones.  ``seqs``
    (issuer -> last used seq) is advanced in place when given, letting callers
    extend a stream across calls.  ``state`` is left untouched: the batch
    tracks only the issuers' own unspent outputs, as merging each transaction
    into a copy of ``state`` would leave them.
    """
    if seqs is None:
        seqs = {}
    if recipients is None:
        recipients = issuers
    coins: dict[int, dict[Ref, TxOutput]] = {issuer: {} for issuer in issuers}
    for ref, out in state.utxos.items():
        if out.account in coins:
            coins[out.account][ref] = out
    made: list[Transaction] = []
    for k in range(count):
        issuer = issuers[k % len(issuers)]
        owned = sorted(coins[issuer])
        if not owned:
            continue  # broke until change comes back
        ref = owned[rng.randrange(len(owned))]
        coin = coins[issuer][ref]
        recipient = recipients[rng.randrange(len(recipients))]
        spend = rng.randint(1, min(max_value, coin.value))
        outputs = [TxOutput(recipient, spend)]
        if coin.value > spend:
            outputs.append(TxOutput(issuer, coin.value - spend))
        seqs[issuer] = seqs.get(issuer, -1) + 1
        tx = sign_tx(
            registry,
            Transaction(
                issuer=issuer,
                seq=seqs[issuer],
                inputs=(TxInput(ref[0], ref[1], coin.value),),
                outputs=tuple(outputs),
            ),
        )
        made.append(tx)
        digest = tx.digest()
        if digest in state.txs:
            continue  # merge_tx would skip a known transaction
        del coins[issuer][ref]
        for idx, out in enumerate(tx.outputs):
            if out.account in coins:
                coins[out.account][(digest, idx)] = out
    return made
