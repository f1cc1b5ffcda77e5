"""Merge-not-reject ledger: codecs, deposit accounting, branch totality."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbft.ledger import (
    GENESIS_PARENT,
    Block,
    DepositPolicy,
    LedgerState,
    MergeReport,
    Transaction,
    TxInput,
    TxOutput,
    decode_block,
    gain_of_block,
    make_genesis,
    sign_tx,
    synthetic_transactions,
    tx_valid,
    within_gain_cap,
)
from conftest import double_spend_pair


def coin_ref(state, account):
    """(ref, output) of the account's first unspent coin."""
    refs = sorted(
        (r for r, o in state.utxos.items() if o.account == account),
        key=lambda r: (r[0], r[1]),
    )
    assert refs
    return refs[0], state.utxos[refs[0]]


def pay(registry, state, issuer, recipient, *, seq=0):
    """One signed transaction moving the issuer's first coin wholesale."""
    ref, coin = coin_ref(state, issuer)
    return sign_tx(
        registry,
        Transaction(
            issuer=issuer,
            seq=seq,
            inputs=(TxInput(ref[0], ref[1], coin.value),),
            outputs=(TxOutput(recipient, coin.value),),
        ),
    )


def block_of(txs, parent, height=1, proposer=1):
    return Block(height=height, parent=parent, proposer=proposer, txs=tuple(txs))


def balance(state, account):
    """The account's unspent value in ``state``."""
    return sum(o.value for o in state.utxos.values() if o.account == account)


# -- transactions ---------------------------------------------------------------


def test_tx_digest_ignores_signature(registry):
    tx = Transaction(1, 0, (), (TxOutput(2, 5),))
    signed = sign_tx(registry, tx)
    assert signed.digest() == tx.digest()
    assert signed.encoding() != tx.encoding()


def test_tx_valid_cases(registry):
    genesis, state = make_genesis({1: 100})
    good = pay(registry, state, 1, 2)
    assert tx_valid(registry, good)
    assert not tx_valid(registry, good, last_seq=0)  # stale sequence number
    ref, coin = coin_ref(state, 1)
    minting = sign_tx(
        registry,
        Transaction(1, 0, (TxInput(ref[0], ref[1], coin.value),),
                    (TxOutput(2, coin.value + 1),)),
    )
    assert not tx_valid(registry, minting)  # creates value from an input
    coinbase = sign_tx(registry, Transaction(1, 0, (), (TxOutput(2, 10**6),)))
    assert tx_valid(registry, coinbase)  # no inputs: minting is the point
    forged = Transaction(
        good.issuer, good.seq, good.inputs, good.outputs, b"\x00" * 16
    )
    assert not tx_valid(registry, forged)


def test_block_codec_round_trip(registry):
    genesis, state = make_genesis({1: 100, 2: 40})
    block = block_of([pay(registry, state, 1, 2)], genesis.digest())
    assert decode_block(block.encoding()) == block
    assert decode_block(genesis.encoding()) == genesis


def test_decode_block_rejects_bad_framing(registry):
    genesis, state = make_genesis({1: 100})
    blob = block_of([pay(registry, state, 1, 1)], genesis.digest()).encoding()
    with pytest.raises(ValueError, match="truncated block header"):
        decode_block(blob[:20])
    with pytest.raises(ValueError, match="trailing bytes after block"):
        decode_block(blob + b"\x00")
    (txlen,) = __import__("struct").unpack_from(">I", blob, 44)
    bad = blob[:44] + __import__("struct").pack(">I", txlen + 1) + blob[48:]
    with pytest.raises(ValueError, match="transaction length mismatch"):
        decode_block(bad)


def test_decode_block_rejects_every_truncation(registry):
    genesis, state = make_genesis({1: 100, 2: 40})
    one_tx = block_of([pay(registry, state, 1, 2)], genesis.digest()).encoding()
    two_tx = block_of(
        [pay(registry, state, 1, 2), pay(registry, state, 2, 1)], genesis.digest()
    ).encoding()
    for blob in (one_tx, two_tx):
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decode_block(blob[:cut])


# Decoded transactions and blocks keep slices of the blob as their payload
# and encoding caches; that is sound only while the codec is a bijection on
# well-formed bytes and the caches never outlive the fields they encode.
_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)
_digest32 = st.binary(min_size=32, max_size=32)
_tx_outputs = st.lists(st.builds(TxOutput, _u32, _u64), min_size=1, max_size=3).map(tuple)
transactions = st.builds(
    Transaction,
    issuer=_u32,
    seq=_u32,
    inputs=st.lists(st.builds(TxInput, _digest32, _u32, _u64), max_size=3).map(tuple),
    outputs=_tx_outputs,
    signature=st.binary(max_size=40),
)
blocks = st.builds(
    Block,
    height=_u32,
    parent=_digest32,
    proposer=_u32,
    txs=st.lists(transactions, max_size=4).map(tuple),
)


def rebuilt(tx):
    """An equal transaction with empty caches."""
    return Transaction(tx.issuer, tx.seq, tx.inputs, tx.outputs, tx.signature)


@settings(deadline=None, max_examples=150)
@given(block=blocks)
def test_decoded_block_caches_match_a_fresh_build(block):
    blob = block.encoding()
    decoded = decode_block(blob)
    assert decoded == block
    assert decoded.encoding() == blob
    assert decoded.digest() == hashlib.sha256(blob).digest() == block.digest()
    for tx in decoded.txs:
        fresh = rebuilt(tx)
        assert tx.payload_encoding() == fresh.payload_encoding()
        assert tx.digest() == fresh.digest()


@settings(deadline=None, max_examples=100)
@given(block=blocks.filter(lambda b: b.txs), outputs=_tx_outputs)
def test_replace_never_carries_a_stale_digest(registry, block, outputs):
    decoded = decode_block(block.encoding()).txs[0]
    signed = sign_tx(registry, replace(decoded, issuer=1))
    for tx in (decoded, signed):
        tx.digest()  # fill the caches before copying
        moved = replace(tx, outputs=outputs)
        assert moved.payload_encoding() == rebuilt(moved).payload_encoding()
        assert moved.digest() == rebuilt(moved).digest()
    assert signed.digest() == rebuilt(signed).digest()
    assert registry.verify(1, rebuilt(signed).payload_encoding(), signed.signature)


def test_gain_cap(registry):
    genesis, state = make_genesis({1: 60, 2: 60})
    txs = [pay(registry, state, 1, 2), pay(registry, state, 2, 1)]
    block = block_of(txs, genesis.digest())
    assert gain_of_block(block) == 120
    policy = DepositPolicy(gain_cap=120, factor="0.1", n=4, blockdepth=28)
    assert within_gain_cap(block, policy)
    assert not within_gain_cap(block, DepositPolicy(119, "0.1", 4, 28))


def per_process(policy):
    """Each process's escrow, 3 * factor * gain_cap / n."""
    return 3 * policy.pool_target / policy.n


def test_deposit_policy_coalition_cover():
    policy = DepositPolicy(gain_cap=400, factor="0.1", n=9, blockdepth=28)
    assert policy.pool_target == Fraction(40)
    assert per_process(policy) == Fraction(40, 3)
    # the escrow of any ceil(n/3) processes covers the pool
    assert ceil(policy.n / 3) * per_process(policy) >= policy.pool_target


# -- genesis --------------------------------------------------------------------


def test_make_genesis_chunks_balances():
    genesis, state = make_genesis({1: 250}, deposit=10, chunk=100)
    values = sorted(o.value for o in genesis.txs[0].outputs)
    assert values == [50, 100, 100]
    assert balance(state, 1) == 250
    assert state.deposit == 10
    assert state.blocks == [genesis.digest()]


# -- merges ---------------------------------------------------------------------


def test_linear_merge_leaves_deposit_alone(registry):
    genesis, state = make_genesis({1: 100, 2: 50}, deposit=30)
    report = state.merge_block(block_of([pay(registry, state, 1, 2)], genesis.digest()))
    assert report.funded == [] and report.refunded == [] and report.seized == 0
    assert state.deposit == 30
    assert balance(state, 1) == 0 and balance(state, 2) == 150
    assert report.conserved


def test_double_spend_is_bought_out_of_the_deposit(registry):
    genesis, state = make_genesis({1: 100, 2: 0}, deposit=500)
    d1, d2 = double_spend_pair(registry, state, 1, (2, 3))
    state.merge_block(block_of([d1], genesis.digest()))
    report = state.merge_block(block_of([d2], genesis.digest()))
    assert report.funded_total == 100
    assert state.deposit == 400
    assert balance(state, 2) == 100 and balance(state, 3) == 100
    assert state.inputs_deposit  # the bought input awaits its output forever
    assert report.conserved


def test_out_of_order_branches_net_to_zero(registry):
    genesis, state = make_genesis({1: 100}, deposit=50)
    first = pay(registry, state, 1, 2)
    follow = sign_tx(
        registry,
        Transaction(2, 0, (TxInput(first.digest(), 0, 100),), (TxOutput(3, 100),)),
    )
    late = state.merge_block(block_of([follow], genesis.digest()))
    assert late.funded_total == 100 and state.deposit == -50
    early = state.merge_block(block_of([first], genesis.digest(), height=2))
    assert early.refunded_total == 100
    assert state.deposit == 50
    assert state.inputs_deposit == {}
    assert balance(state, 3) == 100 and balance(state, 2) == 0


def test_remerging_a_block_is_a_no_op(registry):
    genesis, state = make_genesis({1: 100}, deposit=5)
    block = block_of([pay(registry, state, 1, 2)], genesis.digest())
    state.merge_block(block)
    before = (dict(state.utxos), state.deposit)
    report = state.merge_block(block)
    assert report.merged == [] and report.skipped == [block.txs[0].digest()]
    assert (dict(state.utxos), state.deposit) == before


def test_punished_account_is_seized_even_on_later_branches(registry):
    genesis, state = make_genesis({1: 100, 2: 80}, deposit=0)
    assert state.punish_account(2) == 80
    assert state.deposit == 80 and balance(state, 2) == 0
    report = state.merge_block(block_of([pay(registry, state, 1, 2)], genesis.digest()))
    assert report.seized == 100  # fresh funds to a punished account die on arrival
    assert balance(state, 2) == 0
    assert state.deposit == 180
    assert report.conserved


def test_merge_report_conservation_identity(registry):
    genesis, state = make_genesis({1: 100}, deposit=20)
    d1, d2 = double_spend_pair(registry, state, 1, (2, 3))
    state.merge_block(block_of([d1], genesis.digest()))
    report = state.merge_block(block_of([d2], genesis.digest()))
    delta = report.deposit_after - report.deposit_before
    assert delta == report.refunded_total + report.seized - report.funded_total


def test_clone_isolates_merges(registry):
    genesis, state = make_genesis({1: 100}, deposit=9)
    twin = state.clone()
    twin.merge_block(block_of([pay(registry, state, 1, 2)], genesis.digest()))
    assert balance(state, 2) == 0 and balance(twin, 2) == 100
    assert state.deposit == twin.deposit == 9


# -- synthetic traffic ------------------------------------------------------------


def test_synthetic_transactions_are_valid_and_chain(registry):
    genesis, state = make_genesis({p: 100 for p in (1, 2, 3, 4)}, chunk=40)
    seqs = {}
    txs = synthetic_transactions(
        registry, state, [1, 2, 3, 4], 12, random.Random(5), seqs=seqs, max_value=30
    )
    assert len(txs) == 12
    last = {}
    for tx in txs:
        assert tx_valid(registry, tx, last_seq=last.get(tx.issuer, -1))
        last[tx.issuer] = tx.seq
    assert seqs == last
    scratch = state.clone()
    for tx in txs:
        scratch.merge_tx(tx)
    assert scratch.deposit == state.deposit  # nothing needed buying out
    assert sum(o.value for o in scratch.utxos.values()) == sum(
        o.value for o in state.utxos.values()
    )


def test_synthetic_transactions_respect_recipients(registry):
    genesis, state = make_genesis({1: 100, 2: 100})
    txs = synthetic_transactions(
        registry, state, [1, 2], 6, random.Random(1), recipients=[9]
    )
    for tx in txs:
        paid = {o.account for o in tx.outputs} - {tx.issuer}
        assert paid <= {9}


def reference_synthetic_transactions(
    registry, state, issuers, count, rng, *, seqs=None, max_value=100, recipients=None
):
    """The clone-and-rescan generator that synthetic_transactions replaced."""
    scratch = state.clone()
    if seqs is None:
        seqs = {}
    if recipients is None:
        recipients = issuers
    made = []
    for k in range(count):
        issuer = issuers[k % len(issuers)]
        owned = sorted(
            (r for r, o in scratch.utxos.items() if o.account == issuer),
            key=lambda r: (r[0], r[1]),
        )
        if not owned:
            continue  # broke until change comes back
        ref = owned[rng.randrange(len(owned))]
        coin = scratch.utxos[ref]
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
        scratch.merge_tx(tx)
        made.append(tx)
    return made


def ledger_view(state):
    return (dict(state.utxos), set(state.txs), state.deposit, list(state.blocks))


_accounts = st.integers(1, 12)


@settings(deadline=None, max_examples=120)
@given(
    balances=st.dictionaries(_accounts, st.integers(0, 400), min_size=1, max_size=6),
    chunk=st.integers(1, 150),
    issuers=st.lists(_accounts, min_size=1, max_size=5),
    count=st.integers(0, 20),
    max_value=st.integers(1, 120),
    recipients=st.none() | st.lists(_accounts, min_size=1, max_size=4),
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    prefix=st.integers(0, 12),
    pass_seqs=st.booleans(),
)
def test_synthetic_transactions_match_the_clone_based_reference(
    registry, balances, chunk, issuers, count, max_value, recipients, seeds, prefix,
    pass_seqs,
):
    genesis, state = make_genesis(balances, deposit=7, chunk=chunk)
    seqs = {}
    early = reference_synthetic_transactions(
        registry, state, sorted(balances), 12, random.Random(seeds[0]), seqs=seqs
    )
    if prefix:
        state.merge_block(block_of(early[:prefix], genesis.digest()))
    # both start from the same seq map, or from none at all
    mine_seqs = dict(seqs) if pass_seqs else None
    ref_seqs = dict(seqs) if pass_seqs else None
    before = ledger_view(state)
    kwargs = dict(max_value=max_value, recipients=recipients)
    want = reference_synthetic_transactions(
        registry, state, issuers, count, random.Random(seeds[1]), seqs=ref_seqs, **kwargs
    )
    assert ledger_view(state) == before
    got = synthetic_transactions(
        registry, state, issuers, count, random.Random(seeds[1]), seqs=mine_seqs, **kwargs
    )
    assert got == want
    assert [tx.signature for tx in got] == [tx.signature for tx in want]
    assert mine_seqs == ref_seqs
    assert ledger_view(state) == before


def test_synthetic_transactions_respend_a_coin_whose_spend_is_known(registry):
    # merge_tx alone can leave a coin unspent beside a known transaction that
    # spends it: the spend arrived before the coin and nothing refunded it.
    # The reference skips merging the regenerated spend and re-spends the coin.
    mint = Transaction(issuer=0, seq=0, inputs=(), outputs=(TxOutput(1, 1),))
    minted = LedgerState()
    minted.merge_tx(mint)
    (spend,) = synthetic_transactions(
        registry, minted, [1], 1, random.Random(3), recipients=[2]
    )
    state = LedgerState()
    state.merge_tx(spend)
    state.merge_tx(mint)
    want = reference_synthetic_transactions(
        registry, state, [1], 2, random.Random(3), recipients=[2]
    )
    assert [tx.seq for tx in want] == [0, 1] and want[0] == spend
    got = synthetic_transactions(registry, state, [1], 2, random.Random(3), recipients=[2])
    assert got == want


def test_double_spend_pair_shares_one_input(registry):
    genesis, state = make_genesis({1: 70, 2: 0})
    d1, d2 = double_spend_pair(registry, state, 1, (2, 3), seq=40)
    assert d1.inputs == d2.inputs
    assert (d1.seq, d2.seq) == (40, 41)
    assert tx_valid(registry, d1) and tx_valid(registry, d2)
    assert {o.account for o in d1.outputs} == {2}
    assert {o.account for o in d2.outputs} == {3}


# -- totality under arbitrary interleaving -----------------------------------------


def flat(state):
    return (
        dict(state.utxos),
        dict(state.inputs_deposit),
        state.deposit,
        set(state.punished),
    )


@settings(deadline=None, max_examples=60)
@given(case=st.integers(min_value=0, max_value=2**31), split=st.integers(0, 8))
def test_branch_merge_order_is_immaterial(registry, case, split):
    rng = random.Random(case)
    genesis, base = make_genesis({p: 80 for p in (1, 2, 3)}, deposit=100, chunk=50)
    txs = synthetic_transactions(
        registry, base, [1, 2, 3], 8, random.Random(case), max_value=60
    )
    branch_a = block_of(txs[:split], genesis.digest())
    branch_b = block_of(txs[split:], genesis.digest())
    one, other = base.clone(), base.clone()
    one.merge_block(branch_a)
    one.merge_block(branch_b)
    other.merge_block(branch_b)
    other.merge_block(branch_a)
    assert flat(one) == flat(other)


class FullScanLedger(LedgerState):
    """The merge as it was before the refund scan became conditional: every
    merge scans all of ``inputs_deposit``."""

    def merge_block(self, block):
        report = MergeReport(block=block.digest(), deposit_before=self.deposit)
        for tx in block.txs:
            if self.merge_tx(tx, report):
                for out in tx.outputs:
                    if out.account in self.punished:
                        report.seized += self.punish_account(out.account)
        self.refund_inputs(report)
        self.blocks.append(report.block)
        report.deposit_after = self.deposit
        assert report.conserved
        return report


GENESIS_COIN = Transaction(
    issuer=0, seq=0, inputs=(), outputs=tuple(TxOutput(a, 50) for a in (1, 2, 3, 4))
)


@st.composite
def merge_runs(draw):
    """Unsigned transactions spending each other's outputs (double spends and
    spends ahead of their coin included), then blocks of them in any order,
    with accounts punished between merges."""
    coins = [(GENESIS_COIN.digest(), i, o.value) for i, o in enumerate(GENESIS_COIN.outputs)]
    txs = []
    for k in range(draw(st.integers(1, 10))):
        spent = draw(st.lists(st.sampled_from(coins), max_size=2, unique=True))
        outs = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 60)), min_size=1, max_size=3))
        tx = Transaction(
            issuer=1 + k % 4,
            seq=k,
            inputs=tuple(TxInput(src, idx, value) for src, idx, value in spent),
            outputs=tuple(TxOutput(a, v) for a, v in outs),
        )
        txs.append(tx)
        coins.extend((tx.digest(), i, v) for i, (_, v) in enumerate(outs))
    blocks = draw(st.lists(st.lists(st.sampled_from(txs), min_size=1, max_size=4), min_size=1, max_size=8))
    punish = draw(st.lists(st.none() | st.integers(1, 4), min_size=len(blocks), max_size=len(blocks)))
    return blocks, punish


@settings(deadline=None, max_examples=200)
@given(merge_runs())
def test_refunds_match_the_full_scan(run):
    blocks, punish = run
    genesis = Block(height=0, parent=GENESIS_PARENT, proposer=0, txs=(GENESIS_COIN,))
    mine, full = LedgerState(deposit=100), FullScanLedger(deposit=100)
    for state in (mine, full):
        state.merge_block(genesis)
    for height, (txs, accused) in enumerate(zip(blocks, punish), start=1):
        if accused is not None:
            assert mine.punish_account(accused) == full.punish_account(accused)
        block = Block(height=height, parent=genesis.digest(), proposer=1, txs=tuple(txs))
        got, want = mine.merge_block(block), full.merge_block(block)
        assert got.refunded == want.refunded
        assert got.funded == want.funded and got.seized == want.seized
        assert mine.deposit == full.deposit
        assert list(mine.inputs_deposit.items()) == list(full.inputs_deposit.items())
        assert mine.utxos == full.utxos
