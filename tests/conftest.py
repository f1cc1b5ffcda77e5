"""Shared fixtures: key material, a bare micro-network builder, a switch to
stores with private slot indexes, and one small pre-run scenario whose
outcome several test modules pick apart."""

from contextlib import contextmanager

import pytest

from accbft.committee import Committee, FaultProfile, default_h0
from accbft.consensus import MessageStore, MultiContext, NodeCore, ProtoConfig
from accbft.crypto import (
    GROUP_MAIN,
    CHAN_BCAST,
    Kind,
    KeyRegistry,
    derive_pof,
    make_message,
)
from accbft.ledger import Transaction, TxInput, TxOutput, sign_tx
from accbft.scenarios import clean_scenario, run_scenario
from accbft.simnet import NetConfig, UniformDelay, VirtualNet

MINI_DELTA = 30_000  # ticks


@pytest.fixture(scope="session")
def registry():
    return KeyRegistry(range(1, 13))


def fraud_proof(registry, signer, salt=b"", instance=None):
    """A genuine equivocation proof: two signed echoes, one slot, two values."""
    iid = instance or (0, 0, GROUP_MAIN, CHAN_BCAST, signer)
    m1 = make_message(registry, signer, Kind.ECHO, iid, 1, 1, b"left" + salt)
    m2 = make_message(registry, signer, Kind.ECHO, iid, 1, 1, b"right" + salt)
    pof = derive_pof(registry, m1, m2)
    assert pof is not None
    return pof


def double_spend_pair(registry, state, issuer, recipients, *, seq=0):
    """Two valid-looking transactions spending the issuer's same output."""
    owned = sorted(
        (r for r, o in state.utxos.items() if o.account == issuer),
        key=lambda r: (r[0], r[1]),
    )
    assert owned, "issuer has nothing to double-spend"
    ref = owned[0]
    coin = state.utxos[ref]
    return tuple(
        sign_tx(
            registry,
            Transaction(
                issuer=issuer,
                seq=seq + branch,
                inputs=(TxInput(ref[0], ref[1], coin.value),),
                outputs=(TxOutput(recipient, coin.value),),
            ),
        )
        for branch, recipient in enumerate(recipients)
    )


def mini_world(n, seed=0, h0=None, alpha=None):
    """n real cores on a real virtual network, no replication loop on top."""
    net = VirtualNet(
        NetConfig(delta=MINI_DELTA, gst=0, base=UniformDelay(1_000, 5_000)),
        seed,
        horizon=60_000_000,
    )
    reg = KeyRegistry(range(1, n + 1))
    cfg = ProtoConfig(delta=MINI_DELTA, profile=FaultProfile(n, 0, 0, 0), alpha=alpha)
    cores = {}
    for pid in range(1, n + 1):
        committee = Committee(initial=tuple(range(1, n + 1)), h0=h0 or default_h0(n))
        core = NodeCore(pid, reg, committee, cfg, net)
        net.add_host(pid, core)
        cores[pid] = core
    return net, reg, cores


@contextmanager
def private_index():
    """Within the block, every MessageStore built in this process keeps a
    slot index of its own instead of its network's shared one: the
    reference a run with shared stores must match."""
    shared = MessageStore.__init__

    def private(self, mark, index=None):
        shared(self, mark)

    MessageStore.__init__ = private
    try:
        yield
    finally:
        MessageStore.__init__ = shared


def retired_view(store, iid):
    """A store's part of the network's log of a retired instance: the
    messages in the shared log that carry the store's mark, in log order."""
    log = store.logs.get(iid, [0])
    return [m for m in log[1:] if m._held & store.mark]


def start_contexts(cores, values):
    """One agreement context per core; ``values`` maps pid -> proposal."""
    ctxs = {}
    for pid, core in cores.items():
        ctx = MultiContext(core, core.committee)
        core.register_context(ctx)
        ctxs[pid] = ctx
    for pid, ctx in ctxs.items():
        ctx.start(values.get(pid))
    return ctxs


@pytest.fixture(scope="session")
def clean_outcome():
    """A 4-process, 2-height run reused wherever a real chain is needed."""
    return run_scenario(clean_scenario(4, heights=2), 1)


@pytest.fixture(scope="session")
def clean_record(clean_outcome):
    return clean_outcome.record
