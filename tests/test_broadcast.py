"""Reliable broadcast slots feeding the multi-valued decision."""

from accbft.broadcast import kind_phase
from accbft.crypto import Kind, make_message
from conftest import mini_world, start_contexts


def test_kind_phase_ladder():
    assert kind_phase(Kind.INIT) == 0
    assert kind_phase(Kind.ECHO) == 1
    assert kind_phase(Kind.READY) == 2
    assert kind_phase(Kind.DECISION) == 0


def test_every_value_reaches_every_process():
    net, _, cores = mini_world(4, seed=1)
    values = {p: b"value-%d" % p for p in cores}
    ctxs = start_contexts(cores, values)
    assert net.run() == "quiescent"
    for ctx in ctxs.values():
        assert ctx.delivered == values


def test_superblock_decision_is_the_common_union():
    net, _, cores = mini_world(4, seed=2)
    values = {p: b"value-%d" % p for p in cores}
    ctxs = start_contexts(cores, values)
    assert net.run() == "quiescent"
    decisions = {ctx.decision for ctx in ctxs.values()}
    assert len(decisions) == 1
    blob = decisions.pop()
    assert blob is not None
    for v in values.values():
        assert v in blob


def test_silent_proposer_is_left_out_of_the_union():
    net, _, cores = mini_world(4, seed=4)
    values = {1: b"a", 2: b"b", 3: b"c"}
    ctxs = start_contexts(cores, values)
    assert net.run() == "quiescent"
    for ctx in ctxs.values():
        assert ctx.bits == {1: 1, 2: 1, 3: 1, 4: 0}
        assert set(ctx.delivered) == {1, 2, 3}
    decisions = {ctx.decision for ctx in ctxs.values()}
    assert len(decisions) == 1


def _ready_over_echoes(reg, iid, echo_round):
    """A READY from process 2 over h=3 echoes of b"v" signed on echo_round."""
    echoes = tuple(
        make_message(reg, s, Kind.ECHO, iid, echo_round, kind_phase(Kind.ECHO), b"v")
        for s in (2, 3, 4)
    )
    return make_message(reg, 2, Kind.READY, iid, 1, kind_phase(Kind.READY), b"v", echoes)


def test_ready_needs_round_one_echoes():
    # an equivocator's echoes on another round of the instance never collide
    # with its round-1 echo, so they must not count towards a READY either
    for echo_round, delivers in ((2, False), (1, True)):
        _, reg, cores = mini_world(4, seed=1)
        ctx = start_contexts({1: cores[1]}, {})[1]
        slot = ctx.slots[2]
        cores[1].deliver_frame(2, _ready_over_echoes(reg, slot.iid, echo_round))
        assert (slot.delivered == b"v") is delivers


def test_a_retransmission_shares_the_inits_and_echoes_but_no_ready():
    net, reg, cores = mini_world(4, seed=1)
    core = cores[1]
    sent = []
    net.send = lambda src, dsts, msg: sent.append(msg)
    slot = start_contexts({1: core}, {})[1].slots[2]
    # the INIT makes core 1 echo; the READY has no certificate, so nothing
    # delivers
    for signer, kind in ((2, Kind.INIT), (3, Kind.ECHO), (3, Kind.READY)):
        m = make_message(reg, signer, kind, slot.iid, 1, kind_phase(kind), b"v")
        core.deliver_frame(signer, m)
    assert slot.delivered is None
    held = core.store.by_instance[slot.iid]
    assert [(m.kind, m.signer) for m in held] == [
        (Kind.INIT, 2), (Kind.ECHO, 1), (Kind.ECHO, 3), (Kind.READY, 3)
    ]
    sent.clear()
    slot.on_timer(("rb", slot.iid, slot.epoch))
    (bundle,) = [m for m in sent if m.kind == Kind.MSGSET]
    assert list(bundle.certificate) == held[:3]
