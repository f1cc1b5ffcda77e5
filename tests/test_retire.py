"""Retiring finished agreement instances.

At the start of each main height a core drops every context that no input can
change any more, and its store moves those instances' messages out of the
live index into per-instance logs, keeping only the kinds that can be half of
a proof of fraud.  The records must be those of a run that keeps everything;
the logs must still convict an equivocator; the live state must stay flat
however long the chain grows; and a retired message must keep no slot key
once no store indexes it live.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from accbft.binary import BinaryInstance
from accbft.consensus import MessageStore, NodeCore
from accbft.crypto import (
    CHAN_BCAST,
    CHAN_BINARY,
    CONFLICT_ELIGIBLE,
    GROUP_MAIN,
    Kind,
    derive_pof,
    make_message,
)
from accbft.scenarios import (
    World,
    assign_roles,
    canonical_record,
    clean_scenario,
    llb_scenario,
    load_scenario,
    run_scenario,
)
from conftest import mini_world, retired_view, start_contexts

STOCK = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize(
    "name", ["agreement-n7", "clean-n10", "fork-binary-ledger-n9", "spam-n4", "llb-h8"]
)
def test_retiring_inert_contexts_keeps_the_records(name, monkeypatch):
    if name == "clean-n10":
        scn = clean_scenario(10)
    elif name == "llb-h8":
        scn = llb_scenario(heights=8)
    else:
        scn = load_scenario(STOCK / (name + ".json"))
    seeds = (1, 2, 3)
    retiring = [canonical_record(run_scenario(scn, s).record) for s in seeds]
    monkeypatch.setattr(NodeCore, "retire_inert", lambda self: None)
    assert [canonical_record(run_scenario(scn, s).record) for s in seeds] == retiring


def _retired_world():
    """A clean 4-process agreement whose one context every core retired, so
    no store of the network holds its instances live; and every message the
    stores held live just before."""
    net, reg, cores = mini_world(4)
    ctxs = start_contexts(cores, {p: b"v%d" % p for p in cores})
    assert net.run() == "quiescent"
    held = {
        id(m): m for core in cores.values() for log in core.store.by_instance.values() for m in log
    }
    for pid, core in cores.items():
        assert ctxs[pid].inert()
        core.retire_inert()
        assert core.contexts == {} and core.routes == {} and core.store.slots == {}
    assert net.slot_index.table == {}
    return net, reg, cores, ctxs, list(held.values())


def _retired_core():
    """Core 1 of _retired_world, and its retired context."""
    _, reg, cores, ctxs, _ = _retired_world()
    return reg, cores[1], ctxs[1]


def _keyless(store):
    """Whether no message in the store's part of the retired logs caches a
    slot key."""
    return all(m._slot is None for iid in store.logs for m in retired_view(store, iid))


def test_a_delivered_slot_that_never_echoed_keeps_its_context():
    # pid 1 delivers pid 2's value from a READY certificate, never seeing
    # the INIT; when the INIT comes, it must still echo
    net, reg, cores = mini_world(4)
    held = []

    def hold_first_init(msg):
        if msg.kind == Kind.INIT and not held:
            held.append(msg)
            return None
        return msg

    net.send_filters[2] = hold_first_init
    ctx = start_contexts(cores, {p: b"v%d" % p for p in cores})[1]
    assert net.run() == "quiescent"
    core, slot = cores[1], ctx.slots[2]
    assert ctx.decision is not None and slot.delivered and not slot.echoed
    core.retire_inert()
    assert core.contexts == {ctx.key: ctx}
    core.deliver_frame(2, held[0])
    echo = core.store.first(Kind.ECHO, slot.iid, 1, 1, 1)
    assert echo is not None and echo.payload == held[0].payload
    core.retire_inert()
    assert core.contexts == {}


def test_a_pending_confirmation_keeps_its_context():
    net, _, cores = mini_world(4, seed=9, alpha=Fraction(1, 2))
    ctx = start_contexts(cores, {p: b"v%d" % p for p in cores})[1]
    while ctx.decision is None:
        net.run(1)
    assert ctx.confirmation == "pending" and not ctx.inert()
    assert net.run() == "quiescent"
    assert ctx.confirmation == "confirmed" and ctx.inert()


def test_a_late_equivocation_on_a_retired_slot_is_convicted():
    reg, core, _ = _retired_core()
    iid = (0, 0, GROUP_MAIN, CHAN_BCAST, 3)
    first = next(m for m in retired_view(core.store, iid) if m.kind == Kind.ECHO and m.signer == 2)
    second = make_message(reg, 2, Kind.ECHO, iid, 1, 1, b"not " + first.payload)
    status, pof = core.store.admit(reg, second)
    assert status == "conflict"
    assert pof.encoding() == derive_pof(reg, first, second).encoding()
    assert _keyless(core.store) and second._slot is None
    # the proof a live store derives for the same pair, from keyed slots
    live = MessageStore(mark=1 << 20)
    assert live.admit(reg, first) == ("new", None)
    assert live.admit(reg, second)[1].encoding() == pof.encoding()
    core.deliver_frame(2, second)
    assert core.metrics.pofs_recorded == 1
    assert not core.committee.is_active(2)


def test_a_certified_copy_of_a_retired_message_is_new_and_kept_nowhere():
    # a retired log is evidence only: the copy's certificate is walked, so an
    # equivocating inner still convicts its signer, but nothing is kept
    reg, core, _ = _retired_core()
    iid = (0, 0, GROUP_MAIN, CHAN_BCAST, 3)
    log = list(core.store.logs[iid])
    marks = [m._held for m in log[1:]]
    echoes = [m for m in retired_view(core.store, iid) if m.kind == Kind.ECHO]
    bare = echoes[0]
    logged = next(m for m in echoes if m.signer != bare.signer)
    assert not bare.certificate
    inner = make_message(
        reg, logged.signer, Kind.ECHO, iid, logged.round, logged.phase, b"not " + logged.payload
    )
    carrying = make_message(
        reg, bare.signer, bare.kind, iid, bare.round, bare.phase, bare.payload, (inner,)
    )
    for _ in range(2):
        assert core.store.admit(reg, carrying) == ("new", None)
    core.deliver_frame(bare.signer, carrying)
    assert core.metrics.pofs_recorded == 1
    assert not core.committee.is_active(logged.signer)
    assert core.committee.is_active(bare.signer)
    after = core.store.logs[iid]
    assert after[0] == log[0] and list(map(id, after[1:])) == list(map(id, log[1:]))
    assert [m._held for m in log[1:]] == marks
    assert carrying._held == inner._held == 0
    assert core.store.slots == {}
    assert _keyless(core.store) and carrying._slot is None and inner._slot is None


def test_a_new_message_for_a_retired_instance_is_stored_but_not_acted_on(monkeypatch):
    reg, core, ctx = _retired_core()
    iid = (0, 0, GROUP_MAIN, CHAN_BINARY, 2)
    calls = []
    for attr in ("tally", "on_message", "pump"):
        monkeypatch.setattr(BinaryInstance, attr, lambda self, *a, _n=attr: calls.append(_n))
    late = make_message(reg, 3, Kind.BVECHO, iid, 5, 1, b"\x00")
    admitted = core.metrics.admitted
    core.deliver_frame(3, late)
    assert retired_view(core.store, iid)[-1] is late and late._held & core.store.mark
    assert core.metrics.admitted == admitted + 1
    assert core.store.slots == {} and calls == []
    assert core.store.admit(reg, late) == ("dup", None)
    assert ctx.bins[2].round == 1
    assert _keyless(core.store)


def test_retirement_drops_what_can_convict_no_one():
    net, _, _, _, held = _retired_world()
    dropped = [m for m in held if m.kind not in CONFLICT_ELIGIBLE]
    assert {m.kind for m in dropped} == {Kind.READY, Kind.DECISION}
    # no store mark, no table entry (the table is empty) and no slot key
    assert all(m._held == 0 and m._slot is None for m in dropped)
    listed = {id(m) for log in net.slot_index.logs.values() for m in log[1:]}
    assert listed == {id(m) for m in held if m.kind in CONFLICT_ELIGIBLE}


def test_a_dropped_message_stays_indexed_while_another_store_holds_it_live():
    net, _, cores = mini_world(4)
    ctxs = start_contexts(cores, {p: b"v%d" % p for p in cores})
    assert net.run() == "quiescent"
    first, second = cores[1], cores[2]
    iid = ctxs[1].slots[3].iid
    ready = first.store.first(Kind.READY, iid, 1, 2, 4)
    assert ready is not None and second.store.first(Kind.READY, iid, 1, 2, 4) is ready
    first.retire_inert()
    assert not ready._held & first.store.mark and ready._held & second.store.mark
    assert net.slot_index.table[ready.slot()] is ready
    assert ready not in net.slot_index.logs[iid]
    for core in cores.values():
        core.retire_inert()
    assert ready._held == 0 and ready._slot is None and net.slot_index.table == {}


def test_a_late_decision_is_new_each_time_and_never_kept():
    reg, core, _ = _retired_core()
    iid = (0, 0, GROUP_MAIN, CHAN_BINARY, 2)
    log = list(core.store.logs[iid])
    late = make_message(reg, 3, Kind.DECISION, iid, 9, 2, b"\x01")
    for _ in range(3):
        assert core.store.admit(reg, late) == ("new", None)
    assert core.store.logs[iid] == log and late not in log
    assert late._held == 0 and late._slot is None


def test_a_late_decision_still_convicts_an_equivocating_inner():
    reg, core, _ = _retired_core()
    iid = (0, 0, GROUP_MAIN, CHAN_BINARY, 2)
    logged = next(m for m in retired_view(core.store, iid) if m.kind == Kind.BVREADY)
    # the same BVREADY slot as the logged one, with another payload
    inner = make_message(
        reg, logged.signer, Kind.BVREADY, iid, logged.round, logged.phase, b"\x02"
    )
    carrier = 1 + logged.signer % 4
    late = make_message(reg, carrier, Kind.DECISION, iid, 9, 2, b"\x01", (inner,))
    core.deliver_frame(carrier, late)
    assert core.metrics.pofs_recorded == 1
    assert not core.committee.is_active(logged.signer)
    assert core.committee.is_active(carrier)


@pytest.fixture(scope="module")
def llb_world():
    return run_scenario(llb_scenario(heights=10), 1).world


def test_shared_logs_list_only_what_can_convict(llb_world):
    logs = llb_world.net.slot_index.logs
    kinds = {m.kind for log in logs.values() for m in log[1:]}
    assert kinds and kinds <= CONFLICT_ELIGIBLE


@pytest.mark.parametrize("seed", [1, 2])
def test_live_state_stays_flat_as_the_chain_grows(seed):
    def live(heights):
        world = run_scenario(llb_scenario(heights=heights), seed).world
        cores = [proc.core for proc in world.procs.values()]
        return (
            max(len(core.store.slots) for core in cores),
            max(len(core.contexts) for core in cores),
        )

    slots10, contexts10 = live(10)
    slots30, contexts30 = live(30)
    # one context's messages may differ between the two runs' last heights
    assert contexts30 <= contexts10 <= 2
    assert slots30 <= slots10 * 1.25


def test_messages_of_instances_no_store_holds_live_keep_no_slot_key(llb_world):
    world = llb_world
    stores = [proc.core.store for proc in world.procs.values()]
    live = {iid for store in stores for iid in store.by_instance}
    held = [m for store in stores for log in store.by_instance.values() for m in log]
    logs = world.net.slot_index.logs
    retired = [m for store in stores for iid in logs for m in retired_view(store, iid)]
    assert len(retired) > 10 * len(set(map(id, held)))
    assert all(m._slot is None for m in retired if m.instance not in live)
    # and, per message, one that only logs keep has no key either
    live_held = set(map(id, held))
    assert all(m._slot is None for m in retired if id(m) not in live_held)
    # the shared table indexes exactly the slots some store holds live
    assert set(world.net.slot_index.table) == {m.slot() for m in held}
    # the network keeps one log per retired instance, each message in it once
    assert sum(len(log) - 1 for log in logs.values()) == len(set(map(id, retired)))
    # and one tuple per instance id, shared by every core's contexts and by
    # the messages of those instances
    tuples = {}
    for proc in world.procs.values():
        for ctx in proc.core.contexts.values():
            for iid, _ in ctx.routed():
                tuples.setdefault(iid, set()).add(id(iid))
    assert tuples and all(len(ids) == 1 for ids in tuples.values())
    iids = world.net.slot_index.iids
    assert set(tuples) <= set(iids) and all(iids[iid] is iid for iid in tuples)
    assert all(m.instance is iids[m.instance] for m in retired + held if m.instance in iids)


def _accused_runs():
    yield llb_scenario(heights=8)
    for path in sorted(STOCK.glob("*.json")):
        if path.stem not in ("complexity-n20", "llb-n9"):
            yield load_scenario(path)


def test_no_honest_process_is_ever_accused():
    accusing = set()
    for scn in _accused_runs():
        roles = assign_roles(scn)
        for seed in (1, 2, 3):
            record = run_scenario(scn, seed).record
            accused = {pid for pids in record["accused"].values() for pid in pids}
            # only the deceitful equivocate: no honest, standby, benign or garbling pid
            assert accused <= set(roles.deceitful), (scn.name, seed, accused)
            if accused:
                accusing.add(scn.name)
    # the forks, the spammer and the llb coalition are all caught
    assert len(accusing) >= 5, accusing


def test_the_coalition_is_freed_at_retirement():
    world = World(llb_scenario(heights=8), 1)
    brain = world.brain
    world.start()
    assert world.net.run(100) == "budget"
    assert world.net.now < brain.retire_at
    assert brain.shadows and brain._seen
    assert world.net.run() == "quiescent"
    assert world.net.now >= brain.retire_at
    assert brain.shadows == {} and not brain._seen and not brain._queue
