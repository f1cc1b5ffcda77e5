"""Message admission, the confirmation rule, repairs, and live fraud intake."""

import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accbft.consensus import (
    MessageStore,
    confirm_status,
    decode_value_set,
    encode_value_set,
)
from accbft.crypto import (
    CHAN_BCAST,
    CONFLICT_ELIGIBLE,
    GLOBAL_INSTANCE,
    GROUP_MAIN,
    KeyRegistry,
    Kind,
    derive_pof,
    make_message,
    verify_message,
)
from accbft.scenarios import (
    canonical_record,
    clean_scenario,
    fork_scenario,
    llb_scenario,
    load_scenario,
    run_scenario,
)
from accbft.simnet import SlotIndex
from conftest import (
    fraud_proof,
    mini_world,
    pof_list,
    pof_lists_sent,
    private_index,
    retired_view,
    start_contexts,
    verify_pof_calls,
)

INST = (0, 0, GROUP_MAIN, CHAN_BCAST, 1)


# -- the store ----------------------------------------------------------------


def test_admit_statuses(registry):
    store = MessageStore(1)
    first = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"v")
    assert store.admit(registry, first) == ("new", None)
    again = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"v")
    assert store.admit(registry, again) == ("dup", None)
    status, pof = store.admit(
        registry, make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"other")
    )
    assert status == "conflict"
    assert pof is not None and pof.accused == 1


def test_relay_conflict_yields_no_proof(registry):
    store = MessageStore(1)
    store.admit(registry, make_message(registry, 1, Kind.READY, INST, 1, 2, b"v"))
    status, pof = store.admit(
        registry, make_message(registry, 1, Kind.READY, INST, 1, 2, b"w")
    )
    assert (status, pof) == ("conflict", None)


def test_certificate_upgrade_replaces_stored_copy(registry):
    store = MessageStore(1)
    bare = make_message(registry, 1, Kind.EST, INST, 2, 0, b"v")
    inner = make_message(registry, 2, Kind.ECHO, INST, 1, 2, b"v")
    carrying = make_message(registry, 1, Kind.EST, INST, 2, 0, b"v", certificate=(inner,))
    assert store.admit(registry, bare) == ("new", None)
    assert store.admit(registry, carrying) == ("upgraded", None)
    stored = store.first(Kind.EST, INST, 2, 0, 1)
    assert stored is carrying
    assert store.group(Kind.EST, INST, 2, 0)[1] is carrying
    assert store.by_instance[INST] == [carrying]
    # a second bare copy no longer upgrades anything
    assert store.admit(registry, bare)[0] == "dup"


def test_group_keeps_first_admission_order(registry):
    store = MessageStore(1)
    bare = make_message(registry, 3, Kind.EST, INST, 1, 0, b"v")
    first = make_message(registry, 1, Kind.EST, INST, 1, 0, b"v")
    second = make_message(registry, 2, Kind.EST, INST, 1, 0, b"w")
    elsewhere = make_message(registry, 2, Kind.EST, INST, 2, 0, b"w")
    for m in (bare, elsewhere, first, second):
        assert store.admit(registry, m)[0] == "new"
    inner = make_message(registry, 4, Kind.ECHO, INST, 0, 2, b"v")
    carrying = make_message(registry, 3, Kind.EST, INST, 1, 0, b"v", certificate=(inner,))
    assert store.admit(registry, carrying)[0] == "upgraded"
    conflicting = make_message(registry, 1, Kind.EST, INST, 1, 0, b"x")
    assert store.admit(registry, conflicting)[0] == "conflict"
    # an upgrade keeps its place; a conflict leaves the first message
    assert list(store.group(Kind.EST, INST, 1, 0).items()) == [
        (3, carrying), (1, first), (2, second)
    ]
    assert store.group(Kind.EST, INST, 2, 0) == {2: elsewhere}
    assert store.group(Kind.ECHO, INST, 1, 0) == {}


# -- the slot index the stores of one network share ------------------------------


def _sharing(*marks):
    index = SlotIndex()
    return index, [MessageStore(mark, index) for mark in marks]


def test_each_store_finds_its_own_variant_of_an_equivocated_slot(registry):
    index, (a, b) = _sharing(1, 2)
    v = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"v")
    w = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"w")
    x = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"x")
    assert a.admit(registry, v) == ("new", None)
    assert b.admit(registry, w) == ("new", None)
    assert index.table[v.slot()] == [v, w]
    assert a.first(Kind.ECHO, INST, 1, 1, 2) is v and b.first(Kind.ECHO, INST, 1, 1, 2) is w
    # each store convicts against its own variant, as a store of its own would
    for store, held, other in ((a, v, w), (b, w, v)):
        for late in (x, other):
            alone = MessageStore(1 << 20)
            alone.admit(registry, held)
            want = alone.admit(registry, late)
            status, pof = store.admit(registry, late)
            assert status == want[0] == "conflict"
            assert pof.encoding() == want[1].encoding() == derive_pof(registry, held, late).encoding()
    assert index.table[v.slot()] == [v, w]
    assert dict(a.slots) == {v.slot(): v} and dict(b.slots) == {w.slot(): w}


def test_an_upgrade_in_one_store_leaves_the_others_bare_copy(registry):
    index, (a, b) = _sharing(1, 2)
    bare = make_message(registry, 1, Kind.EST, INST, 2, 0, b"v")
    inner = make_message(registry, 2, Kind.ECHO, INST, 1, 2, b"v")
    carrying = make_message(registry, 1, Kind.EST, INST, 2, 0, b"v", certificate=(inner,))
    key = bare.slot()
    for store in (a, b):
        assert store.admit(registry, bare) == ("new", None)
    assert index.table[key] is bare
    assert a.admit(registry, carrying) == ("upgraded", None)
    assert index.table[key] == [bare, carrying]
    assert a.first(*key) is carrying and a.by_instance[INST] == [carrying]
    assert b.first(*key) is bare and b.slots.get(key) is bare and key in b.slots
    assert b.by_instance[INST] == [bare]
    assert b.admit(registry, bare) == ("dup", None)
    # once the other store takes the upgrade too, the bare copy is held nowhere
    assert b.admit(registry, carrying) == ("upgraded", None)
    assert index.table[key] is carrying and not bare._held


def test_an_upgraded_away_copy_keeps_its_slot_key_only_while_a_store_holds_it(registry):
    def variants():
        inner = make_message(registry, 2, Kind.ECHO, INST, 1, 2, b"v")
        return (
            make_message(registry, 1, Kind.EST, INST, 2, 0, b"v"),
            make_message(registry, 1, Kind.EST, INST, 2, 0, b"v", certificate=(inner,)),
        )

    bare, carrying = variants()
    key = bare.slot()
    store = MessageStore(1)
    assert store.admit(registry, bare) == ("new", None)
    assert store.admit(registry, carrying) == ("upgraded", None)
    assert store.table[key] is carrying
    assert not bare._held and bare._slot is None

    bare, carrying = variants()
    index, (a, b) = _sharing(1, 2)
    for store in (a, b):
        assert store.admit(registry, bare) == ("new", None)
    assert a.admit(registry, carrying) == ("upgraded", None)
    assert bare._slot == key  # b still holds it live
    assert b.admit(registry, carrying) == ("upgraded", None)
    assert not bare._held and bare._slot is None and index.table[key] is carrying


def test_a_message_leaves_the_table_once_no_live_store_holds_it(registry):
    index, (a, b, c) = _sharing(1, 2, 4)
    v = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"v")
    w = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"w")
    y = make_message(registry, 3, Kind.ECHO, INST, 1, 1, b"v")
    other = (0, 0, GROUP_MAIN, CHAN_BCAST, 2)
    z = make_message(registry, 3, Kind.ECHO, other, 1, 1, b"z")
    for store, m in ((a, v), (a, y), (b, w), (b, y), (c, z)):
        assert store.admit(registry, m)[0] == "new"
    assert index.table[v.slot()] == [v, w]
    a.retire(INST)
    # v leaves at once, as only a held it; y stays while b holds it live
    want = {w.slot(): w, y.slot(): y, z.slot(): z}
    assert index.table == want and v._slot is None and y._slot is not None
    assert a.first(*y.slot()) is None and b.first(*y.slot()) is y
    c.retire(INST)  # c never opened the instance: no holder changes
    assert index.table == want
    b.retire(INST)
    assert list(index.table) == [z.slot()]
    assert v._slot is None and w._slot is None and y._slot is None
    assert z._slot is not None
    assert retired_view(a, INST) == [v, y] and retired_view(b, INST) == [y, w]
    assert retired_view(c, INST) == [] and index.logs[INST] == [1 | 2 | 4, v, y, w]


def test_a_late_equivocation_after_a_partial_retirement(registry):
    index, (a, b) = _sharing(1, 2)
    v = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"v")
    w = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"w")
    for store in (a, b):
        assert store.admit(registry, v) == ("new", None)
    a.retire(INST)
    assert index.table[v.slot()] is v
    want = derive_pof(registry, v, w).encoding()
    statuses = []
    for store in (a, b):  # a scans its log, b finds v in the table
        status, pof = store.admit(registry, w)
        statuses.append(status)
        assert pof.encoding() == want
    assert statuses == ["conflict", "conflict"]
    assert retired_view(a, INST) == [v] and b.by_instance[INST] == [v]
    # a new slot of the retired instance joins the log, not the shared table
    y = make_message(registry, 3, Kind.ECHO, INST, 1, 1, b"v")
    assert a.admit(registry, y) == ("new", None)
    assert retired_view(a, INST) == [v, y] and INST not in a.by_instance
    assert list(index.table) == [v.slot()]
    assert y._slot is None and b.admit(registry, y) == ("new", None)


OTHER = (0, 0, GROUP_MAIN, CHAN_BCAST, 2)
# (kind, instance, round, phase, signer): four ECHO slots, then a READY slot,
# which retirement drops
LOG_SLOTS = [(Kind.ECHO, iid, 1, 1, signer) for iid in (INST, OTHER) for signer in (2, 3)]
LOG_SLOTS.append((Kind.READY, INST, 1, 2, 3))
# a step offers one object to several stores, as a frame reaches several
# cores, or retires one instance in several stores
STORES = st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)
STEPS = st.lists(
    st.one_of(
        # slot, variant (fresh, equivocating, certified, stripped), stores
        st.tuples(
            st.just("admit"), st.integers(0, len(LOG_SLOTS) - 1), st.integers(0, 3), STORES
        ),
        st.tuples(st.just("retire"), st.sampled_from((INST, OTHER)), STORES),
        st.tuples(st.just("release"), st.integers(0, 2)),
    ),
    max_size=30,
)


def _slot_variants(registry):
    """Per slot: a fresh message, an equivocating one, a certified copy of
    the fresh one and that copy's stripped twin, each one object that every
    store is offered."""
    pool = {}
    for slot in LOG_SLOTS:
        kind, iid, round, phase, signer = slot
        fresh = make_message(registry, signer, kind, iid, round, phase, b"v")
        other = make_message(registry, signer, kind, iid, round, phase, b"w")
        inner = make_message(registry, 4, Kind.ECHO, iid, 1, 1, b"v")
        carrying = make_message(registry, signer, kind, iid, round, phase, b"v", (inner,))
        pool[slot] = (fresh, other, carrying, carrying.stripped())
    return pool


def _private_admit(registry, held, retired, slot, msg):
    """The reference: a store that keeps its own {slot: message}, keeps
    nothing of a kind that cannot convict for an instance it retired, and
    never replaces what it keeps for one."""
    if slot[1] in retired and slot[0] not in CONFLICT_ELIGIBLE:
        return "new", None
    prev = held.get(slot)
    if prev is None:
        held[slot] = msg
        return "new", None
    if prev.payload != msg.payload:
        return "conflict", derive_pof(registry, prev, msg)
    if msg.certificate and not prev.certificate:
        if slot[1] in retired:
            return "new", None
        held[slot] = msg
        return "upgraded", None
    return "dup", None


def _check_shared_logs(index, stores, private, dropped, pool):
    everything = [m for variants in pool.values() for m in variants]
    for i, store in enumerate(stores):
        if i in dropped:
            assert not any(m._held & store.mark for m in everything)
            continue
        for slot, variants in pool.items():
            # at most one variant per slot, and the one a private store holds
            want = private[i].get(slot)
            assert [m for m in variants if m._held & store.mark] == ([want] if want else [])
            live = None if index.logs.get(slot[1], [0])[0] & store.mark else want
            assert store.first(*slot) is live
    for iid, log in index.logs.items():
        mask, listed = log[0], log[1:]
        assert mask and len(listed) == len(set(map(id, listed)))
        assert all(m.kind in CONFLICT_ELIGIBLE for m in listed)
        # every entry is held by a store that retired the instance, and
        # every message such a store holds is listed
        assert all(m._held & mask for m in listed)
        assert {id(m) for m in everything if m.instance == iid and m._held & mask} == set(
            map(id, listed)
        )
    # the table lists exactly the messages some store that has not retired
    # their instance holds, each once under its own slot key, and no other
    # held message keeps a slot key
    live = {id(m) for m in everything if m._held & ~index.logs.get(m.instance, [0])[0]}
    listed = []
    for key, entry in index.table.items():
        variants = entry if entry.__class__ is list else [entry]
        assert all(v._slot == key for v in variants)
        listed += map(id, variants)
    assert sorted(listed) == sorted(live)
    assert all(m._slot is None for m in everything if m._held and id(m) not in live)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(STEPS)
# a conflict in a live store caches the certified copy's slot key; once no
# store holds the instance live, a store that retired it logs that copy
@example(
    [
        ("admit", 2, 1, [0]),
        ("admit", 2, 2, [0]),
        ("release", 0),
        ("retire", OTHER, [2]),
        ("admit", 2, 2, [2]),
    ]
)
# a READY two stores hold stays indexed until the second retires it, and a
# late copy of it is new to the first, and kept nowhere
@example(
    [
        ("admit", 4, 0, [0, 1]),
        ("retire", INST, [0]),
        ("admit", 4, 2, [0, 1]),
        ("retire", INST, [1]),
        ("admit", 4, 0, [0, 1, 2]),
    ]
)
# a message one store holds live and another keeps in its log leaves the
# table as soon as the live store upgrades it away, or is itself released
@example([("admit", 0, 0, [0, 1]), ("retire", INST, [0]), ("admit", 0, 2, [1])])
@example([("admit", 0, 0, [0, 1]), ("retire", INST, [0]), ("release", 1)])
# a certified copy of a logged message is new to the store that logged it,
# and kept nowhere
@example([("admit", 0, 0, [0]), ("retire", INST, [0]), ("admit", 0, 2, [0])])
def test_shared_logs_admit_as_private_stores_would(registry, steps):
    index, stores = _sharing(1, 2, 4)
    pool = _slot_variants(registry)
    private = [{} for _ in stores]
    retired = [set() for _ in stores]
    dropped = set()
    for step in steps:
        if step[0] == "admit":
            slot = LOG_SLOTS[step[1]]
            msg = pool[slot][step[2]]
            for who in step[3]:
                if who in dropped:
                    continue
                want_status, want_pof = _private_admit(
                    registry, private[who], retired[who], slot, msg
                )
                status, pof = stores[who].admit(registry, msg)
                assert status == want_status
                assert (pof and pof.encoding()) == (want_pof and want_pof.encoding())
                _check_shared_logs(index, stores, private, dropped, pool)
        elif step[0] == "retire":
            for who in step[2]:
                if who not in dropped:
                    stores[who].retire(step[1])
                    # the store forgets the slots that cannot convict
                    retired[who].add(step[1])
                    for slot in [s for s in private[who] if s[1] == step[1]]:
                        if slot[0] not in CONFLICT_ELIGIBLE:
                            del private[who][slot]
                    _check_shared_logs(index, stores, private, dropped, pool)
        elif step[1] not in dropped:
            stores[step[1]].release()
            dropped.add(step[1])
            _check_shared_logs(index, stores, private, dropped, pool)


STOCK = Path(__file__).resolve().parent.parent / "scenarios"
# laggards that never catch up after the repair: every seed ends at the horizon
STALLED_FORK = replace(
    fork_scenario("binary-fork", n=9, d=4), heights=3, pool=4, horizon_ms=300_000
)
# the coalition is excluded before height 1 decides, and the pool refills it
SHORT_POOL_FORK = replace(fork_scenario("binary-fork", n=12, d=5), heights=3, pool=5)
ORACLE = [
    pytest.param(load_scenario(path), 1, id=path.stem)
    for path in sorted(STOCK.glob("*.json"))
    if path.stem != "llb-n9"
]
ORACLE += [pytest.param(llb_scenario(heights=12), 1, id="llb-h12")]
ORACLE += [
    pytest.param(scn, seed, id="%s-s%d" % (name, seed))
    for name, scn in (("stalled-fork", STALLED_FORK), ("short-pool-fork", SHORT_POOL_FORK))
    for seed in (1, 2)
]
ORACLE += [
    pytest.param(scn, seed, id="%s-s%d" % (scn.name, seed), marks=pytest.mark.slow)
    for scn in (clean_scenario(30), llb_scenario())
    for seed in (1, 2)
]


@pytest.mark.parametrize("scn, seed", ORACLE)
def test_shared_indexes_give_the_records_private_ones_give(scn, seed):
    """The differential oracle for the shared slot index: one run as it is,
    one with every store on an index of its own."""
    want = canonical_record(run_scenario(scn, seed).record)
    with private_index():
        outcome = run_scenario(scn, seed)
    # the reference run never touched the network's shared index
    index = outcome.world.net.slot_index
    assert index.table == {} and index.logs == {}
    assert canonical_record(outcome.record) == want


@pytest.mark.parametrize(
    "n, distinct", [(10, 604), (20, 2379), pytest.param(40, 9522, marks=pytest.mark.slow)]
)
def test_the_network_indexes_each_live_slot_once(n, distinct):
    world = run_scenario(clean_scenario(n), 1).world
    stores = [proc.core.store for proc in world.procs.values()]
    # one height, so nothing retires: every store holds every slot
    assert [len(s.slots) for s in stores] == [sum(map(len, s.by_instance.values())) for s in stores]
    assert sum(len(s.slots) for s in stores) == n * distinct
    table = world.net.slot_index.table
    assert len(table) == distinct
    assert set(table) == {m.slot() for s in stores for log in s.by_instance.values() for m in log}


# -- value-set codec ------------------------------------------------------------


def test_value_set_codec_sorts_and_dedups():
    blob = encode_value_set([b"bb", b"a", b"bb", b""])
    assert decode_value_set(blob) == [b"", b"a", b"bb"]
    assert blob == encode_value_set([b"a", b"", b"bb"])


def test_value_set_codec_rejects_bad_framing():
    blob = encode_value_set([b"abc", b"d"])
    with pytest.raises(ValueError, match="truncated value set"):
        decode_value_set(blob[:3])
    with pytest.raises(ValueError, match="truncated value set"):
        decode_value_set(blob[:-1])
    with pytest.raises(ValueError, match="trailing bytes in value set"):
        decode_value_set(blob + b"x")


@given(st.lists(st.binary(max_size=16), max_size=8))
def test_value_set_codec_round_trip(values):
    assert decode_value_set(encode_value_set(values)) == sorted(set(values))


# -- the confirmation rule -------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,confirmations,expected",
    [
        ("4/9", 7, "pending"),
        ("4/9", 8, "confirmed"),
        ("4/9", 9, "confirmed"),
        ("2/3", 8, "pending"),
        ("2/3", 9, "confirmed"),
        (0, 3, "pending"),
        (0, 4, "confirmed"),
    ],
)
def test_confirm_status_thresholds(alpha, confirmations, expected):
    assert confirm_status(9, 6, Fraction(alpha), confirmations) == expected


def test_certified_conflict_overrides_confirmation_count():
    assert (
        confirm_status(9, 6, Fraction(4, 9), 9, conflicting_certificate=True)
        == "disagreement-detected"
    )


# -- the core, driven over a live micro-network -----------------------------------


def test_forged_frames_only_bump_the_bad_signature_counter():
    from accbft.crypto import SignedMessage

    _, reg, cores = mini_world(4)
    outsider = KeyRegistry([2], seed=99)
    signed = make_message(outsider, 2, Kind.ECHO, INST, 1, 1, b"v")
    forged = SignedMessage(  # what arrives is a fresh envelope, not the
        kind=signed.kind,    # signer's own cached object
        instance=signed.instance,
        round=signed.round,
        phase=signed.phase,
        payload=signed.payload,
        signer=signed.signer,
        signature=signed.signature,
    )
    cores[1].deliver_frame(2, forged)
    assert cores[1].metrics.bad_signature == 1
    assert cores[1].metrics.admitted == 0


def test_pof_list_delivery_excludes_the_accused():
    _, reg, cores = mini_world(4)
    core = cores[1]
    pof = fraud_proof(reg, 3)
    envelope = pof_list(reg, 2, [pof])
    assert core.committee.is_active(3)
    core.deliver_frame(2, envelope)
    assert not core.committee.is_active(3)
    assert core.committee.d_r == 1
    assert core.metrics.pofs_recorded == 1
    # same proof again: nothing new is recorded or excluded
    core.deliver_frame(2, envelope)
    assert not core.committee.is_active(3)
    assert core.committee.d_r == 1
    assert core.metrics.pofs_recorded == 1


def test_ingest_pofs_dedups_by_proof_key(monkeypatch):
    _, reg, cores = mini_world(4)
    core = cores[1]
    sent, verified = pof_lists_sent(core), verify_pof_calls(monkeypatch)
    pof = fraud_proof(reg, 2)
    core.ingest_pofs([pof, pof])
    assert core.pofs == {pof.key(): pof} and verified == [pof]
    assert sent == [([1, 3, 4], (pof,))]  # the accused is left out already
    # another proof for the same slot is held already: not even verified
    core.ingest_pofs([fraud_proof(reg, 2, salt=b"again")])
    assert core.pofs == {pof.key(): pof} and verified == [pof]
    assert len(sent) == 1 and core.metrics.pofs_recorded == 1


def test_ingest_pofs_drops_forged_proofs():
    _, reg, cores = mini_world(4)
    core = cores[1]
    sent = pof_lists_sent(core)
    pof = fraud_proof(reg, 2)
    pof.accused = 3  # reassigned blame no longer verifies
    core.ingest_pofs([pof])
    assert core.pofs == {} and sent == []
    assert core.committee.h == 3 and core.metrics.pofs_recorded == 0


def test_ingest_pofs_keeps_an_outsider_proof_and_relays_it_once():
    _, reg, cores = mini_world(4)
    core = cores[1]
    sent = pof_lists_sent(core)
    reg.add(9)
    pof = fraud_proof(reg, 9)
    core.ingest_pofs([pof])
    core.ingest_pofs([pof])
    assert core.pofs == {pof.key(): pof}
    assert sent == [([1, 2, 3, 4], (pof,))]  # worth relaying, nothing to exclude
    assert core.committee.members == [1, 2, 3, 4] and core.committee.h == 3


def test_conflicting_sends_convict_on_arrival():
    _, reg, cores = mini_world(4)
    core = cores[1]
    core.deliver_frame(3, make_message(reg, 3, Kind.ECHO, INST, 1, 1, b"one"))
    core.deliver_frame(3, make_message(reg, 3, Kind.ECHO, INST, 1, 1, b"two"))
    assert not core.committee.is_active(3)
    assert core.committee.h == core.committee.h0 - 1


def test_msgset_bundles_are_walked_once():
    _, reg, cores = mini_world(4)
    core = cores[1]
    inners = (
        make_message(reg, 2, Kind.ECHO, INST, 1, 1, b"v"),
        make_message(reg, 3, Kind.ECHO, INST, 1, 1, b"v"),
    )
    from accbft.crypto import msgset_payload

    bundle = make_message(
        reg, 2, Kind.MSGSET, GLOBAL_INSTANCE, 0, 0,
        msgset_payload(list(inners)), certificate=inners,
    )
    core.deliver_frame(2, bundle)
    assert core.metrics.admitted == 2
    core.deliver_frame(2, bundle)
    assert core.metrics.admitted == 2


def test_alpha_confirmation_on_a_clean_network():
    net, _, cores = mini_world(4, seed=9, alpha=Fraction(1, 2))
    ctxs = start_contexts(cores, {p: b"v%d" % p for p in cores})
    assert net.run() == "quiescent"
    for ctx in ctxs.values():
        assert ctx.confirmation == "confirmed"
        assert ctx.decision is not None


def reference_deliver_frame(self, src, msg):
    """NodeCore.deliver_frame before bare messages skipped the ingest lists:
    every message went through _ingest."""
    self.metrics.frames += 1
    if not verify_message(self.registry, msg):
        self.metrics.bad_signature += 1
        return
    if msg.kind == Kind.POF_LIST:
        self.ingest_pofs(list(msg.pofs))
        return
    found = []
    fresh = []
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


# (kind, signer, slot source, payload, forged); READY carries a certificate of
# the three peers' echoes, so it takes the certificate path
_FRAMES = st.lists(
    st.tuples(
        st.sampled_from([Kind.INIT, Kind.ECHO, Kind.READY]),
        st.integers(2, 4),
        st.integers(1, 4),
        st.sampled_from([b"a", b"b"]),
        st.booleans(),
    ),
    max_size=25,
)


def _frame(reg, kind, signer, source, payload, forged):
    iid = (0, 0, GROUP_MAIN, CHAN_BCAST, source)
    if kind == Kind.INIT:
        signer = source if source != 1 else signer
    cert = ()
    if kind == Kind.READY:
        cert = tuple(make_message(reg, s, Kind.ECHO, iid, 1, 1, payload) for s in (2, 3, 4))
    msg = make_message(reg, signer, kind, iid, 1, 0 if kind == Kind.INIT else 1, payload, cert)
    if forged:
        msg = replace(msg, signature=bytes([msg.signature[0] ^ 1]) + msg.signature[1:])
    return msg


def _core_view(net, core, ctx):
    return (
        core.metrics,
        [(key, m.payload, bool(m.certificate)) for key, m in core.store.slots.items()],
        core.committee.d_r,
        sorted(core.committee.members),
        dict(ctx.delivered),
        net.trace,
    )


@settings(max_examples=80, deadline=None)
@given(_FRAMES)
def test_bare_frames_take_the_same_steps_as_the_ingest_path(frames):
    views = []
    for reference in (False, True):
        net, reg, cores = mini_world(4)
        net.trace = []
        core = cores[1]
        if reference:
            core.deliver_frame = types.MethodType(reference_deliver_frame, core)
        ctxs = start_contexts(cores, {p: b"v%d" % p for p in cores})
        for spec in frames:
            core.deliver_frame(spec[1], _frame(reg, *spec))
        views.append(_core_view(net, core, ctxs[1]))
    assert views[0] == views[1]
