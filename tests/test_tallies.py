"""Incremental quorum tallies against a from-scratch recount of the store.

A core is driven through random admissions: plain and certificate-carrying
estimates, upgrades of estimates first seen without their certificate,
conflicting sends, phase-2 echoes, certified deliveries (BVREADY), broadcast
echoes and expired phase timers, plus exclusions on the core's committee and
on a second context's own committee (which changes without a
committee-version bump).  After every step:

- a pump that an instance's gate holds back changes nothing;
- the tallies the next pump would count with equal a recount of the store;
- every grouped view of the store equals a reference the test keeps from the
  messages offered to the store;
- a second store shares the network's slot index with the core's store and
  is offered every message the core's store is, stripped of its
  certificate, so the two stores hold different variants of every slot the
  core holds a certified copy of; each store's grouped views and first()
  equal the reference kept from its own offers;
- for every message offered, each store's held mark equals whether its live
  log holds that very object, each store's slot view finds exactly what its
  live logs hold, and the shared table holds those messages and no other.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from accbft.binary import _AUX_INDEX, BinaryInstance, dec_bits, enc_bit, enc_bits
from accbft.broadcast import kind_phase
from accbft.committee import Committee, mask_members, update_committee
from accbft.consensus import MessageStore, MultiContext
from accbft.crypto import Kind, make_message
from conftest import fraud_proof, mini_world

N = 5
SIGNER = st.integers(2, N)
CTX = st.integers(0, 1)
BIN = st.sampled_from([2, 3])  # slot 2 votes in round 1, slot 3 in round 2

ACTIONS = st.one_of(
    st.tuples(
        st.just("bvecho"), CTX, BIN, st.integers(1, 2), st.integers(0, 1), SIGNER,
        st.booleans(),  # payload names the other value than the slot's phase
        st.sampled_from(["none", "bvecho", "echo"]),
        st.sets(SIGNER, max_size=N - 1),
    ),
    st.tuples(
        st.just("echo"), CTX, BIN, st.integers(1, 2),
        st.sampled_from([b"\x00", b"\x01", b"\x00\x01", b"\x01\x00", b"\x02"]), SIGNER,
    ),
    st.tuples(st.just("upgrade"), CTX, st.integers(0, 1), SIGNER),
    st.tuples(st.just("rb_echo"), CTX, BIN, SIGNER, st.sampled_from([b"a", b"b"])),
    st.tuples(st.just("bvready"), CTX, BIN, st.integers(1, 2), st.integers(0, 1), SIGNER),
    st.tuples(st.just("timer"), CTX, BIN),
    st.tuples(st.just("exclude"), CTX, st.sampled_from([4, 5]), st.binary(max_size=2)),
)


def recount_binary(inst):
    store, com, r = inst.core.store, inst.committee, inst.round
    bvecho = [
        {
            s
            for s, m in store.group(Kind.BVECHO, inst.iid, r, 1 + v).items()
            if m.payload == enc_bit(v) and com.is_active(s) and inst._bvecho_admissible(m)
        }
        for v in (0, 1)
    ]
    aux = {}
    for s, m in store.group(Kind.ECHO, inst.iid, r, 2).items():
        bits = dec_bits(m.payload)
        if bits is not None and com.is_active(s):
            aux.setdefault(bits, set()).add(s)
    return bvecho, aux


def recount_broadcast(inst):
    echoes = {}
    group = inst.core.store.group(Kind.ECHO, inst.iid, 1, kind_phase(Kind.ECHO))
    for s, m in group.items():
        if inst.committee.is_active(s):
            echoes.setdefault(m.payload, set()).add(s)
    return echoes


def progress(inst):
    """What a pump that acts changes besides the store it emits into."""
    if isinstance(inst, BinaryInstance):
        return inst.round, inst.phase, inst.decided
    return inst.delivered, inst.ready_sent


def check_held_back_pumps(ctxs):
    """A pump the instance's gate would hold back changes nothing.  An open
    gate's pump runs, as the next dispatch to the instance would run it."""
    for ctx in ctxs:
        for inst in (*ctx.bins.values(), *ctx.slots.values()):
            if inst._stale():
                inst.pump()
                continue
            before = len(inst.core.store.slots), progress(inst)
            inst.pump()
            assert (len(inst.core.store.slots), progress(inst)) == before


def check_held_marks(offered, stores, index):
    keys = set()
    for store in stores:
        held = [m for log in store.by_instance.values() for m in log]
        ids = set(map(id, held))
        for m in offered:
            assert bool(m._held & store.mark) == (id(m) in ids)
        live = {m.slot(): m for m in held}
        assert len(live) == len(held) == len(store.slots)
        assert all(store.slots.get(key) is m for key, m in live.items())
        keys.update(live)
    # one entry per slot some store holds live: its one message, or a list of
    # two or more distinct variants, each held by some store
    assert set(index.table) == keys
    for entry in index.table.values():
        variants = entry if type(entry) is list else [entry]
        assert len(set(map(id, variants))) == len(variants) >= 1 + (variants is entry)
        assert all(any(v._held & store.mark for store in stores) for v in variants)


def check_tallies(ctxs):
    """What the next pump would count with equals a recount of the store."""
    for ctx in ctxs:
        for inst in ctx.bins.values():
            if inst.started and inst.decided is None:
                tally = inst._counts()
                bvecho = [set(mask_members(mask)) for mask in tally[:2]]
                aux = {s: set(mask_members(tally[i])) for s, i in _AUX_INDEX.items() if tally[i]}
                assert (bvecho, aux) == recount_binary(inst)
        for inst in ctx.slots.values():
            if inst.delivered is None and not inst.cancelled:
                echoes = {v: set(mask_members(mask)) for v, mask in inst._support().items()}
                assert echoes == recount_broadcast(inst)


class GroupReference:
    """What store.group must return: per (kind, instance, round, phase), each
    signer's first admitted message, in first-admission order, swapped in
    place for a later copy that carries a certificate the first lacked."""

    def __init__(self, store):
        self.store = store
        self.groups = {}
        admit = store.admit

        def recording(registry, msg):
            self.record(msg)
            return admit(registry, msg)

        store.admit = recording

    def record(self, msg):
        group = self.groups.setdefault((msg.kind, msg.instance, msg.round, msg.phase), {})
        prev = group.get(msg.signer)
        if prev is None or (
            prev.payload == msg.payload and msg.certificate and not prev.certificate
        ):
            group[msg.signer] = msg

    def check(self):
        for key, want in self.groups.items():
            got = self.store.group(*key)
            assert list(got) == list(want)
            assert all(got[s] is m for s, m in want.items())
            assert all(self.store.first(*key, s) is m for s, m in want.items())
        assert sum(map(len, self.groups.values())) == len(self.store.slots)


def certificate(reg, iid, kind, r, v, signers):
    if kind == "bvecho":
        return tuple(
            make_message(reg, s, Kind.BVECHO, iid, r, 1 + v, enc_bit(v)) for s in sorted(signers)
        )
    return tuple(
        make_message(reg, s, Kind.ECHO, iid, r, 2, enc_bits({v})) for s in sorted(signers)
    )


# the round-2 vote's phase-1 timer expires with nothing delivered; a BVREADY
# certified by bare (so uncounted) round-2 echoes then delivers 0, which alone
# must release the pump that enters phase 2
_BVREADY_ALONE = [("timer", 0, 3), ("bvready", 0, 3, 2, 0, 3)]


@settings(max_examples=200, deadline=None)
@given(st.lists(ACTIONS, max_size=40))
@example(_BVREADY_ALONE)
# ...then phase 2's timer expires, and echoes of {0} complete the exit quorum
@example(_BVREADY_ALONE + [("timer", 0, 3)] + [("echo", 0, 3, 2, b"\x00", s) for s in (2, 3, 4)])
# three echoes of one broadcast value, then an exclusion on the second
# context's own committee lowers h to three
@example([("rb_echo", 1, 2, s, b"a") for s in (2, 3, 4)] + [("exclude", 1, 5, b"")])
def test_tallies_match_a_recount_after_every_step(actions):
    net, reg, cores = mini_world(N)
    core = cores[1]
    ref = GroupReference(core.store)
    # a second store on the same network, sharing its slot index, admits the
    # stripped copy of every message the core's store is offered: the same
    # object when the message is bare, another variant when it is certified
    twin = MessageStore(net.store_mark(), net.slot_index)
    twin_ref = GroupReference(twin)
    offered = []
    admit = core.store.admit

    def sharing(registry, msg):
        bare = msg.stripped()
        offered.extend((msg, bare))
        twin.admit(registry, bare)
        return admit(registry, msg)

    core.store.admit = sharing

    def deliver(msg):
        offered.extend((msg, *msg.certificate))
        core.deliver_frame(msg.signer, msg)

    def check():
        check_held_back_pumps(ctxs)
        check_tallies(ctxs)
        ref.check()
        twin_ref.check()
        check_held_marks(offered, (core.store, twin), net.slot_index)

    side = Committee(initial=tuple(range(1, N + 1)), h0=core.committee.h0)
    ctxs = [MultiContext(core, core.committee, period=0), MultiContext(core, side, period=1)]
    for ctx in ctxs:
        core.register_context(ctx)
        ctx.bins[2].propose(1)
        ctx.bins[3].propose(0)
        ctx.bins[3]._enter_round(2)
    check()
    for action in actions:
        kind, ci = action[0], action[1]
        ctx = ctxs[ci]
        if kind == "bvecho":
            _, _, src, r, v, signer, flip, cert_kind, cert_signers = action
            iid = ctx.bins[src].iid
            cert = () if cert_kind == "none" else certificate(
                reg, iid, cert_kind, r - 1 if r > 1 else 1, v, cert_signers
            )
            payload = enc_bit(1 - v if flip else v)
            deliver(make_message(reg, signer, Kind.BVECHO, iid, r, 1 + v, payload, cert))
        elif kind == "upgrade":
            # a round-2 estimate seen bare (inadmissible unless exempt), then
            # again with a full round-1 certificate
            _, _, v, signer = action
            iid = ctx.bins[3].iid
            cert = certificate(reg, iid, "bvecho", 1, v, range(2, N + 1))
            for attached in ((), cert):
                msg = make_message(reg, signer, Kind.BVECHO, iid, 2, 1 + v, enc_bit(v), attached)
                deliver(msg)
                check()
        elif kind == "echo":
            _, _, src, r, payload, signer = action
            deliver(make_message(reg, signer, Kind.ECHO, ctx.bins[src].iid, r, 2, payload))
        elif kind == "bvready":
            # a delivery certified by every other signer's echo of v
            _, _, src, r, v, signer = action
            iid = ctx.bins[src].iid
            cert = certificate(reg, iid, "bvecho", r, v, range(2, N + 1))
            deliver(make_message(reg, signer, Kind.BVREADY, iid, r, 1 + v, enc_bit(v), cert))
        elif kind == "timer":
            inst = ctx.bins[action[2]]
            if inst.decided is None:
                epoch = inst.rounds[inst.round].epoch[inst.phase]
                inst.on_timer(("bin", inst.iid, inst.round, inst.phase, epoch))
        elif kind == "rb_echo":
            _, _, src, signer, value = action
            deliver(make_message(reg, signer, Kind.ECHO, ctx.slots[src].iid, 1, 1, value))
        else:
            _, _, accused, salt = action
            pof = fraud_proof(reg, accused, salt)
            if ctx.committee is core.committee:
                core.ingest_pofs([pof])
            else:
                # membership updates its working committee in place, with no
                # version bump and no recheck pass
                update_committee(ctx.committee, [pof])
        check()
