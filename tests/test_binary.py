"""Binary votes: bit codecs and decision behavior on a live micro-network."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accbft.binary import dec_bits, enc_bit, enc_bits, parity
from accbft.crypto import Kind, make_message
from conftest import mini_world, start_contexts


def test_parity_alternates():
    assert [parity(r) for r in (1, 2, 3, 4)] == [1, 0, 1, 0]


def test_bit_codecs():
    assert enc_bit(0) == b"\x00"
    assert enc_bit(1) == b"\x01"
    assert enc_bits({1, 0}) == b"\x00\x01"
    assert enc_bits([1]) == b"\x01"


@pytest.mark.parametrize(
    "bad", [b"", b"\x02", b"\x00\x00", b"\x01\x02"], ids=repr
)
def test_dec_bits_rejects_malformed(bad):
    assert dec_bits(bad) is None


@given(st.sets(st.integers(min_value=0, max_value=1), min_size=1))
def test_bit_set_codec_round_trip(bits):
    assert dec_bits(enc_bits(bits)) == frozenset(bits)


def test_all_slots_decide_one_in_the_favored_round():
    net, _, cores = mini_world(4, seed=3)
    ctxs = start_contexts(cores, {p: b"v%d" % p for p in cores})
    assert net.run() == "quiescent"
    for ctx in ctxs.values():
        for src in (1, 2, 3, 4):
            assert ctx.bins[src].decided == (1, 1), src


def test_silent_slot_decides_zero_one_round_later():
    net, _, cores = mini_world(4, seed=5)
    ctxs = start_contexts(cores, {1: b"a", 2: b"b", 3: b"c"})
    assert net.run() == "quiescent"
    for ctx in ctxs.values():
        assert ctx.bins[4].decided == (0, 2)
        for src in (1, 2, 3):
            assert ctx.bins[src].decided == (1, 1), src


def test_decisions_carry_a_quorum_certificate():
    net, _, cores = mini_world(4, seed=7)
    ctxs = start_contexts(cores, {p: b"v%d" % p for p in cores})
    assert net.run() == "quiescent"
    for pid, ctx in ctxs.items():
        bin_ = ctx.bins[1]
        cert = bin_.decision_cert
        assert len({m.signer for m in cert}) >= ctx.committee.h
        assert all(m.payload == enc_bit(1) for m in cert)


def test_vote_outcomes_agree_across_processes():
    for seed in (11, 12, 13):
        net, _, cores = mini_world(5, seed=seed)
        ctxs = start_contexts(cores, {1: b"a", 2: b"b", 3: b"c", 4: b"d"})
        assert net.run() == "quiescent"
        views = [
            {src: ctx.bins[src].decided[0] for src in ctx.bins}
            for ctx in ctxs.values()
        ]
        assert all(v == views[0] for v in views[1:]), seed
        assert set(views[0].values()) <= {0, 1}


def test_a_fired_phase_timer_shares_what_is_held_from_its_phase_on():
    net, reg, cores = mini_world(4, seed=1)
    core = cores[1]
    sent = []
    net.send = lambda src, dsts, msg: sent.append(msg)
    bin_ = start_contexts({1: core}, {})[1].bins[2]
    bin_.propose(1)
    # a round-1 quorum for 1 with a lone 0 beside it, and two round-2 echoes
    # (the wire phase of a BVECHO is 1 + its value)
    for signer, r, v in ((2, 1, 0), (2, 1, 1), (3, 1, 1), (4, 2, 0), (4, 2, 1)):
        m = make_message(reg, signer, Kind.BVECHO, bin_.iid, r, 1 + v, enc_bit(v))
        core.deliver_frame(signer, m)
    rs = bin_.rounds[1]
    bin_.on_timer(("bin", bin_.iid, 1, 1, rs.epoch[1]))
    assert (bin_.round, bin_.phase) == (1, 2) and rs.bin_vals.keys() == {1}
    sent.clear()
    bin_.on_timer(("bin", bin_.iid, 1, 2, rs.epoch[2]))
    (bundle,) = [m for m in sent if m.kind == Kind.MSGSET]
    held = core.store.by_instance[bin_.iid]
    assert list(bundle.certificate) == [m for m in held if (m.round, m.phase) >= (1, 2)]
    # its own phase and everything after it go, the earlier phase stays
    assert {(m.round, m.phase) for m in bundle.certificate} == {(1, 2), (2, 1), (2, 2)}
    assert {(m.round, m.phase) for m in held} == {(1, 1), (1, 2), (2, 1), (2, 2)}
