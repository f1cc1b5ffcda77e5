"""Signed envelopes, equivocation proofs, and their byte codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accbft.crypto import (
    CHAN_BCAST,
    GROUP_MAIN,
    KeyRegistry,
    Kind,
    SignedMessage,
    decode_pof,
    decode_pof_list,
    derive_pof,
    encode_pof_list,
    make_message,
    msgset_payload,
    pick_certificate,
    pofs_payload,
    verify_message,
    verify_pof,
)

INST = (0, 0, GROUP_MAIN, CHAN_BCAST, 1)


def remade(msg, **overrides):
    """Fresh envelope with the same signed fields (caches not carried over)."""
    fields = dict(
        kind=msg.kind,
        instance=msg.instance,
        round=msg.round,
        phase=msg.phase,
        payload=msg.payload,
        signer=msg.signer,
        signature=msg.signature,
    )
    fields.update(overrides)
    return SignedMessage(**fields)


# BLAKE2b MACs are the one key scheme; the param keeps the test ids stable
@pytest.fixture(params=["blake2"])
def reg2():
    return KeyRegistry([1, 2])


def test_sign_verify_round_trip(reg2):
    msg = make_message(reg2, 1, Kind.ECHO, INST, 1, 1, b"payload")
    assert verify_message(reg2, remade(msg))


def test_unknown_signer_rejected(reg2):
    msg = make_message(reg2, 1, Kind.ECHO, INST, 1, 1, b"payload")
    stranger_view = KeyRegistry([2])
    assert not verify_message(stranger_view, remade(msg))


def test_tampered_payload_rejected(reg2):
    msg = make_message(reg2, 1, Kind.ECHO, INST, 1, 1, b"payload")
    assert not verify_message(reg2, remade(msg, payload=b"other"))


def test_tampered_signature_rejected(reg2):
    msg = make_message(reg2, 1, Kind.ECHO, INST, 1, 1, b"payload")
    bad = bytes([msg.signature[0] ^ 0xFF]) + msg.signature[1:]
    assert not verify_message(reg2, remade(msg, signature=bad))


def test_registry_add_and_known():
    reg = KeyRegistry([1])
    other = KeyRegistry([5])
    msg = make_message(other, 5, Kind.INIT, INST, 1, 0, b"v")
    assert not verify_message(reg, remade(msg))  # 5's key is unknown to reg
    reg.add(5)
    assert verify_message(reg, remade(msg))


def test_core_encoding_is_deterministic(registry):
    a = make_message(registry, 3, Kind.EST, INST, 2, 1, b"x")
    b = make_message(registry, 3, Kind.EST, INST, 2, 1, b"x")
    assert a.core_encoding() == b.core_encoding()
    assert a.signature == b.signature
    c = make_message(registry, 3, Kind.EST, INST, 3, 1, b"x")
    assert c.core_encoding() != a.core_encoding()


def test_core_encoding_layout(registry):
    # kind byte; instance, round, phase and payload length as big-endian
    # u32; the payload; the signer as a u32
    m = make_message(registry, 3, Kind.EST, (1, 2, 3, 4, 5), 6, 7, b"xy")
    u32s = b"".join(x.to_bytes(4, "big") for x in (1, 2, 3, 4, 5, 6, 7, 2))
    assert m.core_encoding() == bytes([Kind.EST]) + u32s + b"xy" + (3).to_bytes(4, "big")


def test_slot_covers_signer_not_payload(registry):
    a = make_message(registry, 3, Kind.EST, INST, 2, 1, b"x")
    b = make_message(registry, 3, Kind.EST, INST, 2, 1, b"y")
    c = make_message(registry, 4, Kind.EST, INST, 2, 1, b"x")
    assert a.slot() == b.slot()
    assert a.slot() != c.slot()
    assert a.slot() == (Kind.EST, INST, 2, 1, 3)


def test_stripped_without_attachments_is_same_object(registry):
    msg = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"v")
    assert msg.stripped() is msg


def test_stripped_drops_certificate_and_keeps_signature(registry):
    inner = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"v")
    msg = make_message(registry, 1, Kind.READY, INST, 1, 2, b"v", certificate=(inner,))
    bare = msg.stripped()
    assert bare is not msg
    assert bare.certificate == () and bare.pofs == ()
    assert bare.core_encoding() == msg.core_encoding()
    assert verify_message(registry, remade(bare))


def test_full_encoding_covers_certificate(registry):
    inner = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"v")
    plain = make_message(registry, 1, Kind.READY, INST, 1, 2, b"v")
    carrying = make_message(
        registry, 1, Kind.READY, INST, 1, 2, b"v", certificate=(inner,)
    )
    assert plain.core_encoding() == carrying.core_encoding()
    assert plain.full_encoding() != carrying.full_encoding()


# -- proofs of fraud ---------------------------------------------------------


def echo_pair(registry, signer=1, kind=Kind.ECHO, round=1):
    m1 = make_message(registry, signer, kind, INST, round, 1, b"left")
    m2 = make_message(registry, signer, kind, INST, round, 1, b"right")
    return m1, m2


def test_derive_pof_convicts_double_send(registry):
    m1, m2 = echo_pair(registry)
    pof = derive_pof(registry, m1, m2)
    assert pof is not None and pof.accused == 1
    assert verify_pof(registry, pof)


def test_derive_pof_orders_pair_canonically(registry):
    m1, m2 = echo_pair(registry)
    fwd = derive_pof(registry, m1, m2)
    rev = derive_pof(registry, m2, m1)
    assert fwd.first.core_encoding() == rev.first.core_encoding()
    assert fwd.first.core_encoding() < fwd.second.core_encoding()
    assert fwd.encoding() == rev.encoding()


def test_derive_pof_strips_attachments(registry):
    inner = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"v")
    m1 = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"a", certificate=(inner,))
    m2 = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"b")
    pof = derive_pof(registry, m1, m2)
    assert pof.first.certificate == () and pof.second.certificate == ()


def test_derive_pof_ignores_relay_kinds(registry):
    m1, m2 = echo_pair(registry, kind=Kind.READY)
    assert derive_pof(registry, m1, m2) is None


def test_derive_pof_needs_one_signer(registry):
    m1 = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"a")
    m2 = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"b")
    assert derive_pof(registry, m1, m2) is None


def test_derive_pof_needs_one_slot(registry):
    m1 = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"a")
    m2 = make_message(registry, 1, Kind.ECHO, INST, 2, 1, b"b")
    assert derive_pof(registry, m1, m2) is None


def test_derive_pof_needs_distinct_payloads(registry):
    m1 = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"same")
    m2 = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"same")
    assert derive_pof(registry, m1, m2) is None


def test_derive_pof_rejects_forged_member(registry):
    m1 = make_message(registry, 1, Kind.ECHO, INST, 1, 1, b"a")
    m2 = remade(m1, payload=b"b")  # kept the old signature
    assert derive_pof(registry, m1, m2) is None


def test_verify_pof_checks_accused_id(registry):
    m1, m2 = echo_pair(registry)
    pof = derive_pof(registry, m1, m2)
    pof.accused = 7
    assert not verify_pof(registry, pof)


def test_pof_codec_round_trip(registry):
    m1, m2 = echo_pair(registry, signer=4, round=3)
    pof = derive_pof(registry, m1, m2)
    back = decode_pof(pof.encoding())
    assert back.key() == pof.key()
    assert back.encoding() == pof.encoding()
    assert verify_pof(registry, back)


@pytest.mark.parametrize(
    "blob",
    [b"", b"\x00" * 7, b"\x00\x00\x00\x09" + b"x" * 4],
    ids=["empty", "short-header", "bad-length"],
)
def test_decode_pof_rejects_truncation(blob):
    with pytest.raises(ValueError, match="truncated proof"):
        decode_pof(blob)


def test_decode_pof_rejects_truncated_member():
    blob = b"\x00\x00\x00\x05" + b"abcde" + b"\x00\x00\x00\x05" + b"fghij"
    with pytest.raises(ValueError, match="truncated message"):
        decode_pof(blob)


def test_pof_list_codec_is_order_independent(registry):
    pofs = []
    for signer in (1, 2, 3):
        m1, m2 = echo_pair(registry, signer=signer)
        pofs.append(derive_pof(registry, m1, m2))
    fwd = encode_pof_list(pofs)
    rev = encode_pof_list(list(reversed(pofs)))
    assert fwd == rev
    back = decode_pof_list(fwd)
    assert sorted(p.key() for p in back) == sorted(p.key() for p in pofs)
    assert all(verify_pof(registry, p) for p in back)


def test_pof_list_codec_empty():
    assert decode_pof_list(encode_pof_list([])) == []


def test_decode_pof_list_rejects_bad_framing(registry):
    m1, m2 = echo_pair(registry)
    blob = encode_pof_list([derive_pof(registry, m1, m2)])
    with pytest.raises(ValueError, match="truncated proof list"):
        decode_pof_list(blob[:3])
    with pytest.raises(ValueError, match="truncated proof list"):
        decode_pof_list(blob[:-2])
    with pytest.raises(ValueError, match="trailing bytes in proof list"):
        decode_pof_list(blob + b"\x00")


# -- certificate selection ---------------------------------------------------


def test_pick_certificate_prefers_lowest_round(registry):
    inner_a = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"a")
    inner_b = make_message(registry, 3, Kind.ECHO, INST, 1, 1, b"b")
    late = make_message(registry, 1, Kind.READY, INST, 5, 2, b"v", certificate=(inner_a,))
    early = make_message(registry, 2, Kind.READY, INST, 1, 2, b"v", certificate=(inner_b,))
    assert pick_certificate([late, early]) == (inner_b,)


def test_pick_certificate_breaks_round_ties_by_encoding(registry):
    inner_a = make_message(registry, 2, Kind.ECHO, INST, 1, 1, b"a")
    inner_b = make_message(registry, 3, Kind.ECHO, INST, 1, 1, b"b")
    one = make_message(registry, 1, Kind.READY, INST, 1, 2, b"v", certificate=(inner_a,))
    two = make_message(registry, 2, Kind.READY, INST, 1, 2, b"v", certificate=(inner_b,))
    lo = min([one, two], key=lambda m: m.full_encoding())
    assert pick_certificate([one, two]) == lo.certificate
    assert pick_certificate([two, one]) == lo.certificate


def test_pick_certificate_without_candidates(registry):
    bare = make_message(registry, 1, Kind.READY, INST, 1, 2, b"v")
    assert pick_certificate([]) == ()
    assert pick_certificate([bare]) == ()


def test_commitment_payloads_are_digests(registry):
    m1, m2 = echo_pair(registry)
    pof = derive_pof(registry, m1, m2)
    assert len(msgset_payload([m1, m2])) == 32
    assert msgset_payload([m1, m2]) == msgset_payload([m1, m2])
    assert msgset_payload([m1]) != msgset_payload([m2])
    assert len(pofs_payload([pof])) == 32
    assert pofs_payload([pof]) != pofs_payload([])


@given(
    payloads=st.lists(
        st.binary(max_size=48), min_size=2, max_size=2, unique=True
    ),
    round_=st.integers(min_value=0, max_value=50),
)
def test_pof_survives_codec_for_any_payload_pair(payloads, round_):
    reg = KeyRegistry([7])
    m1 = make_message(reg, 7, Kind.BVECHO, INST, round_, 1, payloads[0])
    m2 = make_message(reg, 7, Kind.BVECHO, INST, round_, 1, payloads[1])
    pof = derive_pof(reg, m1, m2)
    assert pof is not None
    back = decode_pof_list(encode_pof_list([pof]))[0]
    assert back.key() == pof.key()
    assert verify_pof(reg, back)
