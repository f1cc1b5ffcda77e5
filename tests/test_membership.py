"""Durable membership change: triggers, replacement choice, chain catch-up."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accbft.crypto import CHAN_BCAST, GROUP_MAIN, encode_pof_list
from accbft.membership import (
    AsmrProcess,
    catch_up,
    decode_id_list,
    encode_id_list,
    fraud_trigger_threshold,
    h_prime_preset,
    round_robin_choose,
)
from accbft.scenarios import clean_scenario, fork_scenario, run_scenario, spam_scenario
from conftest import fraud_proof, mini_world, pof_list, pof_lists_sent, verify_pof_calls


@pytest.mark.parametrize("n,h0,expected", [(4, 3, 2), (9, 6, 3), (9, 7, 5), (12, 8, 4)])
def test_fraud_trigger_threshold(n, h0, expected):
    assert fraud_trigger_threshold(n, h0) == expected


def test_h_prime_presets_for_nine():
    assert h_prime_preset(9, "eventual-consensus") == 6
    assert h_prime_preset(9, "consensus") == 7
    assert h_prime_preset(9, "awareness-optimal") == 8
    with pytest.raises(KeyError):
        h_prime_preset(9, "optimistic")


def test_id_list_codec():
    for ids in ([], [7], [3, 1, 4, 1]):
        assert decode_id_list(encode_id_list(ids)) == ids
    with pytest.raises(ValueError, match="truncated id list"):
        decode_id_list(b"\x00\x00")
    with pytest.raises(ValueError, match="bad id list length"):
        decode_id_list(encode_id_list([1, 2]) + b"\x00")
    with pytest.raises(ValueError, match="bad id list length"):
        decode_id_list(encode_id_list([1, 2])[:-1])


@given(st.lists(st.integers(min_value=1, max_value=30), max_size=12))
def test_id_list_codec_round_trip(ids):
    assert decode_id_list(encode_id_list(ids)) == ids


def test_round_robin_choose_interleaves_columns():
    proposals = [(1, [10, 11, 12]), (2, [20, 21]), (3, [11, 30])]
    assert round_robin_choose(proposals, 3) == [10, 20, 11]
    assert round_robin_choose(proposals, 5) == [10, 20, 11, 21, 30]


def test_round_robin_choose_skips_duplicates_and_exhausts():
    proposals = [(2, [5]), (1, [5]), (3, [6])]
    assert round_robin_choose(proposals, 2) == [5, 6]
    # k larger than the distinct pool: returns what there is
    assert round_robin_choose(proposals, 4) == [5, 6]
    assert round_robin_choose([], 3) == []


@given(
    proposals=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9),
            st.lists(st.integers(min_value=10, max_value=40), max_size=5),
        ),
        max_size=5,
    ),
    k=st.integers(min_value=0, max_value=6),
)
def test_round_robin_choose_properties(proposals, k):
    chosen = round_robin_choose(proposals, k)
    assert len(chosen) == len(set(chosen))
    assert len(chosen) <= k
    pool = {pid for _, ids in proposals for pid in ids}
    assert set(chosen) <= pool
    if k <= len(pool):
        assert len(chosen) == k


# -- catch-up over real chains -------------------------------------------------


def test_catch_up_verifies_a_real_chain(clean_outcome):
    world = clean_outcome.world
    chain = world.procs[1].chain
    assert len(chain) == 2
    assert catch_up(world.registry, chain) == 2
    assert catch_up(world.registry, []) == 0


def test_catch_up_rejects_a_thinned_certificate(clean_outcome):
    world = clean_outcome.world
    chain = [dict(rec) for rec in world.procs[1].chain]
    chain[0]["cert"] = tuple(chain[0]["cert"])[:2]
    with pytest.raises(ValueError, match="certificate verification failed at height 0"):
        catch_up(world.registry, chain)


def test_catch_up_rejects_votes_spliced_from_two_heights(clean_outcome):
    world = clean_outcome.world
    chain = [dict(rec) for rec in world.procs[1].chain]
    first, second = tuple(chain[0]["cert"]), tuple(chain[1]["cert"])
    taken = {m.signer for m in first[:2]}
    spliced = first[:2] + tuple(m for m in second if m.signer not in taken)[:1]
    assert len({m.signer for m in spliced}) == chain[0]["h"] == 3
    chain[0]["cert"] = spliced
    with pytest.raises(ValueError, match="certificate verification failed at height 0"):
        catch_up(world.registry, chain)


def test_catch_up_rejects_an_outsider_vote(clean_outcome, registry):
    from accbft.crypto import make_message

    world = clean_outcome.world
    chain = [dict(rec) for rec in world.procs[1].chain]
    good = tuple(chain[0]["cert"])
    outsider = make_message(
        world.registry, 1, good[0].kind, good[0].instance,
        good[0].round, good[0].phase, good[0].payload,
    )
    outsider.signer = 11  # not a committee member; also breaks the signature
    chain[0]["cert"] = good[:-1] + (outsider,)
    with pytest.raises(ValueError, match="certificate verification failed"):
        catch_up(world.registry, chain)


def test_catch_up_accepts_confirmation_quorums():
    outcome = run_scenario(clean_scenario(4, heights=1, alpha="1/2"), 3)
    world = outcome.world
    chain = world.procs[2].chain
    assert chain and chain[0].get("confirm")
    assert catch_up(world.registry, chain) == 1


def test_detection_is_stamped_by_the_crossing_proofs_and_never_moves():
    # n=4, h0=3: proofs against 2 distinct ids detect the fork; an idle
    # process counts them without starting a repair
    net, reg, cores = mini_world(4)
    proc = AsmrProcess(cores[1], range(1, 5), h0=3, h_prime0=4)
    assert fraud_trigger_threshold(4, 3) == 2
    steps = [
        [fraud_proof(reg, 2)],
        [fraud_proof(reg, 2, instance=(1, 0, GROUP_MAIN, CHAN_BCAST, 2))],  # the same id
        [fraud_proof(reg, 3)],
        [fraud_proof(reg, 4)],
    ]
    stamps = []
    for tick, pofs in enumerate(steps, start=1):
        net.now = 10 * tick
        cores[1].ingest_pofs(pofs)
        stamps.append(proc.detected_at)
    assert len(proc.core.pofs) == 4 and proc.phase == "idle"
    assert stamps == [None, None, 30, 30]


def test_a_held_proof_against_a_non_member_is_not_taken_again(monkeypatch):
    # pid 4 is no member of the process: its proof excludes it from the
    # first committee, and after the main height starts it is held already
    net, reg, cores = mini_world(4)
    core = cores[1]
    proc = AsmrProcess(core, range(1, 4), h0=3, h_prime0=3, max_heights=2)
    sent = pof_lists_sent(core)
    pof = fraud_proof(reg, 4)
    core.ingest_pofs([pof])
    proc.start()
    verified = verify_pof_calls(monkeypatch)
    rechecks = []
    proc.main_ctx.recheck = lambda: rechecks.append(proc.main_ctx)
    core.deliver_frame(2, pof_list(reg, 2, [fraud_proof(reg, 4)]))
    assert len(sent) == 1 and verified == [] and rechecks == []
    assert core.committee.members == [1, 2, 3]


def test_a_proof_learnt_from_the_exclusion_vote_is_not_relayed():
    net, reg, cores = mini_world(4)
    core = cores[1]
    proc = AsmrProcess(core, range(1, 5), h0=3, h_prime0=4, pool=[5])
    proc.start()
    proc._start_exclusion(set())
    pof = fraud_proof(reg, 4)
    proc.excl_ctx.decided_values = lambda: [encode_pof_list([pof])]
    proc._on_exclusion_decided(proc.excl_ctx)
    assert list(core.pofs) == [pof.key()]  # a decoded copy of the proof
    assert proc.members == [1, 2, 3] and proc.phase == "inclusion"
    sent = pof_lists_sent(core)
    core.deliver_frame(2, pof_list(reg, 2, [pof]))
    assert sent == [] and list(core.pofs) == [pof.key()]


def test_spam_run_recovers_by_exclusion():
    record = run_scenario(spam_scenario(), 7).record
    assert record["honest"] == [3, 4]
    assert record["phases"]["3"] == "done" and record["phases"]["4"] == "done"
    assert record["committee_excluded"] == {"3": [1], "4": [1]}
    assert record["failures"] == {}


def _mutable_parts(chain):
    """The ids of a chain list, its block records and their mutable values."""
    ids = {id(chain)}
    for block in chain:
        ids.add(id(block))
        ids.update(id(v) for v in block.values() if isinstance(v, (dict, list, set)))
    return ids


@pytest.fixture(scope="module")
def ledger_fork_world():
    """A short ledger fork: six heights, five standbys that all join."""
    scn = replace(
        fork_scenario("binary-fork", payload="ledger"),
        heights=6,
        pool=5,
        txs_per_block=16,
        deposit={"gain_cap": 1600, "factor": "0.1", "blockdepth": 28},
        alpha="4/9",
    )
    return run_scenario(scn, 1).world


def test_a_joiner_shares_no_block_record_with_another_process(ledger_fork_world):
    # every standby joins on one inviter's snapshot; a block record shared
    # with it would show that inviter's later confirmations in every chain
    world = ledger_fork_world
    joiners = [pid for pid in world.roles.pool if world.procs[pid].chain]
    assert len(joiners) == 5
    parts = {pid: _mutable_parts(proc.chain) for pid, proc in world.procs.items()}
    for pid in joiners:
        for other, ids in parts.items():
            assert other == pid or not parts[pid] & ids, (pid, other)


def test_processes_that_agree_hold_one_object_for_the_block(ledger_fork_world):
    # each decided value is one bytes object per network, whichever process
    # decided it, at whichever height or attempt
    holders = {}
    for proc in ledger_fork_world.procs.values():
        for block in proc.chain:
            holders.setdefault(block["block"], []).append(block["block"])
    agreed = [blocks for blocks in holders.values() if len(blocks) > 1]
    assert len(agreed) >= 6
    assert all(len(set(map(id, blocks))) == 1 for blocks in agreed)
