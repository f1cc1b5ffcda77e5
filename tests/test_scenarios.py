"""Scenario descriptions, role layout, and whole-run invariants."""

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbft import scenarios
from accbft.committee import FaultProfile, threshold_tolerated
from accbft.crypto import CHAN_BCAST, GROUP_MAIN, Kind, make_message
from accbft.ledger import (
    Block,
    Transaction,
    TxOutput,
    decode_block,
    sign_tx,
    tx_valid,
    within_gain_cap,
)
from accbft.scenarios import (
    _MAX_DEPOSIT_FACTOR,
    _REQUIRED,
    RECORD_SCHEMA,
    SCHEMA,
    Field,
    Scenario,
    ScenarioError,
    World,
    agreement_scenario,
    assign_roles,
    canonical_record,
    clean_scenario,
    complexity_scenario,
    fork_scenario,
    llb_scenario,
    load_scenario,
    resolve_h_prime,
    run_scenario,
    scenario_from_dict,
    spam_scenario,
    tolerated_profiles,
    validate_scenario,
)

MINIMAL = {
    "name": "x",
    "n": 4,
    "t": 0,
    "d": 0,
    "q": 0,
    "delta_ms": 10,
    "gst_ms": 0,
    "horizon_ms": 1_000,
}


def problems_of(raw):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    return err.value.problems


def test_missing_required_fields_are_each_reported():
    problems = problems_of({"name": "x"})
    for field in ("n", "t", "d", "q", "delta_ms", "gst_ms", "horizon_ms"):
        assert "%s: required field missing" % field in problems


def test_unknown_field_is_rejected():
    assert problems_of({**MINIMAL, "typo": 1}) == ["typo: unknown field"]


def test_fault_counts_must_fit():
    assert "t+d+q: fault counts exceed n" in problems_of({**MINIMAL, "t": 3, "d": 2})


def test_threshold_fields_are_checked():
    assert "h0: must satisfy n/2 < h0 <= n" in problems_of({**MINIMAL, "h0": 2})
    assert "h0: must satisfy n/2 < h0 <= n" in problems_of({**MINIMAL, "h0": 5})
    preset = (
        "h_prime0: must be one of ('eventual-consensus', 'consensus',"
        " 'awareness-optimal') or satisfy n/2 < h' <= n"
    )
    assert preset in problems_of({**MINIMAL, "h_prime0": "optimistic"})
    assert preset in problems_of({**MINIMAL, "h_prime0": 2})


def test_alpha_is_checked():
    for alpha in ("3/4", "often"):
        assert problems_of({**MINIMAL, "alpha": alpha}) == [
            "alpha: must be a non-negative ratio, at most 2/3"
        ]


def test_partition_membership_is_checked():
    raw = {**MINIMAL, "d": 1, "partitions": [[1], [2]]}
    assert any("pid 1 is deceitful" in p for p in problems_of(raw))
    raw = {**MINIMAL, "partitions": [[2, 9], [3]]}
    assert any("pid 9 out of range" in p for p in problems_of(raw))
    raw = {**MINIMAL, "partitions": [[2], [2]]}
    assert any("pid 2 listed twice" in p for p in problems_of(raw))


def test_attack_needs_a_coalition_and_an_audience():
    raw = {**MINIMAL, "d": 1, "attack": {"kind": "broadcast-fork"}}
    assert "attack: requires >= 2 partitions to play against" in problems_of(raw)
    raw = {**MINIMAL, "attack": {"kind": "rollback"}}
    problems = problems_of(raw)
    assert any(p.startswith("attack.kind:") for p in problems)
    assert "attack: requires d >= 1" in problems
    raw = {
        **MINIMAL, "d": 1,
        "partitions": [[2], [3]],
        "attack": {"kind": "binary-fork", "targets": 0},
    }
    assert "attack.targets: binary-fork needs at least one target" in problems_of(raw)


def test_behavior_specs_are_checked():
    assert any(
        p.startswith("benign.kind:")
        for p in problems_of({**MINIMAL, "q": 1, "benign": {"kind": "sleepy"}})
    )
    bad = problems_of({**MINIMAL, "t": 1, "byzantine": {"garble_p": 0.8, "drop_p": 0.5}})
    assert any(p.startswith("byzantine:") for p in bad)


def test_delay_specs_are_checked():
    bad = problems_of({**MINIMAL, "delay": {"model": "uniform", "lo_ms": 5}})
    assert bad == ["delay: uniform needs integers 0 <= lo_ms <= hi_ms <= 1000000000"]
    bad = problems_of({**MINIMAL, "delay": {"model": "quantum"}})
    assert bad == ["delay.model: must be one of ('uniform', 'gamma', 'trace')"]


def test_load_scenario_reports_json_problems(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.problems[0].startswith("json:")
    path.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="top level must be an object"):
        load_scenario(path)
    # neither bytes that are not UTF-8 nor nesting past the parser's depth
    # escapes as a traceback
    for text in (b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000):
        path.write_bytes(text)
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems[0].startswith("json:")


def test_load_scenario_round_trips_through_json(tmp_path):
    scn = fork_scenario("binary-fork", payload="ledger")
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn.to_dict()))
    assert load_scenario(path) == scn


@pytest.mark.parametrize(
    "scn",
    [
        clean_scenario(4, heights=2, alpha="4/9"),
        agreement_scenario(7, 1, 1, 1),
        spam_scenario(),
        fork_scenario("broadcast-fork"),
        fork_scenario("binary-fork", payload="ledger"),
        llb_scenario(),
        complexity_scenario(10),
    ],
    ids=lambda s: s.name,
)
def test_builtin_scenarios_validate_and_round_trip(scn):
    assert validate_scenario(scn) == []
    assert scenario_from_dict(scn.to_dict()) == scn


_ROOT = Path(__file__).resolve().parent.parent


def _readme_example():
    """The JSON example in the README's "Scenario files" section."""
    section = (_ROOT / "README.md").read_text().split("## Scenario files", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize(
    "source",
    sorted((_ROOT / "scenarios").glob("*.json")) + ["README"],
    ids=lambda source: getattr(source, "stem", source),
)
def test_stock_scenarios_load_and_build(source):
    if source == "README":
        scn = scenario_from_dict(_readme_example())
    else:
        scn = load_scenario(source)
    world = World(scn, 1)
    assert set(world.members) <= set(world.net.hosts)


def _readme_table():
    """The README's field table, rendered from the schema: one row per field
    and per key of an object field, with the rule its diagnostic states."""
    rows = ["| field | type | default | rule |", "| --- | --- | --- | --- |"]

    def row(label, spec, default, required):
        if required:
            text = "required"
        elif default is not None:
            text = "`%s`" % json.dumps(default)
        else:
            text = spec.note
        rows.append("| %s | %s | %s | %s |" % (label, spec.kind, text, spec.rule()))

    for f in dataclasses.fields(Scenario):
        spec = SCHEMA[f.name]
        default = f.default
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        row("`%s`" % f.name, spec, spec.default if default is None else default,
            f.name in _REQUIRED)
        keys = [("", spec.keys or {})]
        keys += [(" (%s)" % name, model.keys) for name, model in (spec.models or {}).items()]
        for model, subs in keys:
            for key, sub in subs.items():
                row("`%s.%s`%s" % (f.name, key, model), sub, sub.default, sub.required)
    return rows


def test_readme_field_table_matches_the_schema():
    assert list(SCHEMA) == [f.name for f in dataclasses.fields(Scenario)]
    readme = (_ROOT / "README.md").read_text()
    start = readme.index(_readme_table()[0])
    assert readme[start:readme.index("\n\n", start)] == "\n".join(_readme_table())


def test_assign_roles_layout():
    scn = Scenario(
        name="layout", n=6, t=1, d=2, q=1,
        delta_ms=10, gst_ms=0, horizon_ms=1_000, pool=2,
    )
    roles = assign_roles(scn)
    assert roles.deceitful == (1, 2)
    assert roles.byzantine == (3,)
    assert roles.benign == (4,)
    assert roles.honest == (5, 6)
    assert roles.pool == (7, 8)


def test_resolve_h_prime():
    assert resolve_h_prime("consensus", 9) == 7
    assert resolve_h_prime("awareness-optimal", 9) == 8
    assert resolve_h_prime(6, 9) == 6


def test_tolerated_profiles_match_the_predicate():
    got = set(tolerated_profiles(4))
    want = set()
    for t in range(5):
        for d in range(5):
            for q in range(5):
                if t + d + q <= 4 and d + t < 2 and q + t <= 1:
                    want.add((t, d, q))
    assert got == want
    for t, d, q in got:
        p = FaultProfile(n=4, t=t, d=d, q=q)
        assert threshold_tolerated(p, 3) == (True, True)


def test_same_seed_reproduces_the_record_byte_for_byte():
    scn = clean_scenario(4)
    a = canonical_record(run_scenario(scn, 3).record)
    b = canonical_record(run_scenario(scn, 3).record)
    assert a == b
    c = canonical_record(run_scenario(scn, 4).record)
    assert c != a


def test_clean_run_record_invariants(clean_record):
    assert clean_record["schema"] == RECORD_SCHEMA == 1
    assert clean_record["stop_reason"] == "quiescent"
    assert clean_record["failures"] == {}
    assert clean_record["disagreements"] == 0
    assert clean_record["agreed_heights"] == clean_record["heights_target"] == 2
    assert clean_record["branches_max"] == 1
    assert len(set(clean_record["chain_digests"].values())) == 1
    assert set(clean_record["phases"].values()) == {"done"}


def test_trace_capture_is_opt_in():
    scn = clean_scenario(4)
    plain = run_scenario(scn, 1)
    assert plain.world.net.trace is None
    traced = run_scenario(scn, 1, trace=True)
    events = traced.world.net.trace
    assert events and {"t", "ev", "from", "to", "at"} <= set(events[0])


# canonical_record digests for seed 1, taken before quorum counting became
# incremental; any refactor of the consensus core must reproduce them.  The
# llb entry runs detect -> exclude -> include -> catch-up, so it also pins
# which messages and timers a stopped context still acts on.
GOLDEN_RECORDS = {
    "clean-n4-h2": "780487c3a5d1c95a7f1897e6c2c306f3edd312265a48e91af3ad3c5476075198",
    "fork-binary-ledger-n9": "887141efebabd6cfd5a3e4bdbcb6d24f6ad2162bbb8f46398e0f7d31e00c31b4",
    "llb-n9-h4": "d0ee5d00202926dab9ece1c5128345d78ba7325a084919ceed15b39489da12cf",
}


def test_golden_records_are_unchanged(clean_record):
    path = Path(__file__).resolve().parent.parent / "scenarios" / "fork-binary-ledger-n9.json"
    fork_record = run_scenario(load_scenario(path), 1).record
    llb_record = run_scenario(llb_scenario(heights=4), 1).record
    got = {
        name: hashlib.sha256(canonical_record(rec).encode()).hexdigest()
        for name, rec in (
            ("clean-n4-h2", clean_record),
            ("fork-binary-ledger-n9", fork_record),
            ("llb-n9-h4", llb_record),
        )
    }
    assert got == GOLDEN_RECORDS


# Prints the canonical_record sha256 of one stock scenario file and seed.
_RECORD_SHA256 = """
import hashlib, sys
from accbft.scenarios import canonical_record, load_scenario, run_scenario
record = run_scenario(load_scenario(sys.argv[1]), int(sys.argv[2])).record
print(hashlib.sha256(canonical_record(record).encode()).hexdigest())
"""


@pytest.mark.parametrize(("name", "seed"), [("fork-binary-ledger-n9", 2), ("spam-n4", 3)])
def test_records_do_not_depend_on_the_hash_seed(name, seed):
    path = _ROOT / "scenarios" / (name + ".json")
    digests = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(_ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", _RECORD_SHA256, str(path), str(seed)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64


# sha256 of the send trace (one JSON line per frame, as `accbft run --trace`
# writes it) for seed 1, taken before the event queue became a calendar and
# sends resolved per link.  It pins each frame's recipients in order, its
# delivery tick and so every delay draw, and which frames a send filter
# dropped (agreement-n7 has benign and byzantine senders; the fork file has
# attacker pids, read at zero delay).  The gamma and trace variants pin the
# other two delay models.  spam-n4 and llb-n9-h4 pin a broadcast-fork
# coalition (the fork file's is a binary-fork one): what each shadow sends to
# its camp's audience, taken before shadows became a NodeCore subclass.
_TRACE_DELAYS = {
    "gamma": {"model": "gamma", "scale_ms": 2, "shape": 2.0},
    "trace": {
        "model": "trace",
        "regions": ["eu", "us"],
        "table": [["eu", "us", 40], ["eu", "eu", 5], ["us", "us", 7]],
        "jitter_ms": 3,
    },
}
GOLDEN_TRACES = {
    "clean-n4-h2": "f2efe11981e1b71ebd5d2113b94a36710c934a6ce5fc118f5fb51ff277d55933",
    "fork-binary-ledger-n9": "1e5c19caa76cb091952e55df1894d28a3c79228e9b61e01e619982d41a3fb51f",
    "agreement-n7": "6283aca1508b5cfb1aaa05d8064cc2340324e39966c943dc6b6265997a375c1b",
    "clean-n4-gamma": "3d747c522822234dff4152d9bee54063a6b0b7a057e72210366b892ded7f8cb1",
    "clean-n4-trace": "dce381a98f5ed68814541d8050f967fe3c5db8d63a4da86a20a32b67468d7639",
    "spam-n4": "67491362d316dd1e4abba56e51a8fded1b31fc5207b1e4dee3eab2603d4e5e6e",
    "llb-n9-h4": "af4c7f125d4e7da5b5c06df6fc8f73bb0f836ebf520aab026a0b7dec86d2dabc",
}


def test_golden_send_traces_are_unchanged():
    files = Path(__file__).resolve().parent.parent / "scenarios"
    cases = {
        "clean-n4-h2": clean_scenario(4),
        "fork-binary-ledger-n9": load_scenario(files / "fork-binary-ledger-n9.json"),
        "agreement-n7": load_scenario(files / "agreement-n7.json"),
        "spam-n4": load_scenario(files / "spam-n4.json"),
        "llb-n9-h4": llb_scenario(heights=4),
    }
    for model, delay in _TRACE_DELAYS.items():
        cases["clean-n4-" + model] = dataclasses.replace(clean_scenario(4), delay=delay)
    got = {}
    for name, scn in cases.items():
        events = run_scenario(scn, 1, trace=True).world.net.trace
        text = "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN_TRACES


class _ShadowNet:
    """The network as one shadow core sees it: sends and timers are logged
    under the shadow's (camp, pid) key, then passed on."""

    def __init__(self, net, shadow, sends, armed):
        self._net, self._shadow, self._sends, self._armed = net, shadow, sends, armed

    def __getattr__(self, name):
        return getattr(self._net, name)

    def send(self, src, dsts, msg):
        dsts = sorted(dsts)
        self._sends.append((self._shadow, src, dsts, msg))
        self._net.send(src, dsts, msg)

    def arm_timer(self, pid, key, delay):
        self._armed.setdefault(key, set()).add(self._shadow)
        self._net.arm_timer(pid, key, delay)


# binary-fork shadows live past their first timers; the llb coalition retires
# before any of its timers fires, but it is sent fraud evidence first
@pytest.mark.parametrize(
    ("scn", "covers"),
    [(fork_scenario("binary-fork"), "timers"), (llb_scenario(heights=4), "evidence")],
    ids=["binary-fork", "llb-h4"],
)
def test_shadows_stay_in_their_camp(scn, covers):
    """A shadow's frames reach only honest pids of its camp, its sibling
    hand-offs stay in the camp, it never passes on fraud evidence, and each
    of its timers that fires before the coalition retires reaches it."""
    world = World(scn, 1)
    brain = world.brain
    honest = set(world.roles.honest)
    sends, armed, handoffs, fired, checked, evidence = [], {}, [], [], [], []
    cores = {shadow: proc.core for shadow, proc in brain.shadows.items()}

    def timer_of(shadow, on_timer):
        def wrapped(key):
            fired.append((shadow, key))
            on_timer(key)

        return wrapped

    for shadow, core in cores.items():
        core.net = _ShadowNet(world.net, shadow, sends, armed)
        core.on_timer = timer_of(shadow, core.on_timer)
    fanout = brain.sibling_fanout

    def sibling_fanout(camp, dsts, msg):
        # a shadow hands a frame to its siblings right after sending it
        shadow, _src, _dsts, sent = sends[-1]
        assert sent is msg and camp == shadow[0]
        handoffs.append((camp, msg))
        fanout(camp, dsts, msg)

    brain.sibling_fanout = sibling_fanout
    on_timer = brain.on_timer

    def brain_timer(key):
        early = world.net.now < brain.retire_at
        before = len(fired)
        on_timer(key)
        if early:
            (shadow,) = armed[key]
            assert fired[before:] == [(shadow, key[1])]
            checked.append(key)

    brain.on_timer = brain_timer
    deliver = brain.deliver_frame

    def brain_frame(src, msg):
        if msg.kind == Kind.POF_LIST and world.net.now < brain.retire_at:
            evidence.append(msg)
        deliver(src, msg)

    brain.deliver_frame = brain_frame
    world.start()
    assert world.net.run() == "quiescent"

    assert sends and handoffs and {"timers": checked, "evidence": evidence}[covers]
    for (camp, pid), src, dsts, msg in sends:
        assert src == pid
        assert set(dsts) <= honest & set(brain.camps[camp])
        assert msg.kind != Kind.POF_LIST
    assert len(handoffs) == len(sends)


def ledger_fork_shape(heights):
    """The benchmark's ledger workload at a chosen chain length."""
    return dataclasses.replace(
        fork_scenario("binary-fork", payload="ledger"),
        heights=heights,
        pool=5,
        txs_per_block=16,
        deposit={"gain_cap": 1600, "factor": "0.1", "blockdepth": 28},
        alpha="4/9",
        horizon_ms=600_000,
    )


@pytest.mark.xfail(strict=True, reason="membership repair stalls on a stale proposer snapshot")
def test_ledger_fork_seed_37_finishes_every_height():
    """Known liveness defect: on this seed honest process 6 never finishes.

    ``MultiContext.proposers`` is ``committee.members`` at the moment the
    context is built, and each process builds its exclusion context when its
    own proof count crosses the trigger, so the snapshots differ.  Here
    process 6 built its exclusion context with proposers (2, 6, 7, 8, 9),
    process 7 with (6, 7, 8, 9), and processes 8 and 9 with (3, 6, 7, 8, 9).
    Nobody else runs a vote on proposer 2, so process 6's vote on it never
    ends, its exclusion vote never decides, and it stays at height 2 while
    processes 7-9 repair the committee and decide all 40 heights.  The run
    ends at the horizon.  Fixing it changes the protocol (the proposer set
    has to be agreed, not snapshotted).
    """
    scn = ledger_fork_shape(40)
    record = run_scenario(scn, 37).record
    assert record["heights_done"] == {
        pid: scn.heights for pid in record["heights_done"]
    }


# -- the shared block table ------------------------------------------------------


def inline_block_check(world, proc, src, value):
    """The per-process validator as it was before the shared table."""
    try:
        blk = decode_block(value)
    except ValueError:
        return False
    if blk.proposer != src or blk.height != proc.height + 1:
        return False
    if not within_gain_cap(blk, world.policy):
        return False
    return all(tx_valid(world.registry, tx) for tx in blk.txs)


def test_block_validator_matches_the_inline_check():
    world = World(fork_scenario("binary-fork", payload="ledger"), 1)
    low, high = (world.procs[p] for p in world.roles.honest[:2])
    high.height = 3
    src = low.core.pid
    propose = world.make_proposal_fn(src, world.ledgers[src])
    good = decode_block(propose(0))
    assert good.txs
    forged_tx = dataclasses.replace(
        good.txs[0], signature=bytes([good.txs[0].signature[0] ^ 1]) + good.txs[0].signature[1:]
    )
    rich = sign_tx(
        world.registry, Transaction(src, 0, (), (TxOutput(src, world.policy.gain_cap + 1),))
    )
    cases = [
        (src, good.encoding()),
        (src, propose(3)),
        (src, good.encoding()[:-1]),
        (src, good.encoding() + b"\x00"),
        (src, Block(1, good.parent, src, (rich,)).encoding()),
        (src, Block(1, good.parent, src, (forged_tx,) + good.txs[1:]).encoding()),
        (high.core.pid, good.encoding()),
        (src, Block(7, good.parent, src, good.txs).encoding()),
        (src, b""),
        (src, bytes(40) + b"\xff" * 4),
    ]
    validators = [(low, world._block_validator(low)), (high, world._block_validator(high))]
    verdicts = []
    for _lookup in ("first", "cached"):
        for sender, blob in cases:
            for proc, valid in validators:
                want = inline_block_check(world, proc, sender, blob)
                assert valid(sender, blob) is want
                verdicts.append(want)
    # the valid blob at each height passes only for the process at that height
    assert verdicts[:4] == [True, False, False, True]
    assert verdicts.count(True) == 4


def test_block_table_stays_bounded_as_heights_grow():
    peaks = {}
    for heights in (10, 40):
        world = World(ledger_fork_shape(heights), 1)
        peak = 0
        age = world._age_blocks

        def tracked():
            nonlocal peak
            peak = max(peak, len(world._blocks) + len(world._blocks_old))
            age()

        world._age_blocks = tracked
        world.start()
        world.net.run(20_000_000)
        peaks[heights] = max(peak, len(world._blocks) + len(world._blocks_old))
        assert min(world.procs[p].height for p in world.roles.honest) == heights
    # about three heights of proposals; a table that kept every blob would
    # hold some 100 at 10 heights and 380 at 40
    assert max(peaks.values()) <= 64, peaks


def _ledger_state(ledger):
    return (ledger.deposit, ledger.inputs_deposit, ledger.punished, ledger.txs,
            ledger.utxos, ledger.blocks)


def test_reconciliation_streams_one_decoded_block_at_a_time(monkeypatch):
    world = World(ledger_fork_shape(10), 1)
    world.start()
    world.net.run(20_000_000)
    # every replica must end as if it punished its accused, then merged every
    # distinct decided block in blob order on its own
    blobs = sorted(
        {b for p in world.roles.honest for rec in world.procs[p].chain
         for b in world._decision_blocks(rec["block"])}
    )
    want = {}
    for pid in world.roles.honest:
        ledger = copy.deepcopy(world.ledgers[pid])
        for accused in sorted({p.accused for p in world.procs[pid].pofs.values()}):
            ledger.punish_account(accused)
        for blob in blobs:
            ledger.merge_block(decode_block(blob))
        want[pid] = _ledger_state(ledger)

    decoded = []

    def decode(blob):
        assert all(ref() is None for ref in decoded), "an earlier block is still alive"
        block = decode_block(blob)
        decoded.append(weakref.ref(block))
        return block

    monkeypatch.setattr(scenarios, "decode_block", decode)
    world.reconcile_ledgers()
    assert len(decoded) == len(blobs) > 10
    assert {pid: _ledger_state(world.ledgers[pid]) for pid in world.roles.honest} == want


# -- fuzzed scenario files -----------------------------------------------------

# Near-miss scenario files: a few fields of a stock scenario replaced by values
# drawn from the schema (each field's valid range, its bounds' near misses,
# huge and non-finite numbers, the wrong type, objects with that object's
# keys) or by arbitrary JSON, and objects merged key by key.
_WORDS = (
    "uniform", "gamma", "trace", "broadcast-fork", "binary-fork", "crash_at",
    "omit_fraction", "stale", "ledger", "tokens", "consensus", "min-index",
    "superblock", "4/9", "0.1", "1/0", "eu", "us", "",
)
# every number may also be huge or non-finite, as JSON files can carry
_HUGE = st.sampled_from([1e306, 10**400, float("inf"), float("-inf"), float("nan")])
# ratios are also read from strings
_HUGE_RATIO = st.sampled_from(["1e400", "10" + "0" * 400 + "/3", "1001", "-1/3"])
_INT = st.one_of(st.integers(min_value=-3, max_value=40), _HUGE)
_NUM = st.one_of(_INT, st.floats(min_value=-1.5, max_value=40.5))
_WORD = st.sampled_from(_WORDS)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUM, _WORD),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(_WORD, kids, max_size=3)
    ),
    max_leaves=6,
)


def _some_of(shapes: dict):
    """An object holding up to three of the keys in ``shapes``."""
    return st.lists(st.sampled_from(sorted(shapes)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries(
            {k: st.one_of(shapes[k], shapes[k], _JSON) for k in keys}
        )
    )


# A value of the wrong type for most fields.
_WRONG = st.sampled_from([True, False, "1", [1], {"k": 1}])
# Names that must not become the stem of an output path.
_BAD_NAMES = st.sampled_from(["", "../escaped", "sub/dir", ".hidden", "x" * 129])


def _valid(spec):
    """Values that pass the schema check of one field."""
    kind, lo, hi = spec.kind, spec.lo, spec.hi
    if kind == "object":
        return _objects(spec, _valid)
    if kind == "list" and not isinstance(spec.item, Field):
        return st.tuples(*map(_valid, spec.item)).map(list)
    if kind == "list":
        return st.lists(_valid(spec.item), min_size=lo or 0, max_size=4)
    if kind == "str" and spec.pattern == Field("str").pattern:
        # any string fits: draw a few, so a trace's regions and table share names
        return st.sampled_from(["eu", "us"])
    if kind == "str":
        return st.from_regex(spec.pattern, fullmatch=True)
    if kind == "enum" and hi is not None:
        return st.one_of(st.sampled_from(spec.choices), st.integers(lo, hi))
    if kind == "enum":
        return st.sampled_from(spec.choices)
    if kind == "int":
        # small values only: a large n or pool builds a large world
        return st.integers(-3, 40) if hi is None else st.integers(lo, min(hi, lo + 40))
    if kind == "num":
        return st.floats(lo, hi, exclude_min=spec.open_lo)
    return st.one_of(st.fractions(lo, hi).map(str), st.floats(lo, float(hi)))


def _values(spec):
    """Values for one field: valid ones, each bound's near miss, huge and
    non-finite numbers, and values of the wrong type."""
    kind, lo, hi, item = spec.kind, spec.lo, spec.hi, spec.item
    if kind == "object":
        return st.one_of(_valid(spec), _objects(spec, _values), _WRONG)
    if kind == "list":
        row = not isinstance(item, Field)
        items = st.tuples(*map(_values, item)).map(list) if row else _values(item)
        return st.one_of(_valid(spec), st.lists(items, max_size=4), _WRONG)
    if kind == "str":
        return st.one_of(_valid(spec), _WORD, _BAD_NAMES, _INT)
    if kind == "enum":
        return st.one_of(_valid(spec), _WORD, _WRONG)
    if hi is None:
        near = _HUGE
    elif kind == "num":
        below = st.floats(lo - 1, lo, exclude_max=not spec.open_lo)
        near = st.one_of(below, st.floats(hi, hi + 1, exclude_min=True))
    elif kind == "ratio":
        near = st.one_of(st.sampled_from([str(lo - 1), str(hi + 1)]), _HUGE_RATIO, _WORD)
    else:
        near = st.sampled_from([lo - 1, hi + 1])
    return st.one_of(_valid(spec), near, _HUGE, _WRONG)


def _objects(spec, values):
    """Objects for an object field, with values drawn by ``values``: every
    required key and some others, or (for ``_values``) that plus a stray key,
    or up to three keys of any kind.  A delay draws one model's keys."""
    if spec.models is None:
        shapes = [(spec.keys, {})]
    else:
        shapes = [(m.keys, {"model": st.just(name)}) for name, m in spec.models.items()]
    drawn = []
    for keys, fixed in shapes:
        each = {k: values(f) for k, f in keys.items()}
        required = {k: v for k, v in each.items() if keys[k].required}
        optional = {k: v for k, v in each.items() if k not in required}
        full = st.fixed_dictionaries({**fixed, **required}, optional=optional)
        drawn.append(full)
        if values is _values:
            drawn += [full.map(lambda obj: {**obj, "typo": 1}), _some_of(each)]
    return st.one_of(drawn)


_OVERRIDES = _some_of({**{key: _values(spec) for key, spec in SCHEMA.items()}, "typo": _INT})
_BASES = (
    clean_scenario(4).to_dict(),
    spam_scenario().to_dict(),
    fork_scenario("binary-fork", payload="ledger").to_dict(),
)


def _merged(base, over):
    """``over`` laid on ``base``: objects merge key by key, anything else wins."""
    if isinstance(base, dict) and isinstance(over, dict):
        out = dict(base)
        for key, value in over.items():
            out[key] = _merged(base.get(key), value)
        return out
    return over


def _parse_or_diagnose(raw):
    """A scenario file either fails with diagnostics, or builds the network,
    processes and adversary, with a bounded deposit pool, and sends one frame
    over every link (it never runs)."""
    try:
        scn = scenario_from_dict(raw)
    except ScenarioError as err:
        assert err.problems
        return
    assert isinstance(scn, Scenario)
    world = World(scn, 1)
    if world.policy is not None:
        assert world.policy.pool_target <= _MAX_DEPOSIT_FACTOR * world.policy.gain_cap
    net = world.net
    msg = make_message(world.registry, 1, Kind.INIT, (0, 0, GROUP_MAIN, CHAN_BCAST, 1), 1, 0, b"")
    for src in net.hosts:
        net.send(src, net.hosts, msg)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_BASES), _OVERRIDES)
def test_fuzzed_scenarios_parse_or_fail_with_diagnostics(base, over):
    _parse_or_diagnose(_merged(base, over))


# Whole delay objects of each model, with its own fields only, so the
# model-specific number checks are reached: a near-miss merged into a base's
# uniform delay keeps lo_ms and hi_ms, and stops at the unknown-field check.
@settings(max_examples=200, deadline=None)
@given(_values(SCHEMA["delay"]), st.sampled_from(["delay", "cross_delay"]))
def test_fuzzed_delay_models_parse_or_fail_with_diagnostics(delay, field):
    _parse_or_diagnose({**fork_scenario("binary-fork").to_dict(), field: delay})
