"""Acceptance battery: the eleven end-to-end guarantees, one test each.

Every test prints a single PASS line with its headline numbers (run pytest
with -s to watch them stream).  Criteria 01-05, 07, 08 and 10 apply the check
functions that `accbft suite` runs, so each bound has one definition in
accbft.harness; criteria 06, 09 and 11 have no suite twin.  The seeded
batches run on one worker process per CPU.  Criteria 02, 08 and 10 run the
longest batches and are marked slow.
"""

import random
import time
from fractions import Fraction

import pytest

from accbft import harness
from accbft.analysis import alpha_confirm_threshold, min_blockdepth
from accbft.crypto import KeyRegistry
from accbft.harness import record_to_row, write_csv
from accbft.ledger import Block, make_genesis, synthetic_transactions
from accbft.scenarios import canonical_record, clean_scenario, fork_scenario, run_scenario
from conftest import double_spend_pair

SEEDS = 100


def passes(criterion, *checks, suffix=""):
    """Assert every (label, ok, detail) check and print the PASS line."""
    for label, ok, detail in checks:
        assert ok, "%s: %s" % (label, detail)
    print(
        "PASS criterion-%s: %s%s"
        % (criterion, "; ".join("%s: %s" % (c[0], c[2]) for c in checks), suffix)
    )


# ---------------------------------------------------------------------------
# the ledger replay oracle, kept deliberately separate from the library route
# ---------------------------------------------------------------------------


def replay(blocks, deposit0):
    """Brute-force ledger replay: one pass per block, dedup by digest,
    shortfalls owed by the deposit until the missing coin shows up."""
    utxos, owed, seen, deposit = {}, {}, set(), deposit0
    for block in blocks:
        for tx in block.txs:
            dg = tx.digest()
            if dg in seen:
                continue
            seen.add(dg)
            for inp in tx.inputs:
                ref = (inp.source, inp.index)
                if ref in utxos:
                    utxos.pop(ref)
                else:
                    owed[ref] = inp.value
                    deposit -= inp.value
            for idx, out in enumerate(tx.outputs):
                utxos[(dg, idx)] = (out.account, out.value)
        for ref in [r for r in owed if r in utxos]:
            utxos.pop(ref)
            deposit += owed.pop(ref)
    return utxos, owed, deposit


def flat(state):
    return (
        {r: (o.account, o.value) for r, o in state.utxos.items()},
        dict(state.inputs_deposit),
        state.deposit,
    )


# ---------------------------------------------------------------------------
# shared run batches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def attack_checks():
    """The attack suite's checks over SEEDS seeds of each attack, by label."""
    return {check[0]: check for check in harness.suite_attack(SEEDS)}


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_criterion_01_tolerance_frontier_equivalence():
    started = time.perf_counter()
    check = harness.check_frontier()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passes("01", check, suffix=", %.2fs" % elapsed)


@pytest.mark.slow
def test_criterion_02_agreement_under_tolerated_faults():
    started = time.perf_counter()
    records = harness.agreement_records(200)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    passes("02", harness.check_agreement(records), suffix=", %.1fs" % elapsed)


def test_criterion_03_spammer_excluded_exactly_once(attack_checks):
    passes("03", attack_checks["spam-terminates-after-one-exclusion"])


def test_criterion_04_disagreement_leaves_enough_proofs(attack_checks):
    passes("04", *(attack_checks["%s-accountability" % k] for k in harness.FORK_KINDS))


def test_criterion_05_branch_bound(attack_checks):
    passes("05", attack_checks["branch-bound-oracle"])


def test_criterion_06_alpha_confirmation_thresholds():
    assert alpha_confirm_threshold(9, 6, Fraction(4, 9)) == 8
    assert alpha_confirm_threshold(9, 6, Fraction(2, 3)) == 9
    rec = run_scenario(clean_scenario(9, alpha="4/9"), 1).record
    assert set(rec["confirm"].values()) == {"confirmed"}
    assert rec["disagreements"] == 0
    print("PASS criterion-06: n=9 h=6 confirm needs 8 certs at alpha=4/9, 9 at 2/3")


def test_criterion_07_finalization_depths():
    passes("07", *harness.suite_zeroloss())


@pytest.mark.xfail(
    strict=True,
    reason="quoted depth for 51 branches at attack success 0.9 is 58, but the"
    " flux recurrence needs 59; blockdepth_reference_rows records both sides",
)
def test_criterion_07_quoted_depth_for_51_branches():
    assert min_blockdepth(51, "0.1", "0.9") == 58


@pytest.mark.slow
def test_criterion_08_membership_convergence():
    passes("08", *harness.suite_membership(5))


def test_criterion_09_fork_merge_matches_replay_oracle():
    registry = KeyRegistry([1, 2, 3, 4])
    shortfalls = 0
    for case in range(1000):
        rng = random.Random(9000 + case)
        deposit0 = rng.choice((0, 50, 200))
        genesis, base = make_genesis(
            {pid: rng.choice((60, 100, 140)) for pid in (1, 2, 3, 4)},
            deposit=deposit0,
        )
        budget = rng.randint(2, 20)
        split = rng.randint(1, budget - 1)
        txs_a = synthetic_transactions(
            registry, base, [1, 2, 3, 4], split, rng, seqs={}, max_value=80
        )
        txs_b = synthetic_transactions(
            registry, base, [1, 2, 3, 4], budget - split, rng, seqs={}, max_value=80
        )
        if case % 3 == 0:
            left, right = double_spend_pair(registry, base, 1, (2, 3), seq=70)
            txs_a.insert(0, left)
            txs_b.insert(0, right)
        blocks_a = [Block(1, genesis.digest(), 1, tuple(txs_a))]
        blocks_b = [Block(1, genesis.digest(), 2, tuple(txs_b))]

        one, other = base.clone(), base.clone()
        for block in blocks_a + blocks_b:
            one.merge_block(block)
        for block in blocks_b + blocks_a:
            other.merge_block(block)

        utxos, owed, deposit = replay([genesis] + blocks_a + blocks_b, deposit0)
        shortfalls += bool(one.inputs_deposit)
        assert flat(one) == flat(other) == (utxos, owed, deposit), case
    assert shortfalls > 300
    print(
        "PASS criterion-09: 1000 fork-merge cases == replay oracle, merge order"
        " immaterial, %d with live deposit claims" % shortfalls
    )


@pytest.mark.slow
def test_criterion_10_message_growth_is_cubic_band():
    started = time.perf_counter()
    means = harness.complexity_means(20)
    elapsed = time.perf_counter() - started
    passes("10", harness.check_complexity(means), suffix=", %.0fs" % elapsed)


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    for scn in (
        clean_scenario(4, heights=2),
        fork_scenario("broadcast-fork", payload="ledger"),
    ):
        first = run_scenario(scn, 7).record
        second = run_scenario(scn, 7).record
        assert canonical_record(first) == canonical_record(second)
        assert record_to_row(first) == record_to_row(second)
        pa = tmp_path / (scn.name + "-a.csv")
        pb = tmp_path / (scn.name + "-b.csv")
        write_csv(pa, [record_to_row(first)])
        write_csv(pb, [record_to_row(second)])
        assert pa.read_bytes() == pb.read_bytes()
    print("PASS criterion-11: same seed -> byte-identical record and CSV row")
