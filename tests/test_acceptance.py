"""Acceptance battery: the eleven end-to-end guarantees, one test each.

Every test prints a single PASS line with its headline numbers (run pytest
with -s to watch them stream).  The whole battery takes about five minutes
on one core; the message-growth sweep dominates.  Criteria 02, 08 and 10
are marked slow.
"""

import random
import time
from fractions import Fraction

import pytest

from accbft.analysis import (
    ZeroLossParams,
    alpha_confirm_threshold,
    blockdepth_reference_rows,
    conservative_branches,
    deposit_flux,
    max_branches,
    min_blockdepth,
)
from accbft.committee import (
    FaultProfile,
    consensus_tolerated,
    threshold_tolerated,
)
from accbft.crypto import KeyRegistry
from accbft.harness import (
    complexity_means,
    pick_profile,
    record_to_row,
    write_csv,
)
from accbft.ledger import (
    Block,
    GENESIS_PARENT,
    double_spend_pair,
    make_genesis,
    synthetic_transactions,
)
from accbft.scenarios import (
    agreement_scenario,
    canonical_record,
    clean_scenario,
    fork_scenario,
    llb_scenario,
    run_scenario,
    spam_scenario,
)

SEEDS_100 = range(1, 101)


# ---------------------------------------------------------------------------
# independent oracles, kept deliberately separate from the library routes
# ---------------------------------------------------------------------------


def integer_partitions(total):
    """All multisets of positive integers summing to ``total``."""

    def rec(rem, cap):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    return rec(total, total) if total else iter([()])

def partition_oracle(n, h, dt):
    """Most branches dt equivocators can sustain: seat the n-dt loyal voters
    into groups and count groups that still clear the h-vote bar with the
    equivocators voting everywhere."""
    need = h - dt
    best = 0
    for part in integer_partitions(n - dt):
        best = max(best, sum(1 for p in part if p >= need))
    return max(1, best)


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
def spam_records():
    scn = spam_scenario()
    return [run_scenario(scn, seed).record for seed in SEEDS_100]


@pytest.fixture(scope="module")
def fork_records():
    return {
        kind: [run_scenario(fork_scenario(kind), seed).record for seed in SEEDS_100]
        for kind in ("broadcast-fork", "binary-fork")
    }


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_criterion_01_tolerance_frontier_equivalence():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 13):
        for t in range(n + 1):
            for d in range(n + 1 - t):
                for q in range(n + 1 - t - d):
                    profile = FaultProfile(n, t, d, q)
                    closed = consensus_tolerated(profile)
                    search = any(
                        threshold_tolerated(profile, h) == (True, True)
                        for h in range(n // 2 + 1, n + 1)
                    )
                    assert closed == search, (n, t, d, q)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        "PASS criterion-01: %d profiles, closed form == threshold search, %.2fs"
        % (checked, elapsed)
    )


@pytest.mark.slow
def test_criterion_02_agreement_under_tolerated_faults():
    started = time.perf_counter()
    runs = 0
    for n in (4, 7, 10):
        for seed in range(1, 201):
            t, d, q = pick_profile(n, seed)
            rec = run_scenario(agreement_scenario(n, t, d, q), seed).record
            assert rec["disagreements"] == 0, (n, seed, t, d, q)
            assert rec["failures"] == {}, (n, seed, t, d, q)
            done = rec["heights_done"]
            assert done and min(done.values()) >= rec["heights_target"], (n, seed)
            runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        "PASS criterion-02: %d runs, 0 disagreements, all honest done, %.1fs"
        % (runs, elapsed)
    )


def test_criterion_03_spammer_excluded_exactly_once(spam_records):
    for rec in spam_records:
        assert rec["failures"] == {}
        assert set(rec["phases"].values()) == {"done"}
        assert rec["committee_excluded"] == {"3": [1], "4": [1]}
        done = rec["heights_done"]
        assert set(done) == {"3", "4"}
        assert min(done.values()) >= rec["heights_target"]
    print(
        "PASS criterion-03: %d/%d seeds terminate for both honest after one"
        " exclusion" % (len(spam_records), len(spam_records))
    )


def test_criterion_04_disagreement_leaves_enough_proofs(fork_records):
    forked = {}
    for kind, records in fork_records.items():
        forked[kind] = 0
        for rec in records:
            assert rec["failures"] == {}
            if rec["disagreements"] == 0:
                continue
            forked[kind] += 1
            need = rec["fraud_threshold"]
            assert need == 2 * rec["h0"] - rec["n"]
            for pid in rec["honest"]:
                assert rec["pof_counts"][str(pid)] >= need, (kind, pid)
        assert forked[kind] >= 50, kind
    print(
        "PASS criterion-04: forked runs %s, every honest holds proofs for"
        " >= 2*h0-n ids" % forked
    )


def test_criterion_05_branch_bound(spam_records, fork_records):
    attack_runs = spam_records + [
        rec for records in fork_records.values() for rec in records
    ]
    for rec in attack_runs:
        bound = max_branches(rec["n"], rec["h0"], rec["d"] + rec["t"])
        assert rec["branches_max"] <= bound
    checked = 0
    for n in range(1, 13):
        for h in range(n // 2 + 1, n + 1):
            for dt in range(h):
                assert max_branches(n, h, dt) == partition_oracle(n, h, dt)
                checked += 1
    print(
        "PASS criterion-05: %d attack runs within bound; oracle match on %d"
        " (n,h,d+t) points" % (len(attack_runs), checked)
    )


def test_criterion_06_alpha_confirmation_thresholds():
    assert alpha_confirm_threshold(9, 6, Fraction(4, 9)) == 8
    assert alpha_confirm_threshold(9, 6, Fraction(2, 3)) == 9
    rec = run_scenario(clean_scenario(9, alpha="4/9"), 1).record
    assert set(rec["confirm"].values()) == {"confirmed"}
    assert rec["disagreements"] == 0
    print("PASS criterion-06: n=9 h=6 confirm needs 8 certs at alpha=4/9, 9 at 2/3")


def test_criterion_07_finalization_depths():
    for ratio, want in (("0.5", 28), ("0.6", 37), ("0.64", 46)):
        assert min_blockdepth(conservative_branches(ratio), "0.1", "0.9") == want
    assert conservative_branches("0.66") == 51
    assert min_blockdepth(51, "0.1", "0.9") == 59
    assert min_blockdepth(3, "0.1", "0.55") == 5
    for row in blockdepth_reference_rows():
        a, b, rho = row["branches"], row["deposit_factor"], row["attack_success"]
        w = row["computed_blockdepth"]
        assert deposit_flux(ZeroLossParams(a, b, rho, w)) >= 0
        assert deposit_flux(ZeroLossParams(a, b, rho, w - 1)) < 0
    off = {
        (row["branches"], row["attack_success"]): (
            row["quoted_blockdepth"],
            row["computed_blockdepth"],
        )
        for row in blockdepth_reference_rows()
        if not row["matches"]
    }
    assert off == {(51, "0.9"): (58, 59), (3, "0.55"): (4, 5)}
    print(
        "PASS criterion-07: depths 28/37/46 reproduced, flux flips at each w,"
        " quoted 58 and 4 kept as documented discrepancies (59 and 5)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="quoted depth for 51 branches at attack success 0.9 is 58, but the"
    " flux recurrence needs 59; blockdepth_reference_rows records both sides",
)
def test_criterion_07_quoted_depth_for_51_branches():
    assert min_blockdepth(51, "0.1", "0.9") == 58


@pytest.mark.slow
def test_criterion_08_membership_convergence():
    scn = llb_scenario()
    for seed in range(1, 6):
        rec = run_scenario(scn, seed).record
        assert rec["failures"] == {}, seed
        assert max(rec["membership_changes"].values(), default=0) <= 3, seed
        assert rec["agreed_tail"] >= 100, seed
        ratios = [Fraction(r) for _, r in rec["ratio_trajectory"]]
        assert all(a >= b for a, b in zip(ratios, ratios[1:])), seed
    print(
        "PASS criterion-08: 5/5 seeds converge within <= 3 changes, 100+ agreed"
        " tail, non-increasing deceitful ratio"
    )


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
    means = complexity_means(20)
    elapsed = time.perf_counter() - started
    sizes = sorted(means)
    assert sizes == [4, 10, 20, 40]
    for a, b in zip(sizes, sizes[1:]):
        assert means[b] / means[a] <= (b / a) ** 3, (a, b, means)
    ratio = means[40] / means[20]
    assert 4 <= ratio <= 12, means
    print(
        "PASS criterion-10: per-instance means %s, 40/20 ratio %.2f, %.0fs"
        % ({n: round(m, 1) for n, m in means.items()}, ratio, elapsed)
    )


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
