"""The benchmark's three seeded workloads and the pure helpers around them.

Scenarios are built here from the library's public builders; no stock file
under ``scenarios/`` is read.  Everything below ``build`` is plain Python so
the orchestrator can use it without importing the simulator.
"""

from __future__ import annotations

import hashlib
import json

NAMES = ("honest-n30", "attack-llb", "ledger-fork")


def build(name: str):
    """Return the workload's Scenario (imports the simulator)."""
    import dataclasses

    from accbft import clean_scenario, fork_scenario, llb_scenario

    if name == "honest-n30":
        return clean_scenario(30)
    if name == "attack-llb":
        return llb_scenario()
    if name == "ledger-fork":
        return dataclasses.replace(
            fork_scenario("binary-fork", payload="ledger"),
            heights=40,
            pool=5,
            txs_per_block=16,
            deposit={"gain_cap": 1600, "factor": "0.1", "blockdepth": 28},
            alpha="4/9",
            horizon_ms=600_000,
        )
    raise KeyError(name)


def outcome_projection(record: dict) -> dict:
    """The parts of a run record that later observability work keeps stable.

    ``schema`` and any future ``record["metrics"]`` are left out on purpose so
    a record-format bump does not invalidate the pinned digests.
    """
    out = {
        "chain_digests": record["chain_digests"],
        "heights_done": record["heights_done"],
        "agreed_heights": record["agreed_heights"],
        "disagreements": record["disagreements"],
        "branches_by_height": record["branches_by_height"],
        "final_members": record["final_members"],
        "excluded_members": record["excluded_members"],
        "by_channel": record["messages"]["by_channel"],
    }
    if "deposit" in record:
        out["deposit_final"] = record["deposit"]["final"]
    return out


def outcome_digest(record: dict) -> str:
    blob = json.dumps(outcome_projection(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record_problems(record: dict) -> list[str]:
    """Run-level conditions every workload must meet, pinned or not."""
    bad = []
    if record["stop_reason"] != "quiescent":
        bad.append("stop_reason is %r, not 'quiescent'" % record["stop_reason"])
    if record["failures"]:
        bad.append("failures: %s" % record["failures"])
    short = {
        pid: done
        for pid, done in record["heights_done"].items()
        if done < record["heights_target"]
    }
    if short:
        bad.append("honest processes short of %d heights: %s" % (record["heights_target"], short))
    return bad


def decide_gaps_vms(chains: dict) -> list[float]:
    """Virtual-ms gaps between successive decisions, per honest process.

    ``chains`` maps pid -> list of decision ticks in height order; the first
    height counts from t=0.
    """
    gaps = []
    for ticks in chains.values():
        prev = 0
        for t in ticks:
            gaps.append((t - prev) / 1000.0)
            prev = t
    return gaps


def tail_percentile(samples: list, above: int = 10):
    """Highest sample with at least ``above`` samples beyond it.

    Returns (value, percentile, count).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= above:
        raise ValueError("%d samples cannot support a tail with %d above it" % (n, above))
    k = n - above - 1
    return ordered[k], 100.0 * (k + 1) / n, n
