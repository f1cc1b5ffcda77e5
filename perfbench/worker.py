"""One seeded run of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/worker.py {setup|run|trace} <workload> <seed>

``setup`` stops after ``World(...)``; ``run`` is the untraced end-to-end run;
``trace`` is the same run with the per-layer wrappers of ``tracer.py``
installed.  The run mirrors ``run_scenario`` step by step so the event loop
can be timed apart from set-up and record collection.  Exit code 3 means the
simulator could not be imported from this checkout's ``src/``.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_simulator():
    sys.path.insert(0, SRC)
    try:
        import accbft
    except ImportError as exc:
        sys.stderr.write("cannot import accbft from %s: %s\n" % (SRC, exc))
        sys.exit(3)
    if not os.path.abspath(accbft.__file__).startswith(SRC + os.sep):
        sys.stderr.write("accbft resolved outside this checkout: %s\n" % accbft.__file__)
        sys.exit(3)


def all_cores(world):
    cores = [proc.core for proc in world.procs.values()]
    if world.brain is not None:
        cores.extend(proc.core for proc in world.brain.shadows.values())
    return cores


def layer_metrics(tr, world, record, record_s, record_bytes):
    """Per-layer figures from the tracer plus end-of-run state of the world."""
    cores = all_cores(world)
    contexts = [ctx for core in cores for ctx in core.contexts.values()]
    bins = [b for ctx in contexts for b in ctx.bins.values()]
    slots = [s for ctx in contexts for s in ctx.slots.values()]
    decided = [b.decided for b in bins if b.decided is not None]
    delivered = sum(1 for s in slots if s.delivered is not None)
    admits = tr.calls("consensus.admit")
    status = tr.admit_status
    verify_calls = tr.calls("crypto.verify_message")
    merge = tr.merge
    merged_or_skipped = merge["merged"] + merge["skipped"]
    changes = record["changes"]

    def ratio(num, den):
        return num / den if den else 0.0

    honest = world.roles.honest
    out = {
        "consensus.deliver_frame.calls": tr.calls("consensus.deliver_frame"),
        "consensus.deliver_frame.self_s": tr.self_s("consensus.deliver_frame"),
        "consensus.admit.calls": admits,
        "consensus.admit.self_s": tr.self_s("consensus.admit"),
        "consensus.admit.new": status["new"],
        "consensus.admit.dup": status["dup"],
        "consensus.admit.upgraded": status["upgraded"],
        "consensus.admit.conflict": status["conflict"],
        "consensus.admit.useful_ratio": ratio(status["new"] + status["upgraded"], admits),
        "consensus.msgset.frames": tr.msgset_frames,
        "consensus.msgset.fresh_ratio": ratio(tr.msgset_fresh, tr.msgset_inners),
        "consensus.store.slots_final": sum(len(core.store.slots) for core in cores),
        "committee.is_active.calls": tr.calls("committee.is_active"),
        "committee.update.calls": tr.calls("committee.update"),
        "committee.update.self_s": tr.self_s("committee.update"),
        "binary.pump.calls": tr.calls("binary.pump"),
        "binary.pump.self_s": tr.self_s("binary.pump"),
        "binary.pumps_per_decision": ratio(tr.calls("binary.pump"), len(decided)),
        "binary.cert_valid.calls": tr.calls("binary.cert_valid"),
        "binary.cert_valid.self_s": tr.self_s("binary.cert_valid"),
        "binary.rounds_mean": ratio(sum(r for _, r in decided), len(decided)),
        "broadcast.pump.calls": tr.calls("broadcast.pump"),
        "broadcast.pump.self_s": tr.self_s("broadcast.pump"),
        "broadcast.pumps_per_delivery": ratio(tr.calls("broadcast.pump"), delivered),
        "simnet.send.calls": tr.calls("simnet.send"),
        "simnet.send.self_s": tr.self_s("simnet.send"),
        "simnet.loop.self_s": tr.self_s("simnet.loop"),
        "simnet.timer.armed": tr.calls("simnet.timer.armed"),
        "simnet.timer.fired": tr.edge("simnet.loop", "consensus.on_timer")
        + tr.edge("simnet.loop", "scenarios.adversary.on_timer"),
        "simnet.heap.peak": tr.heap_peak,
        "crypto.sign.calls": tr.calls("crypto.sign"),
        "crypto.sign.self_s": tr.self_s("crypto.sign"),
        "crypto.verify.calls": tr.calls("crypto.verify"),
        "crypto.verify.self_s": tr.self_s("crypto.verify"),
        "crypto.verify_message.calls": verify_calls,
        "crypto.verify_message.memo_ratio": ratio(tr.memo_hits, verify_calls),
        "crypto.full_encoding.calls": tr.calls("crypto.full_encoding"),
        "crypto.full_encoding.self_s": tr.self_s("crypto.full_encoding"),
        "ledger.decode_block.calls": tr.calls("ledger.decode_block"),
        "ledger.decode_block.self_s": tr.self_s("ledger.decode_block"),
        "ledger.tx_valid.calls": tr.calls("ledger.tx_valid"),
        "ledger.tx_valid.self_s": tr.self_s("ledger.tx_valid"),
        "ledger.merge_block.calls": tr.calls("ledger.merge_block"),
        "ledger.merge_block.self_s": tr.self_s("ledger.merge_block"),
        "ledger.merge.skipped_ratio": ratio(merge["skipped"], merged_or_skipped),
        "ledger.merge.funded": merge["funded"],
        "ledger.propose.self_s": tr.self_s("ledger.propose"),
        "ledger.utxos_final": sum(len(world.ledgers[p].utxos) for p in honest if p in world.ledgers),
        "membership.changes": len(changes),
        "membership.repair_vms": sum(c["completed_at"] - c["triggered_at"] for c in changes) / 1000.0,
        "membership.catch_up.calls": tr.calls("membership.catch_up"),
        "membership.catch_up.self_s": tr.self_s("membership.catch_up"),
        "analysis.confirm_threshold.calls": tr.calls("analysis.confirm_threshold"),
        "analysis.confirm_threshold.self_s": tr.self_s("analysis.confirm_threshold"),
        "scenarios.world_init.self_s": tr.self_s("scenarios.world_init"),
        "scenarios.adversary.deliver.calls": tr.calls("scenarios.adversary.deliver"),
        "scenarios.adversary.deliver.self_s": tr.self_s("scenarios.adversary.deliver"),
        "scenarios.validator.self_s": tr.self_s("scenarios.validator"),
        "scenarios.reconcile.self_s": tr.self_s("scenarios.reconcile"),
        "scenarios.collect.self_s": tr.self_s("scenarios.collect"),
        "harness.record.self_s": record_s,
        "harness.record.bytes": record_bytes,
    }
    # every wrapped name's call count, for the coverage and determinism checks
    calls = {name: tr.calls(name) for name in list(tr.stats) + list(tr.counts)}
    return out, calls


def main(argv):
    mode, name, seed = argv[1], argv[2], int(argv[3])
    t_setup = time.perf_counter()
    import_simulator()
    from accbft.scenarios import World, canonical_record, run_scenario, scenario_from_dict

    tr = None
    if mode == "trace":
        import tracer

        tr = tracer.Tracer()
        tr.install()

    scn = scenario_from_dict(workloads.build(name).to_dict())
    world = World(scn, seed)
    setup_s = time.perf_counter() - t_setup
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    budget = inspect.signature(run_scenario).parameters["event_budget"].default
    t_loop = time.perf_counter()
    world.start()
    stop = world.net.run(budget)
    if scn.payload == "ledger":
        world.reconcile_ledgers()
    loop_s = time.perf_counter() - t_loop
    record = world.collect(stop)

    from accbft.harness import record_to_row

    t_rec = time.perf_counter()
    record_to_row(record)
    text = canonical_record(record)
    t_end = time.perf_counter()
    wall_s = t_end - T0

    chains = {p: [rec["decided_at"] for rec in world.procs[p].chain] for p in world.roles.honest}
    gaps = workloads.decide_gaps_vms(chains)
    tail, tail_pct, samples = workloads.tail_percentile(gaps)
    frames = record["messages"]["total"]
    done_min = min(record["heights_done"].values())
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "loop_s": loop_s,
        "frames": frames,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decide_vms_p50": statistics.median(gaps),
        "decide_vms_tail": tail,
        "decide_tail_pct": tail_pct,
        "decide_samples": samples,
        "frames_per_height": frames / done_min if done_min else float(frames),
        "outcome_digest": workloads.outcome_digest(record),
        "record_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "problems": workloads.record_problems(record),
    }
    if tr is not None:
        tr.uninstall()
        layers, calls = layer_metrics(tr, world, record, t_end - t_rec, len(text.encode()))
        result["layers"] = layers
        result["calls"] = calls
        result["edges"] = sorted([p, c, n] for (p, c), n in tr.edges.items())
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
