"""Command-line front end: batch scenario runs, check suites, bound tables.

Exit codes: 0 success; 2 scenario description rejected (field-level
diagnostics on stderr); 3 a run tripped a protocol invariant; 1 a check
suite reported failures; 64 unusable command line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from typing import Iterable, Optional

from .analysis import (
    MAX_BLOCKDEPTH,
    DepthLimitError,
    ZeroLossParams,
    alpha_confirm_threshold,
    as_fraction,
    blockdepth_curve_rows,
    blockdepth_reference_rows,
    branch_curve_rows,
    conservative_branches,
    deposit_flux,
    frontier_rows,
    max_branches,
    min_blockdepth,
)
from .committee import FaultProfile, _check_h, consensus_tolerated, threshold_tolerated
from .scenarios import (
    _MAX_PROCESSES,
    MAX_SEEDS,
    SCHEMA,
    Scenario,
    ScenarioError,
    agreement_scenario,
    canonical_record,
    complexity_scenario,
    default_h0,
    fork_scenario,
    llb_scenario,
    load_scenario,
    plain_ratio,
    run_scenario,
    spam_scenario,
    tolerated_profiles,
)

EX_OK = 0
EX_SUITE = 1
EX_SCENARIO = 2
EX_INVARIANT = 3
EX_USAGE = 64

OUTDIR_ENV = "ACCBFT_OUTDIR"
MAX_CURVE = 10_000  # rows of an analyze --curve table

CSV_SCHEMA = "accbft.v1"

# Flat projection of a run record; one row per (scenario, seed).  The column
# list is the schema contract: append-only, never reordered.
CSV_COLUMNS = (
    "schema",
    "scenario",
    "seed",
    "stop_reason",
    "virtual_ticks",
    "n",
    "t",
    "d",
    "q",
    "h0",
    "h_prime0",
    "mode",
    "payload",
    "heights_target",
    "heights_done_min",
    "heights_done_max",
    "agreed_heights",
    "agreed_tail",
    "disagreements",
    "branches_max",
    "membership_changes",
    "excluded",
    "included",
    "final_members",
    "fraud_threshold",
    "pofs_min",
    "pofs_max",
    "time_to_detect_ticks",
    "exclusion_ticks",
    "inclusion_ticks",
    "msgs_total",
    "msgs_post_gst",
    "msgs_omitted",
    "msgs_per_binary_instance",
    "intra_delay_mean_ticks",
    "cross_delay_mean_ticks",
    "chain_digest",
    "chain_digests_distinct",
    "deposit_initial",
    "deposit_final_min",
    "deposit_final_max",
    "deposit_flux_min",
    "deposit_flux_max",
    "confirmed",
    "failures",
)


def parse_seeds(text: str) -> list[int]:
    """Expand a seed list: "7", "1..5", "1,4,9..11" -> sorted unique ints."""
    seeds: set[int] = set()
    named = 0
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty seed entry")
        lo, _, hi = part.partition("..")
        lo = int(lo)
        hi = int(hi) if ".." in part else lo
        if hi < lo:
            raise ValueError("seed range %s is reversed" % part)
        named += hi - lo + 1
        if named > MAX_SEEDS:
            raise ValueError("seed list names more than %d seeds" % MAX_SEEDS)
        seeds.update(range(lo, hi + 1))
    return sorted(seeds)


def _join(values: Iterable) -> str:
    return "|".join(str(v) for v in values)


def record_to_row(record: dict) -> list[str]:
    """Flatten a run record into CSV_COLUMNS order (all values stringified)."""
    done = list(record["heights_done"].values())
    pofs = list(record["pof_counts"].values())
    digests = sorted(set(record["chain_digests"].values()))
    combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    included: list[int] = []
    for change in record["changes"]:
        included.extend(change["included"])
    deposit = record.get("deposit")
    finals = list(deposit["final"].values()) if deposit else []
    fluxes = list(deposit["flux"].values()) if deposit else []
    confirm = record.get("confirm")
    msgs = record["messages"]

    def blank_if_none(v) -> str:
        return "" if v is None else str(v)

    values = {
        "schema": CSV_SCHEMA,
        "scenario": record["scenario"],
        "seed": record["seed"],
        "stop_reason": record["stop_reason"],
        "virtual_ticks": record["virtual_ticks"],
        "n": record["n"],
        "t": record["t"],
        "d": record["d"],
        "q": record["q"],
        "h0": record["h0"],
        "h_prime0": record["h_prime0"],
        "mode": record["mode"],
        "payload": record["payload"],
        "heights_target": record["heights_target"],
        "heights_done_min": min(done, default=0),
        "heights_done_max": max(done, default=0),
        "agreed_heights": record["agreed_heights"],
        "agreed_tail": record["agreed_tail"],
        "disagreements": record["disagreements"],
        "branches_max": record["branches_max"],
        "membership_changes": len(record["changes"]),
        "excluded": _join(record["excluded_members"]),
        "included": _join(sorted(set(included))),
        "final_members": _join(record["final_members"]),
        "fraud_threshold": record["fraud_threshold"],
        "pofs_min": min(pofs, default=0),
        "pofs_max": max(pofs, default=0),
        "time_to_detect_ticks": blank_if_none(record["time_to_detect_ticks"]),
        "exclusion_ticks": _join(c["exclusion_ticks"] for c in record["changes"]),
        "inclusion_ticks": _join(c["inclusion_ticks"] for c in record["changes"]),
        "msgs_total": msgs["total"],
        "msgs_post_gst": msgs["post_gst"],
        "msgs_omitted": msgs["omitted"],
        "msgs_per_binary_instance": record["msgs_per_binary_instance"],
        "intra_delay_mean_ticks": blank_if_none(msgs["intra_delay_mean_ticks"]),
        "cross_delay_mean_ticks": blank_if_none(msgs["cross_delay_mean_ticks"]),
        "chain_digest": combined,
        "chain_digests_distinct": len(digests),
        "deposit_initial": deposit["initial"] if deposit else "",
        "deposit_final_min": min(finals) if finals else "",
        "deposit_final_max": max(finals) if finals else "",
        "deposit_flux_min": min(fluxes) if fluxes else "",
        "deposit_flux_max": max(fluxes) if fluxes else "",
        "confirmed": (
            sum(1 for v in confirm.values() if v is not None)
            if confirm is not None
            else ""
        ),
        "failures": len(record["failures"]),
    }
    return [str(values[col]) for col in CSV_COLUMNS]


def write_csv(path: str, rows: Iterable[list[str]]) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def _run_task(task: tuple[Scenario, int, bool]) -> tuple[dict, Optional[list]]:
    scn, seed, trace = task
    out = run_scenario(scn, seed, trace=trace)
    return out.record, (out.world.net.trace if trace else None)


def _run_batch(
    tasks: list[tuple[Scenario, int, bool]]
) -> list[tuple[dict, Optional[list]]]:
    """Run (scenario, seed, trace) tasks on one worker per usable CPU.

    Each run is an isolated single-threaded simulation.  Workers take one
    run at a time and results keep the submission order, so a batch gives
    the same records however many workers it gets; with fewer than two it
    runs in-process.
    """
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers < 2:
        return [_run_task(t) for t in tasks]
    import multiprocessing  # only a pool needs it; single runs skip its import cost

    with multiprocessing.Pool(workers) as pool:
        return pool.map(_run_task, tasks, chunksize=1)


def run_records(pairs: Iterable[tuple[Scenario, int]]) -> list[dict]:
    """Records of (scenario, seed) runs, in order, as one batch."""
    tasks = [(scn, seed, False) for scn, seed in pairs]
    return [record for record, _ in _run_batch(tasks)]


def cmd_run(args: argparse.Namespace) -> int:
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    try:
        scenarios = [load_scenario(path) for path in args.scenario]
    except ScenarioError as exc:
        sys.stderr.write("scenario error:\n")
        for problem in exc.problems:
            sys.stderr.write("  - %s\n" % problem)
        return EX_SCENARIO
    except OSError as exc:
        sys.stderr.write("scenario error:\n  - %s\n" % exc)
        return EX_SCENARIO

    tasks = []
    for scn in sorted(scenarios, key=lambda s: s.name):
        seeds = args.seeds if args.seeds is not None else sorted(set(scn.seeds))
        for seed in seeds:
            tasks.append((scn, seed, args.trace))

    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        sys.stderr.write("output error:\n  - cannot create %s: %s\n" % (outdir, exc))
        return EX_SCENARIO
    results = _run_batch(tasks)

    rows, lines, violated = [], [], False
    for (scn, seed, _), (record, trace) in zip(tasks, results):
        if record["failures"]:
            violated = True
            for pid, failure in record["failures"].items():
                sys.stderr.write(
                    "invariant violation: %s seed=%d pid=%s: %s\n"
                    % (scn.name, seed, pid, failure)
                )
        rows.append(record_to_row(record))
        lines.append(canonical_record(record))
        if trace is not None:
            tpath = os.path.join(outdir, "%s-seed%d.trace.jsonl" % (scn.name, seed))
            with open(tpath, "w", encoding="utf-8") as fh:
                for event in trace:
                    fh.write(json.dumps(event, sort_keys=True) + "\n")
        print(
            "run %s seed=%d: %s heights=%s agreed=%d disagreements=%d"
            % (
                scn.name,
                seed,
                record["stop_reason"],
                min(record["heights_done"].values(), default=0),
                record["agreed_heights"],
                record["disagreements"],
            )
        )

    stem = args.out or (scenarios[0].name if len(scenarios) == 1 else "batch")
    csv_path = os.path.join(outdir, stem + ".csv")
    count = write_csv(csv_path, rows)
    jsonl_path = os.path.join(outdir, stem + ".jsonl")
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    print("wrote %s (%d rows) and %s" % (csv_path, count, jsonl_path))
    return EX_INVARIANT if violated else EX_OK


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def pick_profile(n: int, seed: int) -> tuple[int, int, int]:
    """Deterministic tolerated (t, d, q) choice for an (n, seed) pair."""
    profiles = tolerated_profiles(n)
    return profiles[random.Random((n << 20) ^ seed).randrange(len(profiles))]


# Batch builders run each seeded batch once; the check functions below are
# pure over their records (or over nothing, for the closed-form checks) and
# return (label, ok, detail).  The acceptance battery calls the same checks.

Check = tuple[str, bool, str]

AGREEMENT_SIZES = (4, 7, 10)
FORK_KINDS = ("broadcast-fork", "binary-fork")


def agreement_records(seeds: int) -> list[dict]:
    return run_records(
        (agreement_scenario(n, *pick_profile(n, seed)), seed)
        for n in AGREEMENT_SIZES
        for seed in range(1, seeds + 1)
    )


def _seeded(scns: list[Scenario], seeds: int) -> list[list[dict]]:
    """Seeds 1..seeds of every scenario as one batch, split per scenario."""
    records = run_records((scn, seed) for scn in scns for seed in range(1, seeds + 1))
    return [records[i * seeds : (i + 1) * seeds] for i in range(len(scns))]


COMPLEXITY_SIZES = (4, 10, 20, 40)


def complexity_means(seeds: int) -> dict[int, float]:
    batches = _seeded([complexity_scenario(n) for n in COMPLEXITY_SIZES], seeds)
    return {
        n: sum(r["msgs_per_binary_instance"] for r in records) / seeds
        for n, records in zip(COMPLEXITY_SIZES, batches)
    }


def _terminated(record: dict) -> bool:
    done = record["heights_done"].values()
    return bool(done) and min(done) >= record["heights_target"]


def _ratio_non_increasing(record: dict) -> bool:
    ratios = [Fraction(r) for _, r in record["ratio_trajectory"]]
    return all(b <= a for a, b in zip(ratios, ratios[1:]))


def _run_id(record: dict) -> str:
    return "%s/seed%d" % (record["scenario"], record["seed"])


def _failing(label: str, records: list[dict], healthy, what: str) -> Check:
    bad = [_run_id(r) for r in records if not healthy(r)]
    return (
        label,
        not bad,
        "%d runs, %s, failing: %s" % (len(records), what, bad or "none"),
    )


def check_frontier() -> Check:
    """The closed form n > 3t+d+2q agrees with a search over thresholds h."""
    checked = mismatch = 0
    for n in range(1, 13):
        for t in range(n + 1):
            for d in range(n + 1 - t):
                for q in range(n + 1 - t - d):
                    profile = FaultProfile(n, t, d, q)
                    via_h = any(
                        threshold_tolerated(profile, h) == (True, True)
                        for h in range(n // 2 + 1, n + 1)
                    )
                    mismatch += consensus_tolerated(profile) != via_h
                    checked += 1
    return (
        "tolerance-frontier-equivalence",
        mismatch == 0,
        "%d profiles for n<=12, closed form vs threshold search disagreements: %d"
        % (checked, mismatch),
    )


def check_agreement(records: list[dict]) -> Check:
    return _failing(
        "agreement-under-tolerated-faults",
        records,
        lambda r: r["disagreements"] == 0 and r["failures"] == {} and _terminated(r),
        "no disagreement, no failure, every honest process done",
    )


SPAM_EXCLUDED = {"3": [1], "4": [1]}  # both honest processes convict pid 1 only


def check_spam(records: list[dict]) -> Check:
    return _failing(
        "spam-terminates-after-one-exclusion",
        records,
        lambda r: r["failures"] == {}
        and set(r["phases"].values()) == {"done"}
        and r["committee_excluded"] == SPAM_EXCLUDED
        and set(r["heights_done"]) == set(SPAM_EXCLUDED)
        and _terminated(r),
        "honest 3 and 4 each exclude exactly pid 1 and terminate",
    )


def check_accountability(kind: str, records: list[dict]) -> Check:
    """At least half the seeds fork, and after every fork each honest process
    holds proofs against at least 2*h0-n distinct ids."""
    forked = [r for r in records if r["disagreements"]]

    def attributed(r: dict) -> bool:
        need = r["fraud_threshold"]
        return need == 2 * r["h0"] - r["n"] and all(
            r["pof_counts"].get(str(p), 0) >= need for p in r["honest"]
        )

    bad = [
        _run_id(r)
        for r in records
        if r["failures"] or (r["disagreements"] and not attributed(r))
    ]
    return (
        "%s-accountability" % kind,
        2 * len(forked) >= len(records) and not bad,
        "%d/%d seeds forked (half needed), every fork fully attributed"
        " (>= 2*h0-n ids), no failure; failing: %s"
        % (len(forked), len(records), bad or "none"),
    )


def integer_partitions(total: int):
    """All multisets of positive integers summing to ``total``."""

    def rec(rem, cap):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    return rec(total, total)


def partition_oracle(n: int, h: int, dt: int) -> int:
    """Most branches dt equivocators can sustain, by enumeration: seat the
    n-dt loyal voters into groups and count groups that still clear the h-vote
    bar with the equivocators voting everywhere."""
    need = h - dt
    best = max(sum(1 for p in part if p >= need) for part in integer_partitions(n - dt))
    return max(1, best)


def check_branch_bound(records: list[dict]) -> Check:
    """Every run stays within max_branches, and max_branches matches the
    partition enumeration at every (n, h, d+t) point with n <= 12."""
    over = [
        _run_id(r)
        for r in records
        if r["branches_max"] > max_branches(r["n"], r["h0"], r["d"] + r["t"])
    ]
    points = mismatch = 0
    for n in range(1, 13):
        for h in range(n // 2 + 1, n + 1):
            for dt in range(h):
                mismatch += max_branches(n, h, dt) != partition_oracle(n, h, dt)
                points += 1
    return (
        "branch-bound-oracle",
        not over and mismatch == 0,
        "%d attack runs, over the bound: %s; enumeration mismatches on %d"
        " (n,h,d+t) points: %d" % (len(records), over or "none", points, mismatch),
    )


LLB_MAX_CHANGES = 3
LLB_MIN_TAIL = 100


def check_llb(records: list[dict]) -> Check:
    return _failing(
        "llb-converges-to-honest-committee",
        records,
        lambda r: r["failures"] == {}
        and len(r["changes"]) <= LLB_MAX_CHANGES
        and max(r["membership_changes"].values(), default=0) <= LLB_MAX_CHANGES
        and r["agreed_tail"] >= LLB_MIN_TAIL
        and _terminated(r)
        and _ratio_non_increasing(r),
        "changes used %s (<= %d), agreed tail >= %d, non-increasing deceitful ratio"
        % (sorted({len(r["changes"]) for r in records}), LLB_MAX_CHANGES, LLB_MIN_TAIL),
    )


def check_blockdepth() -> Check:
    """Finalization depths 28/37/46 from the reference table and from the
    deceitful ratios 0.5/0.6/0.64 through their conservative branch counts;
    ratio 0.66 gives 51 branches and depth 59, 3 branches at 0.55 depth 5."""
    exact = {3: 28, 6: 37, 14: 46}
    table = {
        row["branches"]: row["computed_blockdepth"]
        for row in blockdepth_reference_rows()
        if row["branches"] in exact and row["attack_success"] == "0.9"
    }
    want = {"0.5": (3, 28), "0.6": (6, 37), "0.64": (14, 46), "0.66": (51, 59)}
    ratios = {}
    for ratio in want:
        branches = conservative_branches(ratio)
        ratios[ratio] = (branches, min_blockdepth(branches, "0.1", "0.9"))
    low_success = min_blockdepth(3, "0.1", "0.55")
    return (
        "blockdepth-reproduced",
        table == exact and ratios == want and low_success == 5,
        "branch counts 3/6/14 -> %s; ratio -> (branches, depth) %s;"
        " 3 branches at 0.55 -> %d" % (table, ratios, low_success),
    )


def check_flux_sign_flip() -> Check:
    def flux(row: dict, depth: int) -> Fraction:
        return deposit_flux(ZeroLossParams(
            row["branches"], row["deposit_factor"], row["attack_success"], depth
        ))

    flips = all(
        flux(row, row["computed_blockdepth"])
        >= 0
        > flux(row, row["computed_blockdepth"] - 1)
        for row in blockdepth_reference_rows()
    )
    return ("deposit-flux-sign-flip", flips, "flux flips sign at every computed depth")


def check_quoted_discrepancies() -> Check:
    off = {
        (row["branches"], row["attack_success"]): (
            row["quoted_blockdepth"],
            row["computed_blockdepth"],
        )
        for row in blockdepth_reference_rows()
        if not row["matches"]
    }
    expected_off = {(51, "0.9"): (58, 59), (3, "0.55"): (4, 5)}
    return (
        "quoted-figure-discrepancies",
        off == expected_off,
        "quoted depths that fail their own inequality: %s" % (off,),
    )


def check_complexity(means: dict[int, float]) -> Check:
    """Means at n = 4, 10, 20, 40 grow at most cubically, 40/20 in [4, 12]."""
    sizes = sorted(means)
    if sizes != [4, 10, 20, 40]:
        return (
            "message-growth-cubic-band",
            False,
            "sizes %s, expected [4, 10, 20, 40]" % (sizes,),
        )
    cubic_ok = all(
        means[b] / means[a] <= (b / a) ** 3 for a, b in zip(sizes, sizes[1:])
    )
    ratio = means[40] / means[20]
    return (
        "message-growth-cubic-band",
        cubic_ok and 4 <= ratio <= 12,
        "per-instance means %s; 40/20 ratio %.2f"
        % ({n: round(m, 1) for n, m in means.items()}, ratio),
    )


def suite_agreement(seeds: int) -> list[Check]:
    return [check_frontier(), check_agreement(agreement_records(seeds))]


def suite_attack(seeds: int) -> list[Check]:
    spam, *forks = _seeded(
        [spam_scenario()] + [fork_scenario(k) for k in FORK_KINDS], seeds
    )
    attack_runs = spam + [r for records in forks for r in records]
    return [check_spam(spam), check_branch_bound(attack_runs)] + [
        check_accountability(kind, records) for kind, records in zip(FORK_KINDS, forks)
    ]


def suite_membership(seeds: int) -> list[Check]:
    return [check_llb(_seeded([llb_scenario()], seeds)[0])]


def suite_zeroloss() -> list[Check]:
    return [check_blockdepth(), check_flux_sign_flip(), check_quoted_discrepancies()]


def suite_complexity(seeds: int) -> list[Check]:
    return [check_complexity(complexity_means(seeds))]


SUITES = {
    "agreement": (suite_agreement, 200),
    "attack": (suite_attack, 100),
    "membership": (suite_membership, 5),
    "zeroloss": (suite_zeroloss, None),
    "complexity": (suite_complexity, 20),
}


def cmd_suite(args: argparse.Namespace) -> int:
    fn, default_seeds = SUITES[args.name]
    if default_seeds is None:
        checks = fn()
    else:
        checks = fn(args.seeds if args.seeds is not None else default_seeds)
    failed = 0
    for label, ok, detail in checks:
        print("%s %s: %s" % ("PASS" if ok else "FAIL", label, detail))
        failed += not ok
    return EX_SUITE if failed else EX_OK


# ---------------------------------------------------------------------------
# closed-form tables
# ---------------------------------------------------------------------------


def _print_table(rows: list[dict]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if not rows:
        return
    columns = list(rows[0])
    writer.writerow(columns)
    for row in rows:
        writer.writerow([str(row[col]) for col in columns])


def cmd_analyze(args: argparse.Namespace) -> int:
    h = args.h if args.h is not None else default_h0(args.n)
    try:
        if args.table in ("branches", "confirm", "frontier"):
            _check_h(args.n, h)
        if args.table == "blockdepth":
            if args.curve is not None:
                _print_table(
                    blockdepth_curve_rows(args.b, args.rho, args.curve)
                )
            else:
                if args.a is None:
                    raise ValueError("blockdepth needs --a or --curve")
                print(min_blockdepth(args.a, args.b, args.rho))
        elif args.table == "flux":
            if args.a is None:
                raise ValueError("flux needs --a")
            flux = deposit_flux(ZeroLossParams(args.a, args.b, args.rho, args.w))
            print(flux if args.exact else "%.12g" % float(flux))
        elif args.table == "branches":
            if args.delta is not None:
                print(conservative_branches(args.delta, args.h_ratio))
            elif args.curve_table:
                _print_table(branch_curve_rows(args.n, h))
            else:
                print(max_branches(args.n, h, args.dt))
        elif args.table == "confirm":
            print(alpha_confirm_threshold(args.n, h, args.alpha))
        elif args.table == "frontier":
            _print_table(frontier_rows(args.n, h))
        elif args.table == "reference":
            _print_table(blockdepth_reference_rows())
    except DepthLimitError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EX_USAGE
    except (ValueError, OverflowError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EX_SCENARIO
    return EX_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(EX_USAGE)


def _fraction(text: str) -> Fraction:
    """A ratio option: the scenario files' rule with an optional leading "-",
    which the analysis functions reject with their own diagnostics."""
    if not plain_ratio(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(
            "%r is not a ratio: digits with at most one '.' and one '/'" % text
        )
    try:
        return as_fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("%r divides by zero" % text) from None


def _seed_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_SEEDS:
        raise argparse.ArgumentTypeError(
            "must be an integer in [1, %d], got %d" % (MAX_SEEDS, value)
        )
    return value


def _seed_list(text: str) -> list[int]:
    try:
        return parse_seeds(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    if int(hi) < int(lo):
        raise argparse.ArgumentTypeError("range %s is reversed" % text)
    if int(hi) - int(lo) >= MAX_CURVE:
        raise argparse.ArgumentTypeError(
            "range %s has more than %d values" % (text, MAX_CURVE)
        )
    return range(int(lo), int(hi) + 1)


def _process_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= _MAX_PROCESSES:
        raise argparse.ArgumentTypeError(
            "must be an integer in [1, %d], got %d" % (_MAX_PROCESSES, value)
        )
    return value


def _stem(text: str) -> str:
    """An output file stem follows the scenario name rule, so it names a
    file in the output directory and holds no path."""
    if not SCHEMA["name"].fits(text):
        raise argparse.ArgumentTypeError("%r %s" % (text, SCHEMA["name"].rule()))
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="accbft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run a scenario file over a seed batch")
    run.add_argument(
        "--scenario", action="append", required=True, metavar="PATH",
        help="scenario JSON (repeatable)",
    )
    run.add_argument(
        "--seeds", type=_seed_list, default=None, metavar="SPEC",
        help='seed list, e.g. "7", "1..5", "1,3,9..11" (default: scenario file)',
    )
    run.add_argument(
        "--outdir", default=None,
        help="output directory (default: $%s or .)" % OUTDIR_ENV,
    )
    run.add_argument(
        "--out", type=_stem, default=None, help="output file stem (a scenario name)"
    )
    run.add_argument(
        "--trace", action="store_true", help="dump per-run JSON-lines event logs"
    )
    run.set_defaults(func=cmd_run)

    suite = sub.add_parser("suite", help="run a named check suite")
    suite.add_argument("name", choices=sorted(SUITES))
    suite.add_argument(
        "--seeds", type=_seed_count, default=None,
        help="seeds per scenario (suite default)",
    )
    suite.set_defaults(func=cmd_suite)

    analyze = sub.add_parser("analyze", help="closed-form bounds and tables")
    analyze.add_argument(
        "table",
        choices=("blockdepth", "flux", "branches", "confirm", "frontier", "reference"),
    )
    analyze.add_argument("--a", type=int, default=None, help="branch count")
    analyze.add_argument("--b", type=_fraction, default=Fraction(1, 10),
                         help="deposit factor")
    analyze.add_argument("--rho", type=_fraction, default=Fraction(9, 10),
                         help="per-block attack success probability")
    analyze.add_argument("--w", type=int, default=0,
                         help="finalization depth, at most %d" % MAX_BLOCKDEPTH)
    analyze.add_argument("--n", type=_process_count, default=9,
                         help="process count, at most %d" % _MAX_PROCESSES)
    analyze.add_argument("--h", type=int, default=None)
    analyze.add_argument("--dt", type=int, default=0,
                         help="deceitful+byzantine count")
    analyze.add_argument("--alpha", type=_fraction, default=Fraction(4, 9))
    analyze.add_argument("--delta", type=_fraction, default=None,
                         help="deceitful ratio (conservative branch bound)")
    analyze.add_argument("--h-ratio", type=_fraction, default=Fraction(2, 3))
    analyze.add_argument("--curve", type=_int_range, default=None,
                         metavar="LO..HI",
                         help="emit a table over at most %d branch counts" % MAX_CURVE)
    analyze.add_argument("--curve-table", action="store_true",
                         help="emit the branch-bound table for --n/--h")
    analyze.add_argument("--exact", action="store_true",
                         help="print flux as an exact fraction")
    analyze.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Optional[list[str]] = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
