"""accbft benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload honest-n30 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up-only workers and
untraced full runs one after another until the time is spent (at least three
runs), each in a fresh single-threaded worker process, reporting medians.
``--trace 1`` makes one untraced and two traced runs of the same seed and
reports the per-layer metrics, after the coverage and determinism checks.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, whose
names and units are those of ``BENCHMARK.json``.  Exit code 0 means a result
was printed (check ``correct``); 2 means the simulator sources are missing
from this checkout or a worker could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUPS_PER_RUN = 5
MIN_RUNS = 3
TRACED_RUNS = 2
DEADLINE_S = 170  # a whole invocation must end within 180 s

# Wrapped names that must record calls ("heavy on") or exactly none
# ("predicted no change") on each workload.  A refactor that moves a name
# fails here loudly instead of going silently unmeasured.
LEDGER_PATH = ("ledger.decode_block", "ledger.tx_valid", "ledger.merge_block",
               "ledger.propose", "scenarios.validator", "scenarios.reconcile")
COVERAGE = {
    "honest-n30": {
        "heavy": ("consensus.deliver_frame", "consensus.admit", "committee.is_active",
                  "binary.pump", "binary.cert_valid", "broadcast.pump", "simnet.send",
                  "crypto.sign", "crypto.verify_message", "scenarios.world_init",
                  "scenarios.collect"),
        "zero": LEDGER_PATH + ("crypto.verify", "membership.catch_up",
                               "analysis.confirm_threshold", "scenarios.adversary.deliver"),
    },
    "attack-llb": {
        "heavy": ("consensus.deliver_frame", "consensus.admit", "simnet.send",
                  "simnet.timer.armed", "consensus.on_timer", "committee.update",
                  "membership.catch_up", "scenarios.adversary.deliver"),
        "zero": LEDGER_PATH + ("analysis.confirm_threshold",),
    },
    "ledger-fork": {
        "heavy": LEDGER_PATH + ("consensus.admit", "crypto.verify",
                                "analysis.confirm_threshold",
                                "scenarios.adversary.deliver"),
        "zero": (),
    },
}

# Worker fields that must repeat exactly across runs of one seed.
DETERMINISTIC = ("frames", "decide_vms_p50", "decide_vms_tail", "decide_samples",
                 "frames_per_height", "outcome_digest", "record_sha256")


class WorkerError(Exception):
    pass


def run_worker(mode: str, name: str, seed: int, deadline: float) -> dict:
    # fixed hash seed and byte-code caching on, whatever the caller's setting
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, name, str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("%s worker timed out" % mode) from exc
    if proc.returncode != 0:
        raise WorkerError("%s worker exited %d:\n%s" % (mode, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    from importlib import metadata

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        crypto_version = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto_version = None
    commit = clean = None
    # only ask git inside a checkout that is itself a repository, so git
    # never walks up into directories outside it
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
            return out.stdout.strip() if out.returncode == 0 else None

        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
        clean = None if status is None else status == ""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cryptography": crypto_version,
        "git_commit": commit,
        "git_clean": clean,
    }


def output_problems(res: dict, pinned) -> list[str]:
    """The output check behind error_rate, for one run."""
    bad = list(res["problems"])
    if pinned is not None and res["outcome_digest"] != pinned:
        bad.append("outcome digest %s differs from pinned %s" % (res["outcome_digest"], pinned))
    return bad


def determinism_problems(runs: list[dict]) -> list[str]:
    first = runs[0]
    return [
        "%s differs between runs of one seed: %r vs %r" % (f, first[f], r[f])
        for r in runs[1:]
        for f in DETERMINISTIC
        if r[f] != first[f]
    ]


def measure_e2e(name, seed, seconds, deadline):
    run_worker("setup", name, seed, deadline)  # warm-up: byte-code cache, page cache
    start = time.monotonic()
    setups, runs, durations = [], [], []
    while True:
        # host speed drifts over tens of seconds, so set-up samples are spread
        # over the whole window like the runs instead of taken in one burst
        setups += [run_worker("setup", name, seed, deadline)["setup_s"] for _ in range(SETUPS_PER_RUN)]
        t0 = time.monotonic()
        runs.append(run_worker("run", name, seed, deadline))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + statistics.median(durations) > seconds:
            break
    setups += [r["setup_s"] for r in runs]
    first = runs[0]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "frames_per_s": statistics.median(r["frames"] / r["loop_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "decide_vms_p50": first["decide_vms_p50"],
        "decide_vms_tail": first["decide_vms_tail"],
        "frames_per_height": first["frames_per_height"],
    }
    notes = {
        "wall_s runs": [round(r["wall_s"], 4) for r in runs],
        "setup_s samples": [round(s, 4) for s in setups],
        "decide_vms_tail": "p%.1f of %d samples" % (first["decide_tail_pct"], first["decide_samples"]),
        "frames": first["frames"],
    }
    return runs, metrics, notes


def measure_layers(name, seed, deadline):
    base = run_worker("run", name, seed, deadline)
    traced = [run_worker("trace", name, seed, deadline) for _ in range(TRACED_RUNS)]
    first = traced[0]
    layers = {}
    for key, value in first["layers"].items():
        if key.endswith("_s"):  # timings vary; counts and ratios must not
            value = statistics.median(t["layers"][key] for t in traced)
        layers[key] = value
    layers["trace.overhead_ratio"] = statistics.median(t["wall_s"] for t in traced) / base["wall_s"]

    problems = determinism_problems([base] + traced)
    for t in traced[1:]:
        for key in sorted(set(first["calls"]) | set(t["calls"])):
            if first["calls"].get(key) != t["calls"].get(key):
                problems.append("%s calls differ between traced runs: %s vs %s"
                                % (key, first["calls"].get(key), t["calls"].get(key)))
        for key, value in first["layers"].items():
            if not key.endswith("_s") and t["layers"][key] != value:
                problems.append("%s differs between traced runs: %r vs %r"
                                % (key, value, t["layers"][key]))
    cover = COVERAGE[name]
    for wrapped in cover["heavy"]:
        if first["calls"][wrapped] == 0:
            problems.append("coverage: %s recorded no calls on %s" % (wrapped, name))
    for wrapped in cover["zero"]:
        if first["calls"][wrapped] != 0:
            problems.append("coverage: %s recorded %d calls on %s, predicted 0"
                            % (wrapped, first["calls"][wrapped], name))
    notes = {"edges (parent, child, calls)": first["edges"]}
    return [base] + traced, layers, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "accbft", "__init__.py")):
        sys.stderr.write("no simulator sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pinned = json.load(fh).get(args.workload, {}).get(str(args.seed))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in contract["workloads"]}[args.workload]

    try:
        if args.trace:
            runs, values, problems, notes = measure_layers(args.workload, args.seed, deadline)
        else:
            runs, values, notes = measure_e2e(args.workload, args.seed, args.seconds, deadline)
            problems = determinism_problems(runs)
    except WorkerError as exc:
        sys.stderr.write("%s\n" % exc)
        return 2

    failed = 0
    for i, res in enumerate(runs):
        bad = output_problems(res, pinned)
        if bad:
            failed += 1
            problems += ["run %d: %s" % (i, b) for b in bad]

    print("workload %s seed %d: %s" % (args.workload, args.seed, why))
    print("environment %s" % json.dumps(environment(), sort_keys=True))
    print("outcome digest %s (%s); canonical_record sha256 %s (not gated)" % (
        runs[0]["outcome_digest"], "pinned" if pinned else "no pin for this seed",
        runs[0]["record_sha256"]))
    for key, value in notes.items():
        print("%s: %s" % (key, json.dumps(value)))
    if not args.trace:
        print("%-24s %14.6f %s" % ("error_rate", failed / len(runs), "ratio"))
    for spec in wanted:
        print("%-40s %18.6f %s" % (spec["name"], values[spec["name"]], spec["unit"]))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
