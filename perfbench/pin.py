"""Re-pin the outcome digests that the benchmark's output check compares with.

    python3 perfbench/pin.py FIRST_SEED LAST_SEED

Runs every workload once per seed in the range (inclusive), one fresh worker
at a time, and merges the digests into ``perfbench/pins.json``.  A run that
fails the run-level conditions is reported and left unpinned; the exit code
is then 1.  Only re-pin on a commit whose simulated behaviour is meant to
change, re-pin every seed already pinned, and say so in that change.
"""

import json
import os
import sys
import time

import workloads
from run import run_worker

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    first, last = int(argv[1]), int(argv[2])
    fresh = {name: {} for name in workloads.NAMES}
    failed = 0
    for name in workloads.NAMES:
        for seed in range(first, last + 1):
            res = run_worker("run", name, seed, time.monotonic() + 600)
            if res["problems"]:
                sys.stderr.write("%s seed %d: %s\n" % (name, seed, res["problems"]))
                failed += 1
                continue
            fresh[name][str(seed)] = res["outcome_digest"]
            print(json.dumps({"workload": name, "seed": seed, **{k: res[k] for k in (
                "frames", "wall_s", "peak_rss_mb", "decide_vms_p50", "decide_vms_tail",
                "decide_tail_pct", "decide_samples", "frames_per_height", "outcome_digest")}}),
                flush=True)
    path = os.path.join(HERE, "pins.json")
    with open(path, encoding="utf-8") as fh:
        pins = json.load(fh)
    for name, digests in fresh.items():
        pins.setdefault(name, {}).update(digests)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
