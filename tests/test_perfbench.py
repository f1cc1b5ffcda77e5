"""The benchmark's tracer and worker against the library as it is.

``perfbench/tracer.py`` wraps library names and ``perfbench/worker.py``
reads end-of-run state.  A refactor that moves a wrapped name, or breaks what
the worker reads, fails here instead of at the benchmark.  Both files are
imported as they are, from their own directory.
"""

import json
from pathlib import Path

import pytest

from accbft.consensus import MessageStore
from accbft.scenarios import (
    canonical_record,
    clean_scenario,
    llb_scenario,
    load_scenario,
    run_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
# per-layer names the worker reports; run.py adds the tracing overhead
LAYERS = {
    m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
} - {"trace.overhead_ratio"}


@pytest.mark.parametrize(
    "scn, msgsets",
    [
        pytest.param(clean_scenario(4), 0, id="clean-n4"),
        pytest.param(llb_scenario(heights=4), 0, id="llb-h4"),
        pytest.param(load_scenario(ROOT / "scenarios" / "spam-n4.json"), 29, id="spam-n4"),
    ],
)
def test_the_benchmark_tracer_measures_a_run_without_changing_it(scn, msgsets, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    import worker

    want = canonical_record(run_scenario(scn, 1).record)
    admit = MessageStore.admit
    tr = tracer.Tracer()
    tr.install()
    try:
        outcome = run_scenario(scn, 1)
    finally:
        tr.uninstall()
    assert MessageStore.admit is admit
    text = canonical_record(outcome.record)
    assert text == want
    layers, calls = worker.layer_metrics(tr, outcome.world, outcome.record, 0.0, len(text))
    assert set(layers) == LAYERS
    assert calls["consensus.deliver_frame"] > 0
    assert calls["consensus.admit"] == sum(tr.admit_status.values()) > 0
    assert layers["consensus.msgset.frames"] == msgsets
    stores = [core.store for core in worker.all_cores(outcome.world)]
    held = sum(len(log) for store in stores for log in store.by_instance.values())
    assert layers["consensus.store.slots_final"] == held
