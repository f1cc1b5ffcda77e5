"""Event-driven progress: a dispatched message pumps its instance only when a
count, a bin_vals entry or d_r moved in a way that can fire a trigger.

The gates must never hold back a pump that would have acted.  Forcing every
gate open (each dispatch pumps) must therefore give byte-identical records,
on scenarios that cross every gate: clean runs, a binary fork on a ledger,
a spammer whose exclusion moves d_r mid-instance, and agreement under faults.
"""

from pathlib import Path

import pytest

from accbft.binary import BinaryInstance
from accbft.broadcast import BroadcastInstance
from accbft.consensus import NodeCore
from accbft.scenarios import canonical_record, clean_scenario, load_scenario, run_scenario

STOCK = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize(
    "name", ["agreement-n7", "clean-n10", "fork-binary-ledger-n9", "spam-n4"]
)
def test_gated_pumps_give_the_records_of_pumping_on_every_dispatch(name, monkeypatch):
    if name == "clean-n10":
        scn = clean_scenario(10)
    else:
        scn = load_scenario(STOCK / (name + ".json"))
    seeds = (1, 2, 3)
    gated = [canonical_record(run_scenario(scn, s).record) for s in seeds]
    for cls in (BinaryInstance, BroadcastInstance):
        monkeypatch.setattr(cls, "_stale", lambda self: True)
    assert [canonical_record(run_scenario(scn, s).record) for s in seeds] == gated


def test_pumps_per_decision_and_per_delivery_stay_low(monkeypatch):
    """Clean n=10, seed 1: pumping on every dispatch made about 34 binary
    pumps per decision and 12 broadcast pumps per delivery; the gates leave
    about 5 and 2."""
    calls = {"binary": 0, "broadcast": 0, "decided": 0, "delivered": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(BinaryInstance, "pump", "binary")
    counting(BroadcastInstance, "pump", "broadcast")
    counting(NodeCore, "instance_decided", "decided")
    counting(NodeCore, "rb_delivered", "delivered")
    run_scenario(clean_scenario(10), 1)
    assert calls["decided"] == calls["delivered"] == 100
    assert calls["binary"] <= 10 * calls["decided"]
    assert calls["broadcast"] <= 4 * calls["delivered"]
