"""Virtual network: delay discipline, fault filters, event loop contracts."""

import random

import pytest

from accbft.crypto import (
    CHAN_BCAST,
    CHAN_BINARY,
    CHAN_CONFIRM,
    GROUP_MAIN,
    Kind,
    make_message,
    verify_message,
)
from accbft.simnet import (
    BenignBehavior,
    GammaDelay,
    NetConfig,
    TraceDelay,
    UniformDelay,
    VirtualNet,
    make_benign_filter,
    make_garble_filter,
)

DELTA = 30_000
GST = 100_000


def slow_net(seed=1, lo=200_000, hi=300_000):
    return VirtualNet(
        NetConfig(delta=DELTA, gst=GST, base=UniformDelay(lo, hi)),
        seed,
        horizon=10**9,
    )


class RecordingHost:
    def __init__(self):
        self.frames = []
        self.timers = []

    def deliver_frame(self, src, msg):
        self.frames.append((src, msg))

    def on_timer(self, key):
        self.timers.append(key)


def envelope(registry, *, kind=Kind.INIT, chan=CHAN_BCAST, round=1, phase=0):
    iid = (0, 0, GROUP_MAIN, chan, 1)
    return make_message(registry, 1, kind, iid, round, phase, b"v")


def test_pre_stabilisation_sends_land_by_gst_plus_delta():
    net = slow_net()
    assert net.now < GST
    for _ in range(20):
        assert net.delay(1, 2) <= GST + DELTA
    assert net.delay(1, 2) == GST + DELTA  # raw sample always exceeds the clamp


def test_post_stabilisation_delay_is_bounded_by_delta():
    net = slow_net()
    net.now = GST
    for _ in range(20):
        assert net.delay(1, 2) == DELTA


def test_fast_sends_are_not_stretched():
    net = VirtualNet(
        NetConfig(delta=DELTA, gst=GST, base=UniformDelay(1_000, 2_000)),
        3,
        horizon=10**9,
    )
    assert 1_000 <= net.delay(1, 2) <= 2_000


def test_delay_sampling_is_seed_deterministic():
    take = lambda seed: [slow_net(seed, 1_000, 90_000).delay(1, 2) for _ in range(12)]
    assert take(5) == take(5)
    assert take(5) != take(6)


def test_attacker_reads_the_wire_instantly():
    net = slow_net()
    net.attacker_pids.add(9)
    assert net.delay(1, 9) == 0


def test_cross_partition_model_applies():
    net = VirtualNet(
        NetConfig(
            delta=10**6,
            gst=0,
            base=UniformDelay(1_000, 1_000),
            cross=UniformDelay(500_000, 500_000),
        ),
        1,
        horizon=10**9,
    )
    net.partition_of.update({1: 0, 2: 0, 3: 1})
    assert net.delay(1, 2) == 1_000
    assert net.delay(1, 3) == 500_000


def test_trace_delay_table():
    trace = TraceDelay(
        table=(("eu", "us", 80_000), ("eu", "eu", 10_000), ("us", "us", 20_000)),
        regions=("eu", "us"),
        jitter=1_000,
    )
    assert trace.lookup("eu", "us") == trace.lookup("us", "eu") == 80_000
    with pytest.raises(KeyError):
        trace.lookup("eu", "apac")
    rng = random.Random(0)
    for _ in range(30):
        d = trace.sample_pair(rng, 0, 1)  # regions eu -> us
        assert 80_000 <= d <= 81_000


def test_gamma_delay_is_non_negative():
    model = GammaDelay(shape=2.0, scale=3_000)
    rng = random.Random(1)
    assert all(model.sample(rng) >= 0 for _ in range(50))


# -- fault filters ----------------------------------------------------------------


def test_crashed_process_sends_nothing(registry):
    net = slow_net()
    filt = make_benign_filter(net, BenignBehavior(kind="crash_at", crash_at=0), random.Random(0))
    assert filt(envelope(registry)) is None
    late = make_benign_filter(net, BenignBehavior(kind="crash_at", crash_at=10**9), random.Random(0))
    assert late(envelope(registry)) is not None


def test_omission_fraction_extremes(registry):
    net = slow_net()
    always = make_benign_filter(net, BenignBehavior(kind="omit_fraction", omit_p=1.0), random.Random(0))
    never = make_benign_filter(net, BenignBehavior(kind="omit_fraction", omit_p=0.0), random.Random(0))
    assert always(envelope(registry)) is None
    assert never(envelope(registry)) is not None


def test_stale_process_is_stuck_in_its_first_round(registry):
    net = slow_net()
    filt = make_benign_filter(net, BenignBehavior(kind="stale"), random.Random(0))
    assert filt(envelope(registry, kind=Kind.INIT, round=1)) is not None
    assert filt(envelope(registry, kind=Kind.ECHO, round=1, phase=1)) is not None
    assert filt(envelope(registry, kind=Kind.ECHO, round=2, phase=1)) is None
    assert filt(envelope(registry, chan=CHAN_CONFIRM)) is None
    assert filt(envelope(registry, kind=Kind.BVECHO, chan=CHAN_BINARY, phase=2)) is None
    assert filt(envelope(registry, kind=Kind.BVECHO, chan=CHAN_BINARY, phase=1)) is not None
    assert filt(envelope(registry, kind=Kind.MSGSET)) is None


def test_garble_filter_drops_or_corrupts(registry):
    msg = envelope(registry)
    dropper = make_garble_filter(random.Random(0), garble_p=0.0, drop_p=1.0)
    assert dropper(msg) is None
    garbler = make_garble_filter(random.Random(0), garble_p=1.0, drop_p=0.0)
    out = garbler(msg)
    assert out is not None and out is not msg
    assert out.signature != msg.signature
    assert not verify_message(registry, out)
    assert verify_message(registry, msg)
    clean = make_garble_filter(random.Random(0), garble_p=0.0, drop_p=0.0)
    assert clean(msg) is msg


# -- loop and stats -----------------------------------------------------------------


def test_send_filter_and_stats(registry):
    net = slow_net()
    host = RecordingHost()
    net.add_host(2, host)
    net.send_filters[1] = lambda m: None
    net.send(1, 2, envelope(registry))
    assert net.stats.omitted == 1 and net.stats.sends == 0
    del net.send_filters[1]
    net.send(1, 2, envelope(registry))
    net.send(1, 2, envelope(registry, kind=Kind.BVECHO, chan=CHAN_BINARY, phase=1))
    assert net.stats.sends == 2
    assert net.stats.by_channel == {CHAN_BCAST: 1, CHAN_BINARY: 1}
    assert net.stats.sends_post_gst == 0  # all fired before stabilisation
    assert net.run() == "quiescent"
    assert [src for src, _ in host.frames] == [1, 1]


def test_broadcast_skips_self(registry):
    net = slow_net()
    hosts = {p: RecordingHost() for p in (1, 2, 3)}
    for p, h in hosts.items():
        net.add_host(p, h)
    net.broadcast(1, [1, 2, 3], envelope(registry))
    assert net.run() == "quiescent"
    assert hosts[1].frames == []
    assert len(hosts[2].frames) == 1 and len(hosts[3].frames) == 1


def test_simultaneous_timers_fire_in_arm_order():
    net = slow_net()
    host = RecordingHost()
    net.add_host(1, host)
    net.arm_timer(1, ("b",), 5_000)
    net.arm_timer(1, ("a",), 5_000)
    assert net.run() == "quiescent"
    assert host.timers == [("b",), ("a",)]


def test_run_stops_at_horizon_and_budget():
    net = VirtualNet(
        NetConfig(delta=DELTA, gst=0, base=UniformDelay(1, 2)), 1, horizon=1_000
    )
    net.add_host(1, RecordingHost())
    net.arm_timer(1, ("late",), 2_000)
    assert net.run() == "horizon"

    net2 = slow_net()
    net2.add_host(1, RecordingHost())
    for k in range(5):
        net2.arm_timer(1, ("t", k), 1_000 + k)
    assert net2.run(event_budget=2) == "budget"
