"""Virtual network: delay discipline, fault filters, event loop contracts."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    def __init__(self, net=None):
        self.net = net
        self.frames = []
        self.timers = []
        self.ticks = []  # delivery tick of each frame, given a net

    def deliver_frame(self, src, msg):
        self.frames.append((src, msg))
        if self.net is not None:
            self.ticks.append(self.net.now)

    def on_timer(self, key):
        self.timers.append(key)


def envelope(registry, *, kind=Kind.INIT, chan=CHAN_BCAST, round=1, phase=0):
    iid = (0, 0, GROUP_MAIN, chan, 1)
    return make_message(registry, 1, kind, iid, round, phase, b"v")


def delivery_ticks(net, registry, dst, frames=1, src=1):
    """Send ``frames`` frames src -> dst at the current tick, run the net, and
    return the ticks at which dst's host received them."""
    host = RecordingHost(net)
    net.add_host(dst, host)
    for _ in range(frames):
        net.send(src, [dst], envelope(registry))
    assert net.run() == "quiescent"
    return host.ticks


def test_pre_stabilisation_sends_land_by_gst_plus_delta(registry):
    net = slow_net()
    assert net.now < GST
    ticks = delivery_ticks(net, registry, 2, frames=21)
    assert all(t <= GST + DELTA for t in ticks)
    assert ticks == [GST + DELTA] * 21  # raw sample always exceeds the clamp


def test_post_stabilisation_delay_is_bounded_by_delta(registry):
    net = slow_net()
    net.now = GST
    assert delivery_ticks(net, registry, 2, frames=20) == [GST + DELTA] * 20


def test_fast_sends_are_not_stretched(registry):
    net = VirtualNet(
        NetConfig(delta=DELTA, gst=GST, base=UniformDelay(1_000, 2_000)),
        3,
        horizon=10**9,
    )
    [tick] = delivery_ticks(net, registry, 2)
    assert 1_000 <= tick <= 2_000


def test_delay_sampling_is_seed_deterministic(registry):
    take = lambda seed: delivery_ticks(slow_net(seed, 1_000, 90_000), registry, 2, frames=12)
    assert take(5) == take(5)
    assert take(5) != take(6)


def test_attacker_reads_the_wire_instantly(registry):
    net = slow_net()
    net.attacker_pids.add(9)
    assert delivery_ticks(net, registry, 9) == [0]


def test_cross_partition_model_applies(registry):
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
    hosts = {p: RecordingHost(net) for p in (2, 3)}
    for p, h in hosts.items():
        net.add_host(p, h)
    net.send(1, [3, 2], envelope(registry))
    assert net.run() == "quiescent"
    assert hosts[2].ticks == [1_000]
    assert hosts[3].ticks == [500_000]


def test_trace_delay_table(registry):
    trace = TraceDelay(
        table=(("eu", "us", 80_000), ("eu", "eu", 10_000), ("us", "us", 20_000)),
        regions=("eu", "us"),
        jitter=1_000,
    )
    assert trace.lookup("eu", "us") == trace.lookup("us", "eu") == 80_000
    with pytest.raises(KeyError):
        trace.lookup("eu", "apac")
    net = VirtualNet(NetConfig(delta=10**6, gst=0, base=trace), 0, horizon=10**9)
    ticks = delivery_ticks(net, registry, 1, frames=30, src=0)  # regions eu -> us
    assert len(ticks) == 30 and all(80_000 <= t <= 81_000 for t in ticks)


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
    net.send(1, [2], envelope(registry))
    assert net.stats.omitted == 1 and net.stats.sends == 0
    del net.send_filters[1]
    net.send(1, [2], envelope(registry))
    net.send(1, [2], envelope(registry, kind=Kind.BVECHO, chan=CHAN_BINARY, phase=1))
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
    net.send(1, [1, 2, 3], envelope(registry))
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


def _tracked_objects_added(send):
    """GC-tracked objects a send leaves behind, the collector paused."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        send()
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


@pytest.mark.parametrize("spread", [0, 1_999])
def test_a_pending_frame_costs_no_object_of_its_own(registry, spread):
    """The calendar keeps a frame as two slots of its tick's list, the
    recipient and a (src, msg) tuple every recipient of the send shares, so
    a send to 1,000 recipients over k ticks adds k + 1 objects: k lists and
    one tuple."""
    net = VirtualNet(
        NetConfig(delta=10**9, gst=0, base=UniformDelay(1_000, 1_000 + spread)),
        1,
        horizon=10**12,
    )
    msg = envelope(registry)
    dsts = range(2, 1_002)
    net.send(1, dsts, msg)  # resolves every link
    assert net.run() == "quiescent" and not net._heap
    # a pending event keeps the calendar's dict tracked through the collection
    net.arm_timer(1, ("last",), 10_000)
    added = _tracked_objects_added(lambda: net.send(1, dsts, msg))
    ticks = len(net._heap) - 1
    assert ticks == 1 if spread == 0 else ticks > 500
    assert added <= ticks + 1
    hosts = {p: RecordingHost(net) for p in dsts}
    for p, h in hosts.items():
        net.add_host(p, h)
    net.add_host(1, hosts[2])
    assert net.run() == "quiescent"
    assert all(h.frames == [(1, msg)] for h in hosts.values())
    assert hosts[2].timers == [("last",)]


# -- event order and per-recipient draws ------------------------------------------


class ScriptedWorld:
    """Hosts that log every event they get and react from a script: each
    event handed to a host consumes the next reaction, which may send again
    (attacker recipients at zero delay, so into the tick being drained) or
    arm a timer.  ``log`` holds every push as (tick, pid, event) in push
    order, ``got`` every event as (tick, pid, event) in run order."""

    def __init__(self, registry, pids, attackers, seed, gst, delta, lo, hi, horizon, reactions):
        self.registry = registry
        self.net = VirtualNet(
            NetConfig(delta=delta, gst=gst, base=UniformDelay(lo, hi)), seed, horizon=horizon
        )
        self.net.trace = []
        self.net.attacker_pids.update(attackers)
        for pid in pids:
            self.net.add_host(pid, _ScriptedHost(self, pid))
        self.reactions = list(reactions)
        self.labels = 0
        self.log = []
        self.got = []

    def send(self, src, dsts):
        self.labels += 1
        msg = make_message(self.registry, src, Kind.INIT, (0, 0, GROUP_MAIN, CHAN_BCAST, src),
                           self.labels, 0, b"v")
        before = len(self.net.trace)
        self.net.send(src, dsts, msg)
        for ev in self.net.trace[before:]:
            assert ev["round"] == self.labels
            self.log.append((ev["at"], ev["to"], ("frame", self.labels)))

    def arm(self, pid, delay):
        self.labels += 1
        self.net.arm_timer(pid, (self.labels,), delay)
        self.log.append((self.net.now + max(delay, 1), pid, ("timer", self.labels)))

    def seen(self, pid, event):
        self.got.append((self.net.now, pid, event))
        if self.reactions:
            self.act(pid, self.reactions.pop(0))

    def act(self, pid, action):
        if action is None:
            return
        if action[0] == "send":
            self.send(pid, action[1])
        else:
            self.arm(pid, action[1])

    def expected(self, horizon=None):
        order = sorted(range(len(self.log)), key=lambda i: (self.log[i][0], i))
        out = [self.log[i] for i in order]
        return [e for e in out if horizon is None or e[0] <= horizon]


class _ScriptedHost:
    def __init__(self, world, pid):
        self.world = world
        self.pid = pid

    def deliver_frame(self, src, msg):
        self.world.seen(self.pid, ("frame", msg.round))

    def on_timer(self, key):
        self.world.seen(self.pid, ("timer", key[0]))


_PIDS = (1, 2, 3, 4, 5)
_ACTION = st.one_of(
    st.none(),
    st.tuples(st.just("send"), st.lists(st.sampled_from(_PIDS), max_size=5)),
    st.tuples(st.just("timer"), st.integers(0, 6)),
)
_WORLD = st.fixed_dictionaries(
    {
        "attackers": st.sets(st.sampled_from(_PIDS), max_size=3),
        "seed": st.integers(0, 2**16),
        "gst": st.integers(0, 12),
        "delta": st.integers(1, 8),
        "lo": st.integers(0, 3),
        "spread": st.integers(0, 4),
        "first": st.lists(st.tuples(st.sampled_from(_PIDS), _ACTION), min_size=1, max_size=8),
        "reactions": st.lists(_ACTION, max_size=40),
    }
)


def _scripted(registry, spec, horizon=10**9):
    world = ScriptedWorld(
        registry, _PIDS, spec["attackers"], spec["seed"], spec["gst"], spec["delta"],
        spec["lo"], spec["lo"] + spec["spread"], horizon, spec["reactions"],
    )
    for pid, action in spec["first"]:
        world.act(pid, action)
    return world


@settings(max_examples=300, deadline=None)
@given(_WORLD, st.integers(0, 60), st.integers(0, 30))
def test_events_run_in_tick_then_push_order(registry, spec, budget, horizon):
    full = _scripted(registry, spec)
    assert full.net.run() == "quiescent"
    assert full.got == full.expected()
    assert full.got == sorted(full.got, key=lambda e: e[0])

    # a budget stop leaves the rest queued, even inside a tick
    cut = _scripted(registry, spec)
    stop = cut.net.run(event_budget=budget)
    assert cut.got == full.got[:budget]
    assert stop == ("budget" if budget < len(full.got) else "quiescent")
    assert cut.net.run() == "quiescent"
    assert cut.got == full.got

    short = _scripted(registry, spec, horizon=horizon)
    stop = short.net.run()
    assert short.got == short.expected(horizon)
    assert short.got == [e for e in full.got if e[0] <= horizon]
    assert stop == ("horizon" if len(short.got) < len(full.got) else "quiescent")


def test_budget_stop_inside_a_tick_keeps_the_rest_of_the_tick(registry):
    net = slow_net()
    host = RecordingHost()
    net.add_host(1, host)
    for k in range(4):
        net.arm_timer(1, ("t", k), 5_000)
    net.arm_timer(1, ("late",), 6_000)
    assert net.run(event_budget=2) == "budget"
    assert host.timers == [("t", 0), ("t", 1)] and net.now == 5_000
    assert net.run(event_budget=2) == "budget"
    assert host.timers == [("t", k) for k in range(4)] and net.now == 5_000
    assert net.run() == "quiescent"
    assert host.timers[-1] == ("late",)


_MODELS = st.one_of(
    st.builds(UniformDelay, st.integers(0, 50), st.integers(0, 70_000)).filter(lambda m: m.lo <= m.hi),
    st.builds(GammaDelay, st.floats(0.5, 4.0), st.integers(1, 5_000)),
    st.builds(
        TraceDelay,
        st.just((("eu", "us", 7_000), ("eu", "eu", 900), ("us", "us", 1_100))),
        st.just(("eu", "us")),
        st.integers(0, 70_000),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_MODELS, st.integers(0, 2**16), st.lists(st.booleans(), min_size=1, max_size=9))
def test_each_recipient_takes_one_draw_in_pid_order(registry, model, seed, keep):
    """A frame to k recipients draws what k randint (or gammavariate) calls
    draw from a twin Random, in pid order, skipping the recipients a send
    filter drops; delays are unclamped here (GST 0, huge delta)."""
    dsts = list(range(2, 2 + len(keep)))
    net = VirtualNet(NetConfig(delta=10**9, gst=0, base=model), seed, horizon=10**12)
    hosts = {p: RecordingHost(net) for p in dsts}
    for p, h in hosts.items():
        net.add_host(p, h)
    verdicts = iter(keep)
    net.send_filters[1] = lambda m: m if next(verdicts) else None
    net.send(1, reversed(dsts), envelope(registry))
    assert net.run() == "quiescent"

    twin = random.Random(seed)
    for dst, kept in zip(dsts, keep):
        if not kept:
            assert hosts[dst].ticks == []
        elif isinstance(model, UniformDelay):
            assert hosts[dst].ticks == [twin.randint(model.lo, model.hi)]
        elif isinstance(model, TraceDelay):
            region = model.regions[dst % 2]
            assert hosts[dst].ticks == [model.lookup("us", region) + twin.randint(0, model.jitter)]
        else:
            assert hosts[dst].ticks == [int(twin.gammavariate(model.shape, model.scale))]
    assert net.rng.random() == twin.random()  # no draw more, no draw less
    assert net.stats.sends == sum(keep) and net.stats.omitted == len(keep) - sum(keep)


def test_an_empty_delay_range_is_refused(registry):
    net = VirtualNet(NetConfig(delta=DELTA, gst=0, base=UniformDelay(5, 4)), 1, horizon=10**9)
    with pytest.raises(ValueError):
        net.send(1, [2], envelope(registry))
