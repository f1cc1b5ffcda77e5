"""Executable fault scenarios: wire a virtual network, run it, measure it.

A Scenario is a JSON-friendly description of one experiment.  Every duration
field carries an explicit ``_ms`` suffix (virtual milliseconds); fault counts
are never defaulted — a run always states its full profile.  ``run_scenario``
builds the world, drives it to quiescence (or the horizon), and returns a
canonical, byte-stable record of what happened.

The adversary is a single network host impersonating every deceitful process
at once.  It runs one shadow protocol stack per (partition, deceitful id):
each partition's audience sees a coherent, correctly-signed participant, the
partitions see conflicting ones.  Shadows sign with the real keys, so the
resulting fraud proofs come from ordinary message comparison rather than any
simulator back door.  A shadow is a ``NodeCore`` in all but three things,
which its subclass ``_ShadowCore`` changes: it sends only to its partition
(and its siblings there), its timers carry its shadow key, and it drops
fraud evidence.  At its retirement time (the stabilisation point by default)
the whole coalition goes silent.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import deque
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from math import ceil
from typing import Iterable, NamedTuple, Optional

from .analysis import as_fraction
from .committee import Committee, FaultProfile, default_h0, threshold_tolerated
from .consensus import NodeCore, ProtoConfig, decode_value_set
from .crypto import CHAN_BINARY, KeyRegistry
from .ledger import (
    Block,
    DepositPolicy,
    LedgerState,
    decode_block,
    make_genesis,
    synthetic_transactions,
    tx_valid,
    within_gain_cap,
)
from .membership import AsmrProcess, fraud_trigger_threshold, h_prime_preset
from .simnet import (
    TICKS_PER_MS,
    BenignBehavior,
    GammaDelay,
    NetConfig,
    TraceDelay,
    UniformDelay,
    VirtualNet,
    make_benign_filter,
    make_garble_filter,
)

RECORD_SCHEMA = 1

class ScenarioError(ValueError):
    """A scenario description failed validation; .problems lists each field."""

    def __init__(self, problems: Iterable[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    t: int  # arbitrary-faulty (may garble or drop its own traffic)
    d: int  # deceitful (equivocates, coordinated by the adversary host)
    q: int  # benign-faulty (omits, crashes, or goes stale)
    delta_ms: int
    gst_ms: int
    horizon_ms: int
    h0: Optional[int] = None          # default: ceil(2n/3)
    h_prime0: object = "consensus"    # int, or a preset name
    # the one decision rule; kept because records and CSV rows carry it
    mode: str = "superblock"
    heights: int = 1
    alpha: Optional[str] = None       # confirmation ratio, e.g. "4/9"
    seeds: tuple = (1,)
    delay: dict = field(default_factory=lambda: {"model": "uniform", "lo_ms": 1, "hi_ms": 10})
    cross_delay: Optional[dict] = None
    partitions: Optional[tuple] = None  # groups of non-deceitful pids
    attack: Optional[dict] = None
    benign: Optional[dict] = None
    byzantine: Optional[dict] = None
    pool: int = 0
    deposit: Optional[dict] = None
    payload: str = "tokens"
    txs_per_block: int = 4

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


_REQUIRED = tuple(
    f.name for f in fields(Scenario)
    if f.default is MISSING and f.default_factory is MISSING
)


def scenario_from_dict(raw: dict) -> Scenario:
    """Parse a scenario description, collecting field-level diagnostics."""
    problems = []
    kwargs = dict(raw)
    for key in _REQUIRED:
        if key not in kwargs:
            problems.append("%s: required field missing" % key)
    for key in sorted(set(kwargs) - set(SCHEMA)):
        problems.append("%s: unknown field" % key)
    if problems:
        raise ScenarioError(problems)
    # malformed shapes pass through as given, for validate_scenario to report
    if isinstance(kwargs.get("seeds"), list):
        kwargs["seeds"] = tuple(kwargs["seeds"])
    parts = kwargs.get("partitions")
    if isinstance(parts, list) and all(isinstance(p, list) for p in parts):
        kwargs["partitions"] = tuple(tuple(p) for p in parts)
    scn = Scenario(**kwargs)
    problems = validate_scenario(scn)
    if problems:
        raise ScenarioError(problems)
    return scn


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # malformed JSON, bytes that are not UTF-8, or nesting too deep
            raise ScenarioError(["json: %s" % exc]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(["json: top level must be an object"])
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# the schema
# ---------------------------------------------------------------------------


class Field(NamedTuple):
    """One scenario field.  ``kind`` is int, num, ratio, str, enum, list or
    object.  Numbers and ratios (a ratio may be a string such as "4/9") lie in
    [lo, hi], or (lo, hi] with ``open_lo``.  A str fully matches ``pattern``,
    an enum is one of ``choices`` (or an integer in [lo, hi] if ``hi`` is
    set), a list has ``lo`` to ``hi`` items matching ``item`` (or is a row
    that matches a tuple ``item``), an object takes only its ``keys`` and
    those of its model in ``models``.  ``default`` fills a missing key, or a
    top-level object that is absent or empty.  ``msg`` replaces the
    diagnostic, for an object also its keys' ones; ``note`` tells the README
    what absent means.
    """

    kind: str
    lo: object = None
    hi: object = None
    unit: str = ""
    default: object = None
    required: bool = False
    open_lo: bool = False
    choices: tuple = ()
    pattern: str = "(?s).*"
    item: object = None
    keys: Optional[dict] = None
    models: Optional[dict] = None
    msg: str = ""
    note: str = ""

    def rule(self) -> str:
        """What a value must be, worded as its diagnostic."""
        sign = "positive" if self.lo else "non-negative"
        return self.msg or _RULES[self.kind].format(self, sign, "(" if self.open_lo else "[")

    def fits(self, v) -> bool:
        """Whether ``v`` is a valid value of this field (any kind but object)."""
        kind, lo, hi, item = self.kind, self.lo, self.hi, self.item
        if kind == "str":
            return isinstance(v, str) and re.fullmatch(self.pattern, v) is not None
        if kind == "enum" and (v in self.choices or hi is None):
            return v in self.choices  # else it may be an integer in [lo, hi]
        if kind == "list" and not isinstance(v, (list, tuple)):
            return False
        if kind == "list" and not isinstance(item, Field):  # a fixed-length row
            return len(v) == len(item) and all(map(Field.fits, item, v))
        if kind == "list":
            if len(v) < (lo or 0) or (hi is not None and len(v) > hi):
                return False
            return all(map(item.fits, v))
        if kind == "ratio" and not isinstance(v, bool):
            if isinstance(v, str) and not plain_ratio(v):
                return False
            try:
                v = as_fraction(v)
            except (ValueError, ZeroDivisionError, TypeError):
                return False
        elif isinstance(v, bool) or not isinstance(v, (int, float) if kind == "num" else int):
            return False
        above = lo is None or lo < v or lo == v and not self.open_lo
        return above and (hi is None or v <= hi)


_RULES = {
    "int": "must be a {1} integer{0.unit}, at most {0.hi}",
    "num": "must be a number{0.unit} in {2}{0.lo}, {0.hi}]",
    "ratio": "must be a non-negative ratio, at most {0.hi}",
    "str": "must match {0.pattern}",
    "enum": "must be one of {0.choices}",
    "object": "must be an object",
}

# Most seeds a scenario file's `seeds` list, a `run --seeds` list or a
# `suite --seeds` count may name; far above the 200 of the largest suite, and
# checked before anything is expanded.
MAX_SEEDS = 100_000

# A ratio string is digits with at most one "." and one "/": Fraction would
# also read an exponent, and "1e1000000000" makes it build 10**1000000000.
_RATIO_CHARS = frozenset("0123456789./")


def plain_ratio(text: str) -> bool:
    """Whether a ratio string is digits with at most one "." and one "/"."""
    return set(text) <= _RATIO_CHARS and text.count(".") <= 1 and text.count("/") <= 1


# Every number is bounded.  Process ids and heights travel as 32-bit fields,
# and larger counts make building the world, the genesis block or a proposal
# loop for hours.  The deposit factor is the pool target in gain caps: a huge
# one funds a pool that every fork leaves whole, and the deposit flux a run
# records then means nothing.  A huge or non-finite delay number overflows the
# conversion to ticks or the gamma sampler, an infinite shape never returns a
# sample, and a gamma scale under one tick truncates to 0, which the sampler
# rejects.  The name is the stem of the files a run writes, so it holds no path.
_MAX_PROCESSES = 1000  # n, t, d, q, the standby pool
_MAX_DEPOSIT_FACTOR = 10**3  # in gain caps
_MAX_MS = 10**9
_MS, _COINS = " (milliseconds)", " (coin units)"
_COUNT = Field("int", 0, _MAX_PROCESSES)
_TICK = 1 / TICKS_PER_MS
_ROW = (Field("str"), Field("str"), Field("num", 0, _MAX_MS))  # [region, region, ms]
_DELAY_MODELS = {
    "uniform": Field("object", keys={
        "lo_ms": Field("int", 0, _MAX_MS, _MS, required=True),
        "hi_ms": Field("int", 0, _MAX_MS, _MS, required=True),
    }, msg="uniform needs integers 0 <= lo_ms <= hi_ms <= %d" % _MAX_MS),
    "gamma": Field("object", keys={
        "scale_ms": Field("num", _TICK, _MAX_MS, _MS, required=True),
        "shape": Field("num", 0, 1000, default=2.5, open_lo=True),
    }, msg="gamma needs shape in (0, 1000] and scale_ms in [%g, %d]" % (_TICK, _MAX_MS)),
    "trace": Field("object", keys={
        "table": Field("list", item=Field("list", item=_ROW), required=True,
                       msg="rows must be [region, region, ms in [0, %d]]" % _MAX_MS),
        "regions": Field("list", 1, item=Field("str"), required=True,
                         msg="must be a non-empty list of region names"),
        "jitter_ms": Field("int", 0, _MAX_MS, _MS, default=1),
    }),
}
_DELAY_KEYS = {"model": Field("enum", choices=tuple(_DELAY_MODELS), default="uniform")}
_PRESETS = ("eventual-consensus", "consensus", "awareness-optimal")

# One entry per Scenario field, in the same order.
SCHEMA = {
    "name": Field("str", pattern=r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$"),
    "n": Field("int", 1, _MAX_PROCESSES),
    "t": _COUNT,
    "d": _COUNT,
    "q": _COUNT,
    "delta_ms": Field("int", 1, _MAX_MS, _MS),
    "gst_ms": Field("int", 0, _MAX_MS, _MS),
    "horizon_ms": Field("int", 1, _MAX_MS, _MS),
    "h0": Field("int", 1, _MAX_PROCESSES, msg="must satisfy n/2 < h0 <= n", note="ceil(2n/3)"),
    "h_prime0": Field("enum", 1, _MAX_PROCESSES, choices=_PRESETS,
                      msg="must be one of %s or satisfy n/2 < h' <= n" % (_PRESETS,)),
    "mode": Field("enum", choices=("superblock",), msg="must be 'superblock'"),
    "heights": Field("int", 1, 10**6),
    "alpha": Field("ratio", 0, Fraction(2, 3), note="no confirmation round"),
    "seeds": Field("list", 1, MAX_SEEDS, item=Field("int"),
                   msg="must be a non-empty list of integers, at most %d of them" % MAX_SEEDS),
    "delay": Field("object", keys=_DELAY_KEYS, models=_DELAY_MODELS),
    "cross_delay": Field("object", keys=_DELAY_KEYS, models=_DELAY_MODELS, note="`delay`"),
    "partitions": Field("list", item=Field("list", item=Field("int")),
                        msg="must be a list of pid lists", note="no partitions"),
    "attack": Field("object", note="no adversary", keys={
        "kind": Field("enum", choices=("broadcast-fork", "binary-fork"), required=True),
        "targets": Field("int", 0, _MAX_PROCESSES, default=0),
        "retire_ms": Field("int", 0, _MAX_MS, _MS, note="`gst_ms`")}),
    "benign": Field("object", default={"kind": "crash_at", "crash_at_ms": 0}, keys={
        "kind": Field("enum", choices=("crash_at", "omit_fraction", "stale"), required=True),
        "crash_at_ms": Field("int", 0, _MAX_MS, _MS, default=0),
        "omit_p": Field("num", 0, 1, default=0.0)}),
    "byzantine": Field("object", default={"garble_p": 0.3, "drop_p": 0.2}, keys={
        "garble_p": Field("num", 0, 1, default=0.0),
        "drop_p": Field("num", 0, 1, default=0.0)}),
    "pool": _COUNT,
    "deposit": Field("object", default={}, keys={
        "gain_cap": Field("int", 0, 10**6, _COINS, default=400),
        "factor": Field("ratio", 0, _MAX_DEPOSIT_FACTOR, default="0.1"),
        "blockdepth": Field("int", 0, 10**6, " (blocks)", default=28),
        "balance": Field("int", 0, 10**6, _COINS, default=1000)}),
    "payload": Field("enum", choices=("tokens", "ledger")),
    "txs_per_block": Field("int", 0, 1000),
}
# the fields a Scenario may leave as None, meaning absent
_OPTIONAL = frozenset(f.name for f in fields(Scenario) if f.default is None)


def _problems(path: str, spec: Field, v) -> list[str]:
    """Diagnostics for the value ``v`` of the field at ``path``."""
    if spec.kind != "object" or not isinstance(v, dict):
        fits = spec.kind != "object" and spec.fits(v)
        return [] if fits else ["%s: %s" % (path, spec.rule())]
    keys, msg = spec.keys, spec.msg
    if spec.models is not None:
        model = v.get("model", keys["model"].default)
        if not keys["model"].fits(model):
            return _problems(path + ".model", keys["model"], model)
        keys, msg = {**keys, **spec.models[model].keys}, spec.models[model].msg
    unknown = sorted(set(v) - set(keys), key=str)
    if unknown:
        return ["%s.%s: unknown field" % (path, key) for key in unknown]
    bad = []
    for key, sub in keys.items():
        if key in v:
            bad += _problems("%s.%s" % (path, key), sub, v[key])
        elif sub.required:
            bad.append("%s.%s: required field missing" % (path, key))
    return ["%s: %s" % (path, msg)] if bad and msg else bad


def _filled(scn: Scenario, key: str) -> Optional[dict]:
    """Object field ``key`` of a valid ``scn`` with each missing key set to
    its default (the field's default object if it is absent or empty)."""
    spec = SCHEMA[key]
    value = getattr(scn, key) or spec.default
    if value is None:
        return None
    keys = spec.keys
    if spec.models is not None:
        keys = {**keys, **spec.models[value.get("model", keys["model"].default)].keys}
    return {**{k: sub.default for k, sub in keys.items()}, **value}


def validate_scenario(scn: Scenario) -> list[str]:
    """Each field checked against the schema, then the rules that tie the
    fields that passed to each other."""
    bad, ok = [], set(SCHEMA)
    for key, spec in SCHEMA.items():
        v = getattr(scn, key)
        problems = _problems(key, spec, v) if v is not None or key not in _OPTIONAL else []
        if problems:
            bad += problems
            ok.discard(key)
    if "n" not in ok:
        return bad
    n = scn.n
    d = scn.d if "d" in ok and scn.d <= n else 0
    if {"t", "d", "q"} <= ok and scn.t + scn.d + scn.q > n:
        bad.append("t+d+q: fault counts exceed n")
    for key in ("h0", "h_prime0"):
        h = getattr(scn, key)
        if key in ok and isinstance(h, int) and not n // 2 < h <= n:
            bad.append("%s: %s" % (key, SCHEMA[key].rule()))
    if {"gst_ms", "horizon_ms"} <= ok and scn.horizon_ms <= scn.gst_ms:
        bad.append("horizon_ms: must exceed gst_ms")
    parts = scn.partitions if "partitions" in ok else None
    seen: set[int] = set()
    for i, part in enumerate(parts or ()):
        for pid in part:
            why = (
                "out of range" if not 1 <= pid <= n
                else "is deceitful, not a partition member" if pid <= d
                else "listed twice" if pid in seen else ""
            )
            if why:
                bad.append("partitions[%d]: pid %d %s" % (i, pid, why))
            seen.add(pid)
    if isinstance(scn.attack, dict):
        if d < 1:
            bad.append("attack: requires d >= 1")
        if not parts or len(parts) < 2:
            bad.append("attack: requires >= 2 partitions to play against")
        attack = _filled(scn, "attack") if "attack" in ok else None
        if attack and attack["targets"] > d:
            bad.append("attack.targets: must be an integer in [0, d]")
        elif attack and attack["kind"] == "binary-fork" and attack["targets"] < 1:
            bad.append("attack.targets: binary-fork needs at least one target")
    byzantine = _filled(scn, "byzantine") if "byzantine" in ok else None
    if byzantine and byzantine["garble_p"] + byzantine["drop_p"] > 1:
        bad.append("byzantine: garble_p + drop_p must be at most 1")
    for key in ("delay", "cross_delay"):
        delay = _filled(scn, key) if key in ok else None
        if delay and delay["model"] == "uniform" and delay["lo_ms"] > delay["hi_ms"]:
            bad.append("%s: %s" % (key, _DELAY_MODELS["uniform"].msg))
        elif delay and delay["model"] == "trace":
            table, regions = delay["table"], delay["regions"]
            pairs = {(a, b) for a, b, _ in table} | {(b, a) for a, b, _ in table}
            missing = sorted({(a, b) for a in regions for b in regions} - pairs)
            if missing:
                bad.append("%s.table: no latency for region pair %s" % (key, missing[0]))
    return bad


def _delay_model(spec: dict):
    """The network's delay model for a filled-in delay object."""
    model = spec["model"]
    if model == "uniform":
        return UniformDelay(spec["lo_ms"] * TICKS_PER_MS, spec["hi_ms"] * TICKS_PER_MS)
    if model == "gamma":
        return GammaDelay(spec["shape"], int(spec["scale_ms"] * TICKS_PER_MS))
    return TraceDelay(
        table=tuple((a, b, ms * TICKS_PER_MS) for a, b, ms in spec["table"]),
        regions=tuple(spec["regions"]),
        jitter=spec["jitter_ms"] * TICKS_PER_MS,
    )


# ---------------------------------------------------------------------------
# role assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Roles:
    deceitful: tuple
    byzantine: tuple
    benign: tuple
    honest: tuple
    pool: tuple


def assign_roles(scn: Scenario) -> Roles:
    """Deterministic pid layout: deceitful first, then arbitrary-faulty,
    then benign, honest last; standby candidates get the ids above n."""
    cut1 = scn.d
    cut2 = cut1 + scn.t
    cut3 = cut2 + scn.q
    pids = list(range(1, scn.n + 1))
    return Roles(
        deceitful=tuple(pids[:cut1]),
        byzantine=tuple(pids[cut1:cut2]),
        benign=tuple(pids[cut2:cut3]),
        honest=tuple(pids[cut3:]),
        pool=tuple(range(scn.n + 1, scn.n + 1 + scn.pool)),
    )


def resolve_h_prime(value, n: int) -> int:
    if isinstance(value, str):
        return h_prime_preset(n, value)
    return int(value)


# ---------------------------------------------------------------------------
# the adversary
# ---------------------------------------------------------------------------


class _ShadowCore(NodeCore):
    """One shadow of the coalition: a NodeCore on the deceitful pid that
    sends only to its camp's audience over the network and to its camp
    siblings through the brain, tags its timers with its key in
    ``AdversaryBrain.shadows``, and drops fraud evidence."""

    def __init__(self, pid, registry, committee, cfg, net, brain, camp):
        super().__init__(pid, registry, committee, cfg, net)
        self.brain = brain
        self.camp = camp
        self.audience = set(brain.camps[camp])

    def _send(self, dsts, msg) -> None:
        self.net.send(self.pid, self.audience.intersection(dsts), msg)
        self.brain.sibling_fanout(self.camp, dsts, msg)

    def arm_retry(self, key: tuple, fires: int) -> None:
        super().arm_retry(((self.camp, self.pid), key), fires)

    def ingest_pofs(self, pofs) -> None:
        pass  # evidence dies here


class AdversaryBrain:
    """Coordinated deceitful coalition behind every deceitful pid.

    One shadow process stack per (camp, deceitful id), each on a
    ``_ShadowCore``.  Honest frames are fed to the sender's camp's shadows;
    shadow frames reach only their camp plus (instantly) their camp
    siblings, and a shadow's timer comes back here tagged with its
    (camp, id), which picks the shadow.  Fraud evidence delivered to the
    coalition is discarded — the adversary never helps accountability — and
    everything stops, and is freed, at ``retire_at``.
    """

    def __init__(self, world: "World", camps: tuple):
        scn = world.scn
        self.net = world.net
        self.deceitful = tuple(world.roles.deceitful)
        attack = _filled(scn, "attack")
        retire_ms = attack["retire_ms"]
        self.retire_at = (scn.gst_ms if retire_ms is None else retire_ms) * TICKS_PER_MS
        self.kind = attack["kind"]
        self.targets = attack["targets"]
        self.camps = camps
        self.camp_of = {pid: ci for ci, camp in enumerate(camps) for pid in camp}
        self.shadows: dict[tuple, AsmrProcess] = {}
        self._queue: deque = deque()
        self._draining = False
        self._seen: set = set()
        for ci in range(len(camps)):
            for pid in self.deceitful:
                self.shadows[(ci, pid)] = world.new_process(pid, brain=self, camp=ci)[0]

    def start(self) -> None:
        self._draining = True  # hold sibling traffic until every stack is up
        try:
            for key in sorted(self.shadows):
                self.shadows[key].start()
            if self.kind == "binary-fork":
                for (ci, _pid), proc in sorted(self.shadows.items()):
                    for rank, target in enumerate(self.deceitful[: self.targets]):
                        vote = 1 if (ci + rank) % 2 == 0 else 0
                        bin_ = proc.main_ctx.bins[target]
                        if not bin_.started:
                            bin_.propose(vote)
        finally:
            self._draining = False
        self._drain()

    # -- network host interface ---------------------------------------------

    def _silent(self) -> bool:
        """Whether the coalition has retired.  The first network event at or
        after ``retire_at`` drops the shadows and everything queued or seen
        for them, since nothing reaches them from then on.  Their stores
        give up their part of the network's shared slot index first."""
        if self.net.now < self.retire_at:
            return False
        if self.shadows:
            for proc in self.shadows.values():
                proc.core.store.release()
            self.shadows.clear()
            self._seen.clear()
            self._queue.clear()
        return True

    def deliver_frame(self, src: int, msg) -> None:
        if self._silent():
            return
        key = (src, msg.signature)  # one logical frame, many deceitful addressees
        if key in self._seen:
            return
        self._seen.add(key)
        src_camp = self.camp_of.get(src)
        camps = range(len(self.camps)) if src_camp is None else (src_camp,)
        for ci in camps:
            for pid in self.deceitful:
                self._queue.append((ci, pid, src, msg))
        self._drain()

    def on_timer(self, key) -> None:
        if self._silent():
            return
        shadow, inner = key
        self.shadows[shadow].core.on_timer(inner)
        self._drain()

    # -- coalition plumbing ---------------------------------------------------

    def sibling_fanout(self, camp: int, dsts, msg) -> None:
        # reached only from a shadow's own send, inside start or a drain, so
        # it checks the time without dropping the shadows under its caller;
        # like the network, it skips the sender
        if self.net.now >= self.retire_at:
            return
        for dst in dsts:
            if dst != msg.signer and (camp, dst) in self.shadows:
                self._queue.append((camp, dst, msg.signer, msg))
        self._drain()

    def _drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue:
                ci, pid, src, msg = self._queue.popleft()
                self.shadows[(ci, pid)].core.deliver_frame(src, msg)
        finally:
            self._draining = False


# ---------------------------------------------------------------------------
# world assembly
# ---------------------------------------------------------------------------


class World:
    """Everything one run owns: network, processes, adversary, ledgers."""

    def __init__(self, scn: Scenario, seed: int):
        problems = validate_scenario(scn)
        if problems:
            raise ScenarioError(problems)
        self.scn = scn
        self.seed = seed
        n = scn.n
        self.roles = assign_roles(scn)
        self.h0 = scn.h0 if scn.h0 is not None else default_h0(n)
        self.h_prime0 = resolve_h_prime(scn.h_prime0, n)
        self.alpha = as_fraction(scn.alpha) if scn.alpha is not None else None
        self.fraud_threshold = fraud_trigger_threshold(n, self.h0)
        self.members = tuple(range(1, n + 1))

        delta = scn.delta_ms * TICKS_PER_MS
        self.cfg = ProtoConfig(
            delta=delta, profile=FaultProfile(n=n, t=scn.t, d=scn.d, q=scn.q),
            alpha=self.alpha,
        )
        netcfg = NetConfig(
            delta=delta,
            gst=scn.gst_ms * TICKS_PER_MS,
            base=_delay_model(_filled(scn, "delay")),
            cross=_delay_model(_filled(scn, "cross_delay")) if scn.cross_delay else None,
        )
        self.net = VirtualNet(netcfg, seed, scn.horizon_ms * TICKS_PER_MS)

        all_pids = list(self.members) + list(self.roles.pool)
        self.registry = KeyRegistry(all_pids, seed=seed)

        camps = tuple(tuple(p) for p in (scn.partitions or ()))
        for ci, camp in enumerate(camps):
            for pid in camp:
                self.net.partition_of[pid] = ci

        # ledger plumbing (shared genesis, one replica state per process)
        self.policy: Optional[DepositPolicy] = None
        self.genesis: Optional[Block] = None
        self._base_state: Optional[LedgerState] = None
        self.ledgers: dict[int, LedgerState] = {}
        self._seqs: dict = {}
        # blob -> (decoded block or None, stateless validity), see _block_entry
        self._blocks: dict[bytes, tuple] = {}
        self._blocks_old: dict[bytes, tuple] = {}
        self._blocks_low = 0
        if scn.payload == "ledger":
            dep = _filled(scn, "deposit")
            self.policy = DepositPolicy(dep["gain_cap"], dep["factor"], n, dep["blockdepth"])
            balances = {pid: dep["balance"] for pid in all_pids}
            # balances split into <=100-coin outputs: one synthetic spend then
            # moves at most 100, keeping any txs_per_block<=4 block under the
            # default gain cap instead of busting it with whole-balance coins
            self.genesis, self._base_state = make_genesis(
                balances, deposit=int(ceil(self.policy.pool_target)), chunk=100
            )

        self.brain: Optional[AdversaryBrain] = None
        brain_pids: set[int] = set()
        if scn.attack is not None and self.roles.deceitful:
            self.brain = AdversaryBrain(self, camps)
            brain_pids = set(self.roles.deceitful)
            for pid in brain_pids:
                self.net.add_host(pid, self.brain)
                self.net.attacker_pids.add(pid)

        self.procs: dict[int, AsmrProcess] = {}
        regular = [p for p in self.members if p not in brain_pids]
        for pid in regular:
            self._build_process(pid, joined=True)
        for pid in self.roles.pool:
            self._build_process(pid, joined=False)
        self._wire_faults()

    # -- construction helpers -------------------------------------------------

    def fresh_ledger(self) -> Optional[LedgerState]:
        if self._base_state is None:
            return None
        return self._base_state.clone()

    def make_proposal_fn(self, pid: int, ledger: Optional[LedgerState], camp=None):
        if self.scn.payload == "ledger":
            def propose(height: int) -> bytes:
                salt = 0 if camp is None else camp + 1
                rng = random.Random(
                    (self.seed << 24) ^ (pid << 12) ^ (height << 4) ^ salt
                )
                seqs = self._seqs.setdefault((pid, camp), {})
                txs = synthetic_transactions(
                    self.registry, ledger, [pid], self.scn.txs_per_block, rng,
                    seqs=seqs, recipients=sorted(self.members),
                )
                parent = ledger.blocks[-1]
                return Block(height + 1, parent, pid, tuple(txs)).encoding()

            return propose

        if camp is None:
            return lambda height: b"blk:%d:%d" % (pid, height)
        return lambda height: b"blk:%d:%d:camp%d" % (pid, height, camp)

    def new_process(
        self, pid: int, joined: bool = True, brain=None, camp: Optional[int] = None
    ) -> tuple[AsmrProcess, Optional[LedgerState]]:
        """A process and its ledger replica (None for token payloads).  With
        a ``brain`` it is the shadow of ``pid`` in ``camp``: it runs on a
        ``_ShadowCore``, proposes its camp's blocks and knows no standby
        pool."""
        committee = Committee(initial=self.members, h0=self.h0)
        if brain is None:
            core = NodeCore(pid, self.registry, committee, self.cfg, self.net)
        else:
            core = _ShadowCore(pid, self.registry, committee, self.cfg, self.net, brain, camp)
        ledger = self.fresh_ledger()
        proc = AsmrProcess(
            core,
            self.members,
            self.h0,
            self.h_prime0,
            pool=self.roles.pool if brain is None else (),
            proposal_fn=self.make_proposal_fn(pid, ledger, camp),
            max_heights=self.scn.heights,
            joined=joined,
        )
        return proc, ledger

    def _build_process(self, pid: int, joined: bool) -> None:
        proc, ledger = self.new_process(pid, joined)
        if ledger is not None:
            self.ledgers[pid] = ledger
            proc.validator = self._block_validator(proc)
            proc.on_block = self._make_block_applier(ledger)
        proc.invite_hook = self._invite
        self.procs[pid] = proc
        self.net.add_host(pid, proc.core)

    def _block_entry(self, blob: bytes) -> tuple[Optional[Block], bool]:
        """The decoded block (None if it does not decode) and whether it
        passes the checks that read no process state: the gain cap and each
        transaction's ``tx_valid``.

        Every process shares the entry, so a blob is decoded and checked once
        while it stays in the table (see ``_age_blocks``); a later miss only
        decodes it again.
        """
        entry = self._blocks.get(blob)
        if entry is None:
            entry = self._blocks_old.pop(blob, None)
            if entry is None:
                try:
                    blk = decode_block(blob)
                except ValueError:
                    entry = (None, False)
                else:
                    entry = (
                        blk,
                        within_gain_cap(blk, self.policy)
                        and all(tx_valid(self.registry, tx) for tx in blk.txs),
                    )
            self._blocks[blob] = entry
        return entry

    def _age_blocks(self) -> None:
        """Start a new table generation when the lowest honest height rises.

        A blob's claimed height is chosen by its proposer, so only the honest
        processes' own progress may retire an entry.
        """
        low = min((self.procs[p].height for p in self.roles.honest), default=0)
        if low > self._blocks_low:
            self._blocks_low = low
            self._blocks_old = self._blocks
            self._blocks = {}

    def _block_validator(self, proc: AsmrProcess):
        def valid(src: int, value: bytes) -> bool:
            blk, ok = self._block_entry(value)
            return ok and blk.proposer == src and blk.height == proc.height + 1

        return valid

    def _make_block_applier(self, ledger: LedgerState):
        def apply(proc: AsmrProcess, rec: dict) -> None:
            for blob in self._decision_blocks(rec["block"]):
                ledger.merge_block(self._block_entry(blob)[0])
            self._age_blocks()

        return apply

    def _decision_blocks(self, decision: Optional[bytes]) -> list[bytes]:
        if not decision:
            return []
        return sorted(decode_value_set(decision))

    def _invite(self, chosen: list[int], snapshot: dict) -> None:
        for pid in chosen:
            proc = self.procs.get(pid)
            if proc is not None and not proc.joined:
                proc.join(snapshot)

    def _wire_faults(self) -> None:
        scn = self.scn
        if self.roles.benign:
            spec = _filled(scn, "benign")
            crash_at = spec["crash_at_ms"] * TICKS_PER_MS
            behavior = BenignBehavior(spec["kind"], crash_at, spec["omit_p"])
            for pid in self.roles.benign:
                rng = random.Random(self.seed * 7919 + pid)
                self.net.send_filters[pid] = make_benign_filter(self.net, behavior, rng)
        if self.roles.byzantine:
            spec = _filled(scn, "byzantine")
            for pid in self.roles.byzantine:
                rng = random.Random(self.seed * 104729 + pid)
                self.net.send_filters[pid] = make_garble_filter(
                    rng, spec["garble_p"], spec["drop_p"]
                )

    # -- running ---------------------------------------------------------------

    def start(self) -> None:
        for pid in sorted(self.procs):
            if self.procs[pid].joined:
                self.procs[pid].start()
        if self.brain is not None:
            self.brain.start()

    def reconcile_ledgers(self) -> None:
        """Post-run repair: every honest replica merges every decided block.

        Forked branches are folded together exactly as a real replica would
        on seeing the other branch, which is what realises the deposit flux:
        double-spent inputs get bought from the deposit, refunds recover what
        later turns out spendable, and accounts with proofs of fraud against
        them forfeit their outputs back into the pool.  Each replica first
        punishes the accounts it holds proofs against, then merges the
        distinct decided blobs in sorted order.  The blocks are streamed:
        each blob is decoded once, merged into every replica and let go
        before the next is decoded, so one decoded block is alive at a time.
        """
        blobs: set[bytes] = set()
        for pid in self.roles.honest:
            for rec in self.procs[pid].chain:
                blobs.update(self._decision_blocks(rec["block"]))
        ledgers = [self.ledgers[pid] for pid in self.roles.honest]
        for pid in self.roles.honest:
            for accused in sorted({p.accused for p in self.procs[pid].pofs.values()}):
                self.ledgers[pid].punish_account(accused)
        for blob in sorted(blobs):
            block = decode_block(blob)
            for ledger in ledgers:
                ledger.merge_block(block)
            del block  # let go before the next blob is decoded

    # -- measurement -------------------------------------------------------------

    def collect(self, stop_reason: str) -> dict:
        scn = self.scn
        honest = list(self.roles.honest)
        by_height: dict[int, dict[int, bytes]] = {}
        for pid in honest:
            for rec in self.procs[pid].chain:
                by_height.setdefault(rec["height"], {})[pid] = rec["block"]
        heights_done = {pid: len(self.procs[pid].chain) for pid in honest}
        detected = {pid: self.procs[pid].detected_at for pid in sorted(honest)}
        done_min = min(heights_done.values()) if heights_done else 0

        agreed = disagreements = 0
        branches_by_height: dict[int, int] = {}
        for h, decided in sorted(by_height.items()):
            distinct = len(set(decided.values()))
            branches_by_height[h] = distinct
            if distinct == 1 and len(decided) == len(honest):
                agreed += 1
            elif distinct > 1:
                disagreements += 1
        agreed_tail = 0
        for h in range(done_min - 1, -1, -1):
            decided = by_height.get(h, {})
            if len(decided) == len(honest) and len(set(decided.values())) == 1:
                agreed_tail += 1
            else:
                break

        ref = self.procs[honest[0]] if honest else None
        deceitful = set(self.roles.deceitful)
        trajectory = []
        if ref is not None:
            start_members = set(self.members)
            trajectory.append(
                [0, str(Fraction(len(deceitful & start_members), len(start_members)))]
            )
            for change in ref.changes:
                after = set(change["members"])
                trajectory.append(
                    [
                        change["completed_at"],
                        str(Fraction(len(deceitful & after), len(after))),
                    ]
                )

        changes = []
        if ref is not None:
            for change in ref.changes:
                changes.append(
                    {
                        "change": change["change"],
                        "triggered_at": change["triggered_at"],
                        "excluded_at": change["excluded_at"],
                        "completed_at": change["completed_at"],
                        "excluded": sorted(change["excluded"]),
                        "included": sorted(change["included"]),
                        "exclusion_ticks": change["excluded_at"] - change["triggered_at"],
                        "inclusion_ticks": change["completed_at"] - change["excluded_at"],
                    }
                )

        stats = self.net.stats
        instances = max(1, scn.n * max(done_min, 1))
        per_instance = stats.by_channel_post_gst.get(CHAN_BINARY, 0) / instances

        record = {
            "schema": RECORD_SCHEMA,
            "scenario": scn.name,
            "seed": self.seed,
            "n": scn.n,
            "t": scn.t,
            "d": scn.d,
            "q": scn.q,
            "h0": self.h0,
            "h_prime0": self.h_prime0,
            "mode": scn.mode,
            "alpha": scn.alpha,
            "payload": scn.payload,
            "stop_reason": stop_reason,
            "virtual_ticks": self.net.now,
            "honest": honest,
            "heights_target": scn.heights,
            "heights_done": {str(p): heights_done[p] for p in honest},
            "agreed_heights": agreed,
            "agreed_tail": agreed_tail,
            "disagreements": disagreements,
            "branches_by_height": {
                str(h): c for h, c in sorted(branches_by_height.items())
            },
            "branches_max": max(branches_by_height.values(), default=0),
            "phases": {str(p): self.procs[p].phase for p in sorted(self.procs)},
            "failures": {
                str(p): self.procs[p].failure
                for p in sorted(self.procs)
                if self.procs[p].failure
            },
            "membership_changes": {str(p): len(self.procs[p].changes) for p in honest},
            "changes": changes,
            "final_members": sorted(ref.members) if ref is not None else [],
            "excluded_members": sorted(set(self.members) - set(ref.members))
            if ref is not None
            else [],
            "committee_excluded": {
                str(p): sorted(self.procs[p].core.committee.local_deceitful)
                for p in honest
            },
            "ratio_trajectory": trajectory,
            "fraud_threshold": self.fraud_threshold,
            "pof_counts": {
                str(p): len(
                    {pof.accused for pof in self.procs[p].pofs.values()}
                )
                for p in honest
            },
            "accused": {
                str(p): sorted({pof.accused for pof in self.procs[p].pofs.values()})
                for p in honest
            },
            "detect_ticks": {str(p): t for p, t in detected.items() if t is not None},
            "time_to_detect_ticks": (
                max(detected.values()) if honest and None not in detected.values() else None
            ),
            "messages": {
                "total": stats.sends,
                "post_gst": stats.sends_post_gst,
                "omitted": stats.omitted,
                "by_channel": {str(k): v for k, v in sorted(stats.by_channel.items())},
                "by_channel_post_gst": {
                    str(k): v for k, v in sorted(stats.by_channel_post_gst.items())
                },
                "intra_delay_mean_ticks": (
                    round(stats.intra_delay_sum / stats.intra_delay_n, 3)
                    if stats.intra_delay_n
                    else None
                ),
                "cross_delay_mean_ticks": (
                    round(stats.cross_delay_sum / stats.cross_delay_n, 3)
                    if stats.cross_delay_n
                    else None
                ),
            },
            "msgs_per_binary_instance": round(per_instance, 6),
            # fingerprint of the replicated content only (local metadata such
            # as certificate digests and decide times legitimately differs)
            "chain_digests": {
                str(p): hashlib.sha256(
                    "\n".join(
                        "%d:%d:%s" % (rec["height"], rec["attempt"], rec["block"].hex())
                        for rec in self.procs[p].chain
                    ).encode()
                ).hexdigest()
                for p in honest
            },
        }
        if self.alpha is not None:
            record["confirm"] = {
                str(p): (
                    self.procs[p].main_ctx.confirmation
                    if self.procs[p].main_ctx is not None
                    else None
                )
                for p in honest
            }
        if scn.payload == "ledger":
            initial = int(ceil(self.policy.pool_target))
            fluxes = {
                str(p): self.ledgers[p].deposit - initial for p in honest
            }
            record["deposit"] = {
                "initial": initial,
                "final": {str(p): self.ledgers[p].deposit for p in honest},
                "flux": fluxes,
            }
        return record


@dataclass
class RunOutcome:
    record: dict
    world: World


def canonical_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def run_scenario(
    scn: Scenario, seed: int, event_budget: int = 20_000_000, trace: bool = False
) -> RunOutcome:
    world = World(scn, seed)
    if trace:
        world.net.trace = []
    world.start()
    stop = world.net.run(event_budget)
    if scn.payload == "ledger":
        world.reconcile_ledgers()
    return RunOutcome(record=world.collect(stop), world=world)


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------


def clean_scenario(
    n: int,
    *,
    name: Optional[str] = None,
    heights: int = 1,
    seeds: tuple = (1,),
    gst_ms: int = 0,
    horizon_ms: int = 60_000,
    payload: str = "tokens",
    alpha: Optional[str] = None,
) -> Scenario:
    """All-honest run with short delays; the complexity-measurement shape."""
    return Scenario(
        name=name or ("clean-n%d" % n),
        n=n,
        t=0,
        d=0,
        q=0,
        delta_ms=40,
        gst_ms=gst_ms,
        horizon_ms=horizon_ms,
        heights=heights,
        seeds=seeds,
        alpha=alpha,
        payload=payload,
        delay={"model": "uniform", "lo_ms": 1, "hi_ms": 8},
    )


def tolerated_profiles(n: int, h0: Optional[int] = None) -> list[tuple[int, int, int]]:
    """Every (t, d, q) this threshold provably rides out."""
    h = h0 if h0 is not None else default_h0(n)
    return [
        (t, d, q)
        for t in range(n + 1)
        for d in range(n + 1)
        for q in range(n + 1)
        if t + d + q <= n
        and threshold_tolerated(FaultProfile(n, t, d, q), h) == (True, True)
    ]


def agreement_scenario(
    n: int, t: int, d: int, q: int, *, seeds: tuple = (1,), name: Optional[str] = None
) -> Scenario:
    """Tolerated profile under adversarial pre-stabilisation delays."""
    return Scenario(
        name=name or ("agree-n%d-t%d-d%d-q%d" % (n, t, d, q)),
        n=n,
        t=t,
        d=d,
        q=q,
        delta_ms=30,
        gst_ms=250,
        horizon_ms=30_000,
        seeds=seeds,
        delay={"model": "uniform", "lo_ms": 1, "hi_ms": 120},
        benign={"kind": "omit_fraction", "omit_p": 0.7},
        byzantine={"garble_p": 0.4, "drop_p": 0.3},
    )


def spam_scenario(*, seeds: tuple = (1,)) -> Scenario:
    """One deceitful source feeding each audience its own broadcast value,
    one crashed peer: progress requires excluding the spammer."""
    return Scenario(
        name="spam-n4",
        n=4,
        t=0,
        d=1,
        q=1,
        h0=3,
        delta_ms=25,
        gst_ms=150,
        horizon_ms=60_000,
        seeds=seeds,
        partitions=((3,), (4,)),
        attack={"kind": "broadcast-fork"},
        benign={"kind": "crash_at", "crash_at_ms": 0},
        delay={"model": "uniform", "lo_ms": 1, "hi_ms": 10},
    )


def fork_scenario(
    kind: str = "broadcast-fork",
    *,
    n: int = 9,
    d: int = 5,
    seeds: tuple = (1,),
    payload: str = "tokens",
    name: Optional[str] = None,
) -> Scenario:
    """Majority coalition splits the honest minority and forces a fork."""
    honest = list(range(d + 1, n + 1))
    half = len(honest) // 2
    return Scenario(
        name=name or ("fork-%s-n%d-d%d" % (kind, n, d)),
        n=n,
        t=0,
        d=d,
        q=0,
        delta_ms=30,
        gst_ms=500,
        horizon_ms=60_000,
        seeds=seeds,
        partitions=(tuple(honest[:half]), tuple(honest[half:])),
        attack={"kind": kind, "targets": 2 if kind == "binary-fork" else 0},
        cross_delay={"model": "uniform", "lo_ms": 400, "hi_ms": 600},
        delay={"model": "uniform", "lo_ms": 1, "hi_ms": 6},
        payload=payload,
        deposit={"gain_cap": 400, "factor": "0.1", "blockdepth": 28}
        if payload == "ledger"
        else None,
    )


def llb_scenario(
    *, heights: int = 102, pool: int = 12, seeds: tuple = (1,)
) -> Scenario:
    """Majority coalition stalls the chain until it is swapped out.

    The stabilisation time lands before any instance can finish (the first
    timeout alone outlasts it), so the coalition's only mark on the run is a
    pile of conflicting first-round traffic: the four honest survivors stall,
    detect, exclude, refill from the standby pool, and then run the remaining
    heights in agreement.
    """
    return Scenario(
        name="llb-n9-d5",
        n=9,
        t=0,
        d=5,
        q=0,
        h0=7,
        h_prime0=7,
        heights=heights,
        delta_ms=60,
        gst_ms=40,
        horizon_ms=600_000,
        seeds=seeds,
        pool=pool,
        partitions=((6, 7), (8, 9)),
        attack={"kind": "broadcast-fork"},
        delay={"model": "uniform", "lo_ms": 1, "hi_ms": 6},
    )


def complexity_scenario(n: int, *, seeds: tuple = (1,)) -> Scenario:
    """Message-count measurement shape: all-honest, fully post-stabilisation."""
    return clean_scenario(n, heights=1, seeds=seeds, gst_ms=0, horizon_ms=120_000)
