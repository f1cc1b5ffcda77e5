"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces selected public functions and methods of the
``accbft`` modules with wrappers; ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.  A name imported into several modules is
patched in each module that looks it up, otherwise calls made through the
other modules would go unmeasured.

Timed wrappers keep one aggregate per name (calls, total seconds, self
seconds) plus a count per parent->child edge; no object is kept per call.
Self time is a call's duration minus the time spent in timed calls beneath
it.  Functions that cost well under a microsecond per call are counted, not
timed: timing them would cost more than the work, and their time stays in
the caller's self time.
"""

from __future__ import annotations

import time

ROOT = "<root>"


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, list] = {}  # name -> [calls]
        self.edges: dict[tuple, int] = {}  # (parent, child) -> calls
        self.admit_status = {"new": 0, "dup": 0, "upgraded": 0, "conflict": 0}
        self.memo_hits = 0  # verify_message calls on an already-checked message
        self.msgset_frames = 0
        self.msgset_inners = 0
        self.msgset_fresh = 0  # inner messages whose slot the receiver lacked
        self.merge = {"merged": 0, "skipped": 0, "funded": 0}
        self.heap_peak = 0
        self._stack = [[ROOT, 0.0]]
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def timed(self, name, fn, pre=None, post=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                parent[1] += dt
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def counted(self, name, fn, pre=None, post=None):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if pre is not None:
                pre(args)
            result = fn(*args, **kwargs)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------- hooks

    def _on_admit(self, args, result) -> None:
        self.admit_status[result[0]] += 1

    def _on_frame(self, args) -> None:
        core, _src, msg = args
        if msg.kind != self._msgset_kind:
            return
        self.msgset_frames += 1
        slots = core.store.slots
        inners = msg.certificate
        self.msgset_inners += len(inners)
        self.msgset_fresh += sum(
            1
            for m in inners
            if (m.kind, m.instance, m.round, m.phase, m.signer) not in slots
        )

    def _on_verify_message(self, args) -> None:
        if args[1]._sigok is not None:
            self.memo_hits += 1

    def _on_push(self, args, result) -> None:
        size = len(args[0]._heap)
        if size > self.heap_peak:
            self.heap_peak = size

    def _on_merge(self, args, report) -> None:
        self.merge["merged"] += len(report.merged)
        self.merge["skipped"] += len(report.skipped)
        self.merge["funded"] += len(report.funded)

    # ------------------------------------------------------ install/remove

    def _patch(self, owner, attr: str, wrapped) -> None:
        # vars() raises KeyError for a missing or inherited name, so a
        # refactor that moves one fails here instead of going unmeasured
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped(original))

    def install(self) -> None:
        from accbft import (
            analysis,
            binary,
            broadcast,
            committee,
            consensus,
            crypto,
            ledger,
            membership,
            scenarios,
            simnet,
        )

        self._msgset_kind = crypto.Kind.MSGSET
        t, c, p = self.timed, self.counted, self._patch

        p(consensus.NodeCore, "deliver_frame",
          lambda f: t("consensus.deliver_frame", f, pre=self._on_frame))
        p(consensus.MessageStore, "admit", lambda f: t("consensus.admit", f, post=self._on_admit))
        p(consensus.NodeCore, "on_timer", lambda f: t("consensus.on_timer", f))

        p(committee.Committee, "is_active", lambda f: c("committee.is_active", f))
        for mod in (committee, consensus, membership):
            p(mod, "update_committee", lambda f: t("committee.update", f))

        p(binary.BinaryInstance, "pump", lambda f: t("binary.pump", f))
        p(binary.BinaryInstance, "_cert_valid", lambda f: t("binary.cert_valid", f))
        p(broadcast.BroadcastInstance, "pump", lambda f: t("broadcast.pump", f))

        p(simnet.VirtualNet, "run", lambda f: t("simnet.loop", f))
        p(simnet.VirtualNet, "send", lambda f: t("simnet.send", f, post=self._on_push))
        p(simnet.VirtualNet, "arm_timer",
          lambda f: c("simnet.timer.armed", f, post=self._on_push))

        p(crypto.KeyRegistry, "sign", lambda f: t("crypto.sign", f))
        p(crypto.KeyRegistry, "verify", lambda f: t("crypto.verify", f))
        p(crypto.SignedMessage, "full_encoding", lambda f: t("crypto.full_encoding", f))
        # membership.catch_up imports verify_message from crypto at call time,
        # so the crypto patch covers it
        for mod in (crypto, consensus):
            p(mod, "verify_message",
              lambda f: c("crypto.verify_message", f, pre=self._on_verify_message))

        for mod in (ledger, scenarios):
            p(mod, "decode_block", lambda f: t("ledger.decode_block", f))
            p(mod, "tx_valid", lambda f: t("ledger.tx_valid", f))
            p(mod, "synthetic_transactions", lambda f: t("ledger.propose", f))
        p(ledger.LedgerState, "merge_block", lambda f: t("ledger.merge_block", f, post=self._on_merge))

        p(membership, "catch_up", lambda f: t("membership.catch_up", f))
        for mod in (analysis, consensus):
            p(mod, "alpha_confirm_threshold", lambda f: t("analysis.confirm_threshold", f))

        p(scenarios.World, "__init__", lambda f: t("scenarios.world_init", f))
        p(scenarios.World, "reconcile_ledgers", lambda f: t("scenarios.reconcile", f))
        p(scenarios.World, "collect", lambda f: t("scenarios.collect", f))
        p(scenarios.AdversaryBrain, "deliver_frame", lambda f: t("scenarios.adversary.deliver", f))
        p(scenarios.AdversaryBrain, "on_timer", lambda f: t("scenarios.adversary.on_timer", f))

        # validators are built per process, so their wrapper is made lazily
        self.stats["scenarios.validator"] = [0, 0.0, 0.0]

        def validator_factory(f):
            def _block_validator(world, proc):
                return t("scenarios.validator", f(world, proc))

            return _block_validator

        p(scenarios.World, "_block_validator", validator_factory)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- report

    def calls(self, name: str) -> int:
        if name in self.stats:
            return self.stats[name][0]
        return self.counts[name][0]

    def self_s(self, name: str) -> float:
        return self.stats[name][2]

    def edge(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)
