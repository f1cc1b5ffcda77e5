"""Committee repair driven by fraud proofs: once enough distinct members are
provably deceitful, every honest process pauses its pending agreement, votes
on whom to expel (a value-set agreement over proof sets, run at the stricter
membership threshold), votes on replacements drawn from a standby pool, and
restarts the paused agreement under the repaired committee.

Height bookkeeping survives forks: membership votes are numbered by how many
repairs completed (not by block height), and a restarted context's attempt
field equals that repair count, so processes whose chains diverged during an
attack still converge on the same instance ids afterwards.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Iterable, Optional

from .binary import enc_bits, parity
from .committee import Committee, update_committee
from .consensus import MultiContext, NodeCore
from .crypto import (
    CHAN_BINARY,
    CHAN_CONFIRM,
    GROUP_EXCLUDE,
    GROUP_INCLUDE,
    GROUP_MAIN,
    Kind,
    Pof,
    decode_pof_list,
    encode_pof_list,
    quorum_valid,
    verify_pof,
)


def h_prime_preset(n: int, name: str) -> int:
    """Membership-change starting thresholds, from lax to strict."""
    presets = {
        "eventual-consensus": math.ceil(2 * n / 3),
        "consensus": math.ceil(7 * n / 9),
        "awareness-optimal": math.ceil(5 * n / 6),
    }
    return presets[name]


def fraud_trigger_threshold(n: int, h0: int) -> int:
    """Distinct accused members needed before the committee is repaired."""
    return 2 * h0 - n


def encode_id_list(ids: Iterable[int]) -> bytes:
    ids = list(ids)
    return struct.pack(">I%dI" % len(ids), len(ids), *ids)


def decode_id_list(blob: bytes) -> list[int]:
    if len(blob) < 4:
        raise ValueError("truncated id list")
    (count,) = struct.unpack(">I", blob[:4])
    if len(blob) != 4 + 4 * count:
        raise ValueError("bad id list length")
    return list(struct.unpack(">%dI" % count, blob[4:])) if count else []


def round_robin_choose(proposals: list[tuple[int, list[int]]], k: int) -> list[int]:
    """Pick k distinct ids column-by-column across proposals sorted by
    proposer: [a,b,c],[d,e,f] with k=3 gives [a, d, b]."""
    ordered = sorted(proposals)
    chosen: list[int] = []
    col = 0
    width = max((len(ids) for _, ids in ordered), default=0)
    while len(chosen) < k and col < width:
        for _, ids in ordered:
            if col < len(ids) and ids[col] not in chosen:
                chosen.append(ids[col])
                if len(chosen) == k:
                    break
        col += 1
    return chosen


def _block_vote(block: dict, vote: tuple) -> bool:
    """Whether a certificate backing this vote can stand for the block: the
    confirmation echo of its bytes, or the phase-2 echo of {1} that decided
    one of its slots, in the block's own height and attempt."""
    kind, iid, r, phase, payload = vote
    main = (block["height"], block["attempt"], GROUP_MAIN)
    if block.get("confirm"):
        return vote == (Kind.ECHO, main + (CHAN_CONFIRM, 0), 1, 1, block["block"])
    decided_one = (Kind.ECHO, main + (CHAN_BINARY,), 2, enc_bits({1}))
    return (kind, iid[:4], phase, payload) == decided_one and parity(r) == 1


def catch_up(registry, blocks: list[dict]) -> int:
    """Verify a chain copy block by block (certificates, not transactions).

    Each block carries the committee that produced it and either a quorum of
    confirmation echoes over the block bytes or the vote certificate that
    settled its first included slot.  Returns the number of verified blocks;
    raises ValueError at the first height whose certificate fails.
    """
    for j, block in enumerate(blocks):
        cert = block.get("confirm") or block.get("cert") or ()
        members = frozenset(block["committee"])
        if not (
            cert
            and _block_vote(block, cert[0].vote())
            and quorum_valid(registry, cert, block["h"], members.__contains__)
        ):
            raise ValueError("certificate verification failed at height %d" % j)
    return len(blocks)


def _copy_chain(chain: list[dict]) -> list[dict]:
    """The chain with every block record copied, since a confirmation sets a
    record's ``confirm``; its values (tuples, bytes, messages) are never
    written."""
    return [dict(block) for block in chain]


class AsmrProcess:
    """One process's replicated-state-machine loop with committee repair.

    Drives a sequence of block agreements (one MultiContext per height); on a
    fraud-threshold trigger it stops the pending one, runs the exclusion and
    inclusion votes under the membership threshold, durably repairs the
    member list, invites the chosen standbys, and restarts the height.
    """

    def __init__(
        self,
        core: NodeCore,
        members: Iterable[int],
        h0: int,
        h_prime0: int,
        pool: Iterable[int] = (),
        proposal_fn: Optional[Callable[[int], Optional[bytes]]] = None,
        max_heights: int = 1,
        joined: bool = True,
    ):
        self.core = core
        core.on_new_pofs = self._on_new_pofs
        self.members: list[int] = sorted(members)
        self.h0 = h0
        self.h_prime0 = h_prime0
        self.pool: list[int] = list(pool)
        self.pool_used: set[int] = set()
        self.proposal_fn = proposal_fn or (lambda height: None)
        # block check for main contexts; World sets it for ledger runs
        self.validator: Optional[Callable[[int, bytes], bool]] = None
        self.max_heights = max_heights
        self.joined = joined

        self.height = 0
        self.changes_done = 0
        self.phase = "idle"  # idle | main | exclusion | inclusion | done | failed
        self.failure: Optional[str] = None
        self.pofs: dict[tuple, Pof] = {}
        # when the proofs first named as many ids as trigger a repair
        self.detected_at: Optional[int] = None
        self._detect_ids = fraud_trigger_threshold(len(self.members), h0)
        self.chain: list[dict] = []
        self.changes: list[dict] = []
        self.main_ctx: Optional[MultiContext] = None
        self.excl_ctx: Optional[MultiContext] = None
        self.incl_ctx: Optional[MultiContext] = None
        self.change_committee: Optional[Committee] = None
        self._trigger_at: Optional[int] = None
        self._pending_exclusion: dict = {}
        self._needed_inclusions = 0
        # wired by the scenario driver / ledger
        self.invite_hook: Optional[Callable] = None  # (chosen_ids, snapshot)
        self.on_block: Optional[Callable] = None

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        assert self.phase == "idle" and self.joined
        self._start_main()

    def _main_committee(self) -> Committee:
        com = Committee(initial=tuple(self.members), h0=self.h0)
        live = [p for p in self.pofs.values() if p.accused in com.initial]
        if live:
            update_committee(com, live)
        return com

    def _start_main(self) -> None:
        self.core.retire_inert()
        self.phase = "main"
        com = self._main_committee()
        self.core.committee = com
        ctx = MultiContext(
            self.core,
            com,
            period=self.height,
            attempt=self.changes_done,
            group=GROUP_MAIN,
            validator=self.validator,
        )
        ctx.on_decided = self._on_main_decided
        ctx.on_status = self._on_main_status
        self.main_ctx = ctx
        self.core.register_context(ctx)
        ctx.start(self.proposal_fn(self.height))
        # proofs may already sit above the trigger (e.g. right after a join)
        self._maybe_trigger()

    # ------------------------------------------------------------- chain head

    def _on_main_decided(self, ctx: MultiContext) -> None:
        if ctx is not self.main_ctx or self.phase != "main":
            return
        block = {
            "height": self.height,
            "attempt": ctx.key[1],
            "block": ctx.decision,
            "committee": tuple(ctx.committee.initial),
            "h": ctx.committee.h,
            "cert": ctx.decision_cert,
            "confirm": (),
            "decided_at": ctx.decided_at,
        }
        self.chain.append(block)
        if self.on_block is not None:
            self.on_block(self, block)
        self.height += 1
        if self.height >= self.max_heights:
            self.phase = "done"
            return
        self._start_main()

    def _on_main_status(self, ctx: MultiContext, status: str) -> None:
        if status != "confirmed":
            return
        for block in self.chain:
            if block["height"] == ctx.key[0] and block["attempt"] == ctx.key[1]:
                msgs = self.core.store.group(Kind.ECHO, ctx.confirm_iid, 1, 1)
                block["confirm"] = tuple(
                    m
                    for m in msgs.values()
                    if m.payload == block["block"]
                    and ctx.committee.is_active(m.signer)
                )

    # ----------------------------------------------------------- fraud intake

    def _accused_members(self) -> set[int]:
        members = set(self.members)
        return {p.accused for p in self.pofs.values() if p.accused in members}

    def _on_new_pofs(self, stored: list[Pof], newly_excluded: set[int]) -> None:
        for p in stored:
            self.pofs[p.key()] = p
        if self.change_committee is not None and self.phase in (
            "exclusion",
            "inclusion",
        ):
            # a fresh proof mid-repair shrinks the working committee too;
            # the core's recheck pass that follows re-evaluates every vote
            update_committee(self.change_committee, stored)
        self._maybe_trigger()
        if self.detected_at is None:
            if len({p.accused for p in self.pofs.values()}) >= self._detect_ids:
                self.detected_at = self.core.now()

    def _maybe_trigger(self) -> None:
        if self.phase != "main" or not self.joined:
            return
        accused = self._accused_members()
        if len(accused) >= fraud_trigger_threshold(len(self.members), self.h0):
            self._start_exclusion(accused)

    # --------------------------------------------------------------- repairs

    def _start_exclusion(self, accused: set[int]) -> None:
        self.phase = "exclusion"
        self._trigger_at = self.core.now()
        if self.main_ctx is not None:
            self.main_ctx.stop()
        com = Committee(initial=tuple(self.members), h0=self.h_prime0)
        update_committee(com, list(self.pofs.values()))
        self.change_committee = com
        ctx = MultiContext(
            self.core,
            com,
            period=self.changes_done,
            attempt=0,
            group=GROUP_EXCLUDE,
            validator=self._valid_pof_set,
        )
        ctx.on_decided = self._on_exclusion_decided
        self.excl_ctx = ctx
        self.core.register_context(ctx)
        mine = [p for p in self.pofs.values() if p.accused in set(self.members)]
        ctx.start(encode_pof_list(mine))

    def _valid_pof_set(self, source: int, value: bytes) -> bool:
        try:
            pofs = decode_pof_list(value)
        except ValueError:
            return False
        if not pofs:
            return False
        members = set(self.members)
        return all(
            verify_pof(self.core.registry, p) and p.accused in members for p in pofs
        )

    def _on_exclusion_decided(self, ctx: MultiContext) -> None:
        if ctx is not self.excl_ctx or self.phase != "exclusion":
            return
        accused: set[int] = set()
        for value in ctx.decided_values() or ():
            try:
                pofs = decode_pof_list(value)
            except ValueError:
                continue  # an invalid set can't have passed honest validation
            for p in pofs:
                if verify_pof(self.core.registry, p):
                    self.pofs.setdefault(p.key(), p)
                    accused.add(p.accused)
        excluded = sorted(accused & set(self.members))
        self.members = [m for m in self.members if m not in excluded]
        self._pending_exclusion = {
            "change": self.changes_done,
            "excluded": excluded,
            "triggered_at": self._trigger_at,
            "excluded_at": self.core.now(),
        }
        self._start_inclusion(excluded)

    def _start_inclusion(self, excluded: list[int]) -> None:
        self.phase = "inclusion"
        k = len(excluded)
        com = self.change_committee
        unused = [
            c for c in self.pool if c not in self.pool_used and c not in self.members
        ]
        if len(unused) < k:
            self.phase = "failed"
            self.failure = "pool exhausted"
            return
        ranked = sorted(com.members)
        rank = ranked.index(self.core.pid) if self.core.pid in ranked else 0
        mine = [unused[(rank * k + i) % len(unused)] for i in range(k)]
        ctx = MultiContext(
            self.core,
            com,
            period=self.changes_done,
            attempt=0,
            group=GROUP_INCLUDE,
            validator=self._make_candidate_validator(k),
        )
        ctx.on_decided = self._on_inclusion_decided
        self.incl_ctx = ctx
        self._needed_inclusions = k
        self.core.register_context(ctx)
        ctx.start(encode_id_list(mine))

    def _make_candidate_validator(self, k: int) -> Callable[[int, bytes], bool]:
        def valid(source: int, value: bytes) -> bool:
            try:
                ids = decode_id_list(value)
            except ValueError:
                return False
            pool = set(self.pool)
            return (
                len(ids) == k
                and len(set(ids)) == k
                and all(
                    i in pool and i not in self.pool_used and i not in self.members
                    for i in ids
                )
            )

        return valid

    def _on_inclusion_decided(self, ctx: MultiContext) -> None:
        if ctx is not self.incl_ctx or self.phase != "inclusion":
            return
        proposals: list[tuple[int, list[int]]] = []
        for src, b in ctx.vector or ():
            if b != 1 or src not in ctx.delivered:
                continue
            try:
                ids = decode_id_list(ctx.delivered[src])
            except ValueError:
                continue
            proposals.append((src, ids))
        k = self._needed_inclusions
        chosen = round_robin_choose(proposals, k)
        if len(chosen) < k:
            self.phase = "failed"
            self.failure = "pool exhausted"
            return
        for _, ids in proposals:
            self.pool_used.update(ids)
        self.pool_used.update(chosen)
        self.members = sorted(set(self.members) | set(chosen))
        self.changes_done += 1
        record = dict(self._pending_exclusion)
        record.update(
            {
                "included": list(chosen),
                "members": list(self.members),
                "completed_at": self.core.now(),
            }
        )
        self.changes.append(record)
        self.change_committee = None
        self.excl_ctx = None
        self.incl_ctx = None
        if self.invite_hook is not None:
            self.invite_hook(list(chosen), self.snapshot())
        self.phase = "main"
        self._start_main()

    # ------------------------------------------------------------ new members

    def snapshot(self) -> dict:
        """A copy of this process's state for the processes it invites; it
        shares no mutable object with the process."""
        return {
            "height": self.height,
            "changes_done": self.changes_done,
            "members": list(self.members),
            "chain": _copy_chain(self.chain),
            "pofs": dict(self.pofs),
            "pool_used": set(self.pool_used),
        }

    def join(self, snapshot: dict) -> None:
        """Adopt a verified state copy and start participating.  The chain
        is copied again, since one snapshot goes to every invitee."""
        if self.joined:
            return
        catch_up(self.core.registry, snapshot["chain"])
        self.height = snapshot["height"]
        self.changes_done = snapshot["changes_done"]
        self.members = list(snapshot["members"])
        self.chain = _copy_chain(snapshot["chain"])
        self.pofs = dict(snapshot["pofs"])
        self.pool_used = set(snapshot["pool_used"])
        self.joined = True
        if self.height >= self.max_heights:
            self.phase = "done"
            return
        self._start_main()
