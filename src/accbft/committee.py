"""Committee membership, live voting threshold, and mixed-fault tolerance predicates.

A committee starts from an ordered member list with an initial threshold h0 and
lowers the live threshold by one for every member convicted of equivocation at
runtime: h(d_r) = h0 - d_r.  Exclusions made this way are local to the running
consensus instance; durable removal is the membership layer's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .crypto import KeyRegistry, Pof, verify_pof


@dataclass(frozen=True)
class FaultProfile:
    """Assumed fault budget: t Byzantine, d deceitful, q benign, out of n."""

    n: int
    t: int
    d: int
    q: int

    def __post_init__(self):
        assert self.t >= 0 and self.d >= 0 and self.q >= 0
        assert self.t + self.d + self.q <= self.n


def consensus_tolerated(p: FaultProfile) -> bool:
    """Whether any correct-majority voting threshold can cope with this budget."""
    return p.n > 3 * p.t + p.d + 2 * p.q


def _check_h(n: int, h: int) -> None:
    if not (n / 2 < h <= n):
        raise ValueError("threshold out of (n/2, n]")


def threshold_tolerated(p: FaultProfile, h: int) -> tuple[bool, bool]:
    """(safety, liveness) of threshold h against budget p.

    Safety needs every pair of h-quorums to intersect in more processes than
    can equivocate: d + t < 2h - n.  Liveness needs an h-quorum of responsive
    processes: q + t <= n - h.
    """
    _check_h(p.n, h)
    safety = p.d + p.t < 2 * h - p.n
    liveness = p.q + p.t <= p.n - h
    return safety, liveness


def default_h0(n: int) -> int:
    return math.ceil(2 * n / 3)


@dataclass
class Committee:
    initial: tuple[int, ...]
    h0: int
    local_deceitful: set[int] = field(default_factory=set)
    local_pofs: dict[tuple, Pof] = field(default_factory=dict)
    _initial_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._initial_set = frozenset(self.initial)
        assert len(self._initial_set) == len(self.initial)
        assert len(self.initial) / 2 < self.h0 <= len(self.initial)

    @property
    def n0(self) -> int:
        return len(self.initial)

    @property
    def d_r(self) -> int:
        return len(self.local_deceitful)

    @property
    def h(self) -> int:
        return self.h0 - self.d_r

    @property
    def members(self) -> list[int]:
        return [p for p in self.initial if p not in self.local_deceitful]

    def is_active(self, pid: int) -> bool:
        return pid in self._initial_set and pid not in self.local_deceitful

    def coordinator(self, round: int) -> int:
        # Rotation stays over the initial list: a process excluded mid-run that
        # holds the coordinator role keeps it for that round (it simply never
        # sends, and the phase completes without coordinator help).
        return self.initial[(round - 1) % self.n0]


def mask_members(mask: int) -> list[int]:
    """The pids of a signer bitmask (bit p set for pid p), ascending."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def update_committee(
    c: Committee,
    new_pofs: Iterable[Pof],
    registry: Optional[KeyRegistry] = None,
) -> tuple[Committee, set[int], list[Pof]]:
    """Fold fresh fraud proofs into the committee.

    Returns the committee, the set of members newly excluded by these proofs,
    and the deduplicated proofs worth relaying.  Invalid proofs are dropped;
    the caller is responsible for re-checking phase termination and resetting
    its current timer afterwards.
    """
    newly: set[int] = set()
    to_broadcast: list[Pof] = []
    for pof in new_pofs:
        if registry is not None and not verify_pof(registry, pof):
            continue
        key = pof.key()
        if key in c.local_pofs:
            continue
        c.local_pofs[key] = pof
        to_broadcast.append(pof)
        pid = pof.accused
        if pid in c.initial and pid not in c.local_deceitful:
            c.local_deceitful.add(pid)
            newly.add(pid)
    return c, newly, to_broadcast
