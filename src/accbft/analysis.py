"""Closed-form bounds for mixed-fault quorum systems and deposit sizing.

Everything here is exact: ratios are coerced to Fraction (floats go through
their shortest decimal repr, so 0.66 means 66/100, not the binary float), and
blockdepth searches are settled by integer comparison rather than log rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .committee import FaultProfile, threshold_tolerated

Ratio = Union[int, float, str, Fraction]

# Deepest finalization depth evaluated: the flux takes rho to the power w+1
# exactly, so its numerator has about w times as many digits as rho's.
MAX_BLOCKDEPTH = 10_000


class DepthLimitError(ValueError):
    """A finalization depth beyond MAX_BLOCKDEPTH was asked for or needed."""


def as_fraction(x: Ratio) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class ZeroLossParams:
    branches: int          # a: number of forked chain branches an attack feeds
    deposit_factor: Ratio  # b: per-process deposit over maximum per-block gain
    attack_success: Ratio  # rho: per-block probability the attack pays out
    blockdepth: int        # w: blocks a deposit is retained before refund

    def __post_init__(self):
        if not (
            self.branches >= 1
            and as_fraction(self.deposit_factor) >= 0
            and 0 <= as_fraction(self.attack_success) < 1
            and self.blockdepth >= 0
        ):
            raise ValueError("flux needs a >= 1, b >= 0, 0 <= rho < 1 and w >= 0")
        if self.blockdepth > MAX_BLOCKDEPTH:
            raise DepthLimitError(
                "blockdepth %d exceeds %d" % (self.blockdepth, MAX_BLOCKDEPTH)
            )


def max_branches(n: int, h: int, dt: int) -> int:
    """Largest number of decision branches dt colluding equivocators can feed.

    Each branch needs h votes of which at most dt repeat across branches, so
    a branches need a*(h - dt) + dt <= n honest-and-faulty slots.
    """
    if dt < 0:
        raise ValueError("equivocators dt must be >= 0")
    if dt >= h:
        raise ValueError("agreement threshold overwhelmed")
    return max(1, (n - dt) // (h - dt))


def conservative_branches(delta: Ratio, h_ratio: Ratio = Fraction(2, 3)) -> int:
    """Ceiling variant of the branch bound on ratios, used for deposit sizing."""
    delta = as_fraction(delta)
    h_ratio = as_fraction(h_ratio)
    if delta < 0 or not Fraction(1, 2) < h_ratio <= 1:
        raise ValueError("branches need delta >= 0 and h_ratio in (1/2, 1]")
    if delta >= h_ratio:
        raise ValueError("agreement threshold overwhelmed")
    return max(1, math.ceil((1 - delta) / (h_ratio - delta)))


def alpha_confirm_threshold(n: int, h: int, alpha: Ratio) -> int:
    """Distinct matching certificates that rule out a deceitful ratio <= alpha.

    Smallest integer c with c > n - h + alpha*n, capped at n: hearing from
    every process is as strong as any such bound gets.
    """
    alpha = as_fraction(alpha)
    if not 0 <= alpha <= Fraction(2, 3):
        raise ValueError("alpha out of [0, 2/3]")
    bound = n - h + alpha * n
    return min(n, math.floor(bound) + 1)


def deposit_flux(p: ZeroLossParams) -> Fraction:
    """Expected deposit gain per attacked block, in units of the gain cap.

    g = (1 - rho^(w+1)) * b - (a - 1) * rho^(w+1): with probability rho^(w+1)
    the adversary outruns the refund window and collects a-1 extra branches'
    gain; otherwise the slashed deposit stays.  Zero-loss iff g >= 0.
    """
    b = as_fraction(p.deposit_factor)
    rho = as_fraction(p.attack_success)
    r = rho ** (p.blockdepth + 1)
    return (1 - r) * b - (p.branches - 1) * r


def _log(x: Fraction) -> float:
    """Natural log of a positive ratio, also one whose float underflows to 0."""
    f = float(x)
    return math.log(f) if f else math.log(x.numerator) - math.log(x.denominator)


def min_blockdepth(branches: int, deposit_factor: Ratio, attack_success: Ratio) -> int:
    """Smallest retention depth w with non-negative deposit flux.

    Seeded from the closed form w >= log(b / (a-1+b)) / log(rho) - 1, then
    settled by exact integer search so float logs can never shift the answer.
    A seed beyond MAX_BLOCKDEPTH, or a deposit factor of 0 (the flux is then
    -(a-1)*rho^(w+1) at every depth), raises DepthLimitError before any
    exact power is built.
    """
    if branches < 2:
        raise ValueError("blockdepth needs at least 2 branches")
    b = as_fraction(deposit_factor)
    rho = as_fraction(attack_success)
    if b < 0:
        raise ValueError("blockdepth needs a deposit factor >= 0")
    if rho == 0:
        return 0
    if not 0 < rho < 1:
        raise ValueError("no finite blockdepth")
    if b == 0:
        raise DepthLimitError(
            "no finite blockdepth for deposit factor 0: the flux is negative at every depth"
        )
    log_rho = _log(rho)  # 0.0 once rho rounds to 1
    seed = _log(b / (branches - 1 + b)) / log_rho - 1 if log_rho else math.inf
    if seed > MAX_BLOCKDEPTH:
        raise DepthLimitError(
            "blockdepth for a=%d, b=%s, rho=%s exceeds %d"
            % (branches, b, rho, MAX_BLOCKDEPTH)
        )
    w = max(0, math.floor(seed) - 2)

    def flux(w_: int) -> Fraction:
        return deposit_flux(ZeroLossParams(branches, b, rho, w_))

    while flux(w) < 0:
        w += 1
    while w > 0 and flux(w - 1) >= 0:
        w -= 1
    return w


# Reference depth figures quoted for (b=0.1, rho=0.9) at deceitful ratios
# 0.5/0.6/0.64/0.66, plus the rho=0.55 aside.  Two quoted values do not
# survive exact evaluation; both members of each pair are exposed so reports
# can print the discrepancy instead of silently picking a side.
BLOCKDEPTH_REFERENCE = (
    # (branches, deposit_factor, attack_success, quoted_w, computed_w)
    (3, "0.1", "0.9", 28, 28),
    (6, "0.1", "0.9", 37, 37),
    (14, "0.1", "0.9", 46, 46),
    (51, "0.1", "0.9", 58, 59),
    (3, "0.1", "0.55", 4, 5),
)


def blockdepth_reference_rows() -> list[dict]:
    rows = []
    for branches, b, rho, quoted, computed in BLOCKDEPTH_REFERENCE:
        got = min_blockdepth(branches, b, rho)
        assert got == computed, (branches, got, computed)
        rows.append(
            {
                "branches": branches,
                "deposit_factor": b,
                "attack_success": rho,
                "quoted_blockdepth": quoted,
                "computed_blockdepth": got,
                "matches": quoted == got,
            }
        )
    return rows


def frontier(n: int, h: int) -> set[tuple[int, int, int]]:
    """Extremal (t, d, q) budgets for threshold h: tolerated, but no +1 is.

    Tolerance is downward closed in t, d and q, so for each (t, d) only the
    largest tolerated q can be extremal, and that q does not grow with d:
    one walk down q per t finds them all, in O(n^2) checks.
    """

    def tolerated(t: int, d: int, q: int) -> bool:
        return t + d + q <= n and threshold_tolerated(
            FaultProfile(n=n, t=t, d=d, q=q), h
        ) == (True, True)

    out: set[tuple[int, int, int]] = set()
    for t in range(n + 1):
        q = n - t
        for d in range(n - t + 1):
            q = min(q, n - t - d)
            while q >= 0 and not tolerated(t, d, q):
                q -= 1
            if q < 0:
                break  # nor is any larger d tolerated
            if not tolerated(t + 1, d, q) and not tolerated(t, d + 1, q):
                out.add((t, d, q))
        if not tolerated(t, 0, 0):
            break  # nor is any larger t
    return out


def frontier_rows(n: int, h: int) -> list[dict]:
    return [
        {"n": n, "h": h, "t": t, "d": d, "q": q}
        for (t, d, q) in sorted(frontier(n, h))
    ]


def branch_curve_rows(n: int, h: int) -> list[dict]:
    rows = []
    for dt in range(0, h):
        rows.append({"n": n, "h": h, "dt": dt, "max_branches": max_branches(n, h, dt)})
    return rows


def blockdepth_curve_rows(
    deposit_factor: Ratio, attack_success: Ratio, branch_range: Iterable[int]
) -> list[dict]:
    rows = []
    for a in branch_range:
        rows.append(
            {
                "branches": a,
                "deposit_factor": str(as_fraction(deposit_factor)),
                "attack_success": str(as_fraction(attack_success)),
                "min_blockdepth": min_blockdepth(a, deposit_factor, attack_success),
            }
        )
    return rows
