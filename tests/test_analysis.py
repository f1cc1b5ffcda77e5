"""Closed-form bounds: branch counts, confirmation thresholds, deposit sizing."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbft.analysis import (
    BLOCKDEPTH_REFERENCE,
    MAX_BLOCKDEPTH,
    DepthLimitError,
    ZeroLossParams,
    alpha_confirm_threshold,
    as_fraction,
    blockdepth_curve_rows,
    blockdepth_reference_rows,
    branch_curve_rows,
    conservative_branches,
    deposit_flux,
    frontier,
    frontier_rows,
    max_branches,
    min_blockdepth,
)
from accbft.committee import FaultProfile, threshold_tolerated


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("0.1", Fraction(1, 10)),
        (0.1, Fraction(1, 10)),  # floats go through their decimal repr
        (0.66, Fraction(66, 100)),
        ("4/9", Fraction(4, 9)),
        (2, Fraction(2)),
        (Fraction(5, 7), Fraction(5, 7)),
    ],
)
def test_as_fraction(raw, expected):
    assert as_fraction(raw) == expected


@pytest.mark.parametrize(
    "n,h,dt,expected",
    [
        (9, 6, 0, 1),
        (9, 6, 3, 2),
        (9, 6, 5, 4),
        (4, 3, 1, 1),
        (4, 3, 2, 2),
        (12, 8, 6, 3),
        (10, 7, 6, 4),
    ],
)
def test_max_branches_spots(n, h, dt, expected):
    assert max_branches(n, h, dt) == expected


def test_max_branches_rejects_overwhelmed_threshold():
    with pytest.raises(ValueError, match="agreement threshold overwhelmed"):
        max_branches(9, 6, 6)


@pytest.mark.parametrize(
    "delta,expected", [("0.5", 3), ("0.6", 6), ("0.64", 14), ("0.66", 51)]
)
def test_conservative_branches_table(delta, expected):
    assert conservative_branches(delta) == expected


def test_conservative_branches_other_threshold_ratio():
    assert conservative_branches("0.5", "0.75") == 2
    # the ends of the domain: no deceit, and a unanimous threshold
    assert conservative_branches("0") == 2 and conservative_branches("0.5", "1") == 1
    with pytest.raises(ValueError, match="agreement threshold overwhelmed"):
        conservative_branches("2/3")


def test_max_branches_rejects_a_negative_fault_count():
    with pytest.raises(ValueError, match="dt must be >= 0"):
        max_branches(9, 6, -1)
    assert max_branches(9, 6, 0) == 1


@pytest.mark.parametrize(
    "delta,h_ratio", [("-0.5", "2/3"), ("-1/100", "2/3"), ("0.5", "2"), ("0.4", "1/2"), ("0", "0")]
)
def test_conservative_branches_rejects_ratios_out_of_domain(delta, h_ratio):
    with pytest.raises(ValueError, match=r"h_ratio in \(1/2, 1\]"):
        conservative_branches(delta, h_ratio)


@pytest.mark.parametrize(
    "n,h,alpha,expected",
    [
        (9, 6, "4/9", 8),
        (9, 6, "2/3", 9),  # capped at n
        (9, 6, 0, 4),
        (4, 3, "1/2", 4),
    ],
)
def test_alpha_confirm_threshold_table(n, h, alpha, expected):
    assert alpha_confirm_threshold(n, h, alpha) == expected


def test_alpha_confirm_threshold_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"alpha out of \[0, 2/3\]"):
        alpha_confirm_threshold(9, 6, "0.7")
    with pytest.raises(ValueError, match=r"alpha out of \[0, 2/3\]"):
        alpha_confirm_threshold(9, 6, "-1/9")


# -- deposit flux and blockdepth ----------------------------------------------


def test_deposit_flux_exact_value():
    flux = deposit_flux(ZeroLossParams(3, "0.1", "0.9", 28))
    assert flux == Fraction(1087297357828858466646322531, 10**30)
    assert float(flux) == pytest.approx(0.0010872973578288584)
    assert deposit_flux(ZeroLossParams(3, "0.1", "0.9", 27)) < 0


def test_zero_loss_params_are_checked():
    with pytest.raises(ValueError, match="flux needs"):
        ZeroLossParams(0, "0.1", "0.9", 1)
    with pytest.raises(ValueError, match="flux needs"):
        ZeroLossParams(3, "0.1", "1", 1)
    with pytest.raises(ValueError, match="flux needs"):
        ZeroLossParams(3, "-0.1", "0.9", 1)
    with pytest.raises(ValueError, match="flux needs"):
        ZeroLossParams(3, "0.1", "0.9", -1)
    with pytest.raises(DepthLimitError, match="exceeds"):
        ZeroLossParams(3, "0.1", "0.9", MAX_BLOCKDEPTH + 1)
    assert ZeroLossParams(3, "0.1", "0.9", MAX_BLOCKDEPTH).blockdepth == MAX_BLOCKDEPTH


def test_min_blockdepth_refuses_a_seed_beyond_the_cap():
    # w grows like log(c) / log(rho): about 32,000 at rho = 0.9999
    with pytest.raises(DepthLimitError, match="exceeds"):
        min_blockdepth(3, "0.1", "0.9999")
    # a rho whose float rounds to 1 has no finite float seed
    with pytest.raises(DepthLimitError, match="exceeds"):
        min_blockdepth(3, "0.1", Fraction(10**30 - 1, 10**30))
    assert min_blockdepth(3, "0.1", "0.999") == 3042


@pytest.mark.parametrize(
    "branches,rho,expected",
    [(3, "0.9", 28), (6, "0.9", 37), (14, "0.9", 46), (51, "0.9", 59), (3, "0.55", 5)],
)
def test_min_blockdepth_table(branches, rho, expected):
    assert min_blockdepth(branches, "0.1", rho) == expected


def test_min_blockdepth_edges():
    assert min_blockdepth(5, "0.1", 0) == 0
    with pytest.raises(ValueError, match="no finite blockdepth"):
        min_blockdepth(5, "0.1", 1)
    with pytest.raises(ValueError, match="at least 2 branches"):
        min_blockdepth(1, "0.1", "0.9")


def test_min_blockdepth_without_a_deposit_has_no_finite_depth():
    # the flux is -(a-1)*rho^(w+1) < 0 at every depth
    with pytest.raises(DepthLimitError, match="no finite blockdepth for deposit factor 0"):
        min_blockdepth(3, 0, "0.9")
    with pytest.raises(ValueError, match="deposit factor >= 0"):
        min_blockdepth(3, -1, "0.9")
    assert min_blockdepth(3, 0, 0) == 0  # nothing to outrun


def test_min_blockdepth_seeds_from_ratios_whose_float_underflows():
    tiny = Fraction(1, 10**401)  # float(tiny) == 0.0
    assert min_blockdepth(3, "0.1", tiny) == 0
    # a deposit factor that small needs w near log(10^401) / log(1/0.9)
    w = min_blockdepth(3, tiny, "0.9")
    params = ZeroLossParams(3, tiny, "0.9", w)
    assert deposit_flux(params) >= 0 > deposit_flux(replace(params, blockdepth=w - 1))


def test_reference_rows_expose_both_sides_of_each_mismatch():
    rows = blockdepth_reference_rows()
    assert [r["matches"] for r in rows] == [True, True, True, False, False]
    off = {
        (r["branches"], r["attack_success"]): (
            r["quoted_blockdepth"],
            r["computed_blockdepth"],
        )
        for r in rows
        if not r["matches"]
    }
    assert off == {(51, "0.9"): (58, 59), (3, "0.55"): (4, 5)}
    assert len(rows) == len(BLOCKDEPTH_REFERENCE)


# -- tolerance frontier --------------------------------------------------------


@pytest.mark.parametrize(
    "n,h,expected",
    [
        (4, 3, {(0, 1, 1), (1, 0, 0)}),
        (7, 5, {(0, 2, 2), (1, 1, 1), (2, 0, 0)}),
        (9, 6, {(0, 2, 3), (1, 1, 2), (2, 0, 1)}),
    ],
)
def test_frontier_frozen_sets(n, h, expected):
    assert frontier(n, h) == expected


def cubic_frontier(n, h):
    """The frontier by brute force: every (t, d, q), each checked against
    its three +1 neighbours."""
    out = set()
    for t in range(n + 1):
        for d in range(n - t + 1):
            for q in range(n - t - d + 1):
                p = FaultProfile(n=n, t=t, d=d, q=q)
                if threshold_tolerated(p, h) != (True, True):
                    continue
                bigger = [(t + 1, d, q), (t, d + 1, q), (t, d, q + 1)]
                extremal = True
                for t2, d2, q2 in bigger:
                    if t2 + d2 + q2 <= n and threshold_tolerated(
                        FaultProfile(n=n, t=t2, d=d2, q=q2), h
                    ) == (True, True):
                        extremal = False
                        break
                if extremal:
                    out.add((t, d, q))
    return out


def test_frontier_equals_the_brute_force_search():
    for n in range(1, 31):
        for h in range(n // 2 + 1, n + 1):
            assert frontier(n, h) == cubic_frontier(n, h), (n, h)


def test_frontier_members_are_extremal():
    n, h = 9, 6
    for t, d, q in frontier(n, h):
        p = FaultProfile(n=n, t=t, d=d, q=q)
        assert threshold_tolerated(p, h) == (True, True)
        for t2, d2, q2 in ((t + 1, d, q), (t, d + 1, q), (t, d, q + 1)):
            if t2 + d2 + q2 > n:
                continue
            worse = FaultProfile(n=n, t=t2, d=d2, q=q2)
            assert threshold_tolerated(worse, h) != (True, True)


def test_row_emitters_shape():
    rows = frontier_rows(4, 3)
    assert rows == [
        {"n": 4, "h": 3, "t": 0, "d": 1, "q": 1},
        {"n": 4, "h": 3, "t": 1, "d": 0, "q": 0},
    ]
    curve = branch_curve_rows(9, 6)
    assert [r["dt"] for r in curve] == list(range(6))
    assert curve[-1]["max_branches"] == 4
    bounds = [r["max_branches"] for r in curve]
    assert bounds == sorted(bounds)
    depth = blockdepth_curve_rows("0.1", "0.9", [3, 6])
    assert [r["min_blockdepth"] for r in depth] == [28, 37]
    assert depth[0]["deposit_factor"] == "1/10"


# -- properties ----------------------------------------------------------------


@settings(deadline=None)
@given(
    branches=st.integers(min_value=2, max_value=12),
    factor=st.fractions(
        min_value=Fraction(1, 100), max_value=Fraction(2), max_denominator=100
    ),
    rho=st.fractions(
        min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100
    ),
)
def test_min_blockdepth_is_minimal(branches, factor, rho):
    w = min_blockdepth(branches, factor, rho)
    assert deposit_flux(ZeroLossParams(branches, factor, rho, w)) >= 0
    if w > 0:
        assert deposit_flux(ZeroLossParams(branches, factor, rho, w - 1)) < 0


@given(
    branches=st.integers(min_value=1, max_value=12),
    factor=st.fractions(
        min_value=Fraction(0), max_value=Fraction(2), max_denominator=100
    ),
    rho=st.fractions(
        min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100
    ),
    w=st.integers(min_value=0, max_value=60),
)
def test_deposit_flux_improves_with_depth(branches, factor, rho, w):
    lo = deposit_flux(ZeroLossParams(branches, factor, rho, w))
    hi = deposit_flux(ZeroLossParams(branches, factor, rho, w + 1))
    assert hi >= lo
