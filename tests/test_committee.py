"""Fault budgets, voting thresholds, and runtime exclusion bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accbft.committee import (
    Committee,
    FaultProfile,
    consensus_tolerated,
    default_h0,
    threshold_tolerated,
    update_committee,
)
from conftest import fraud_proof


def test_fault_profile_rejects_negative_and_overfull():
    with pytest.raises(AssertionError):
        FaultProfile(n=4, t=-1, d=0, q=0)
    with pytest.raises(AssertionError):
        FaultProfile(n=4, t=2, d=2, q=1)


@pytest.mark.parametrize(
    "profile,expected",
    [
        ((4, 0, 0, 0), True),
        ((4, 1, 0, 0), True),
        ((4, 1, 1, 0), False),
        ((9, 1, 1, 1), True),
        ((9, 2, 0, 0), True),
        ((9, 3, 0, 0), False),
        ((9, 0, 8, 0), True),
        ((9, 0, 0, 4), True),
    ],
)
def test_consensus_tolerated_spots(profile, expected):
    n, t, d, q = profile
    assert consensus_tolerated(FaultProfile(n=n, t=t, d=d, q=q)) is expected


@pytest.mark.parametrize(
    "profile,h,expected",
    [
        ((9, 1, 1, 1), 6, (True, True)),
        ((9, 0, 3, 0), 6, (False, True)),   # quorum overlap too thin
        ((9, 0, 0, 4), 6, (True, False)),   # not enough responsive processes
        ((9, 0, 5, 2), 8, (True, False)),
        ((4, 0, 1, 1), 3, (True, True)),
    ],
)
def test_threshold_tolerated_table(profile, h, expected):
    n, t, d, q = profile
    assert threshold_tolerated(FaultProfile(n=n, t=t, d=d, q=q), h) == expected


@pytest.mark.parametrize("h", [4, 10, 2])
def test_threshold_must_be_a_majority(h):
    with pytest.raises(ValueError, match=r"threshold out of \(n/2, n\]"):
        threshold_tolerated(FaultProfile(n=9, t=0, d=0, q=0), h)


@pytest.mark.parametrize("n,expected", [(4, 3), (7, 5), (9, 6), (10, 7), (12, 8)])
def test_default_h0(n, expected):
    assert default_h0(n) == expected


# -- the committee itself ----------------------------------------------------


def test_committee_rejects_bad_construction():
    with pytest.raises(AssertionError):
        Committee(initial=(1, 2, 2, 3), h0=3)
    with pytest.raises(AssertionError):
        Committee(initial=(1, 2, 3, 4), h0=2)
    with pytest.raises(AssertionError):
        Committee(initial=(1, 2, 3, 4), h0=5)


def test_threshold_tracks_exclusions(registry):
    c = Committee(initial=(1, 2, 3, 4, 5, 6, 7, 8, 9), h0=6)
    assert (c.n0, c.d_r, c.h) == (9, 0, 6)
    update_committee(c, [fraud_proof(registry, 2)])
    update_committee(c, [fraud_proof(registry, 5)])
    assert (c.d_r, c.h) == (2, 4)
    assert c.members == [1, 3, 4, 6, 7, 8, 9]
    assert c.is_active(1) and not c.is_active(2)
    assert not c.is_active(10)


def test_coordinator_rotates_over_initial_list(registry):
    c = Committee(initial=(3, 1, 4), h0=2)
    assert [c.coordinator(r) for r in (1, 2, 3, 4)] == [3, 1, 4, 3]
    update_committee(c, [fraud_proof(registry, 1)])
    # an excluded member keeps its rotation slot; the round just loses its
    # coordinator help
    assert c.coordinator(2) == 1


def test_update_committee_is_idempotent(registry):
    c = Committee(initial=(1, 2, 3, 4), h0=3)
    pof = fraud_proof(registry, 2)
    update_committee(c, [pof, pof])
    assert c.local_deceitful == {2} and c.h == 2
    update_committee(c, [pof, fraud_proof(registry, 2, salt=b"again")])
    assert c.local_deceitful == {2} and c.h == 2


def test_update_committee_counts_only_members(registry):
    c = Committee(initial=(1, 2, 3, 4), h0=3)
    update_committee(c, [fraud_proof(registry, 9), fraud_proof(registry, 3)])
    assert c.local_deceitful == {3}
    assert c.members == [1, 2, 4] and c.h == 2


@given(st.sets(st.integers(min_value=1, max_value=9), max_size=5))
def test_live_threshold_drops_one_per_conviction(registry, convicted):
    c = Committee(initial=tuple(range(1, 10)), h0=6)
    for pid in sorted(convicted):
        update_committee(c, [fraud_proof(registry, pid)])
    assert c.h == 6 - len(convicted)
    assert c.d_r == len(convicted)
    assert len(c.members) == 9 - len(convicted)
