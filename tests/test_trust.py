import pytest
from hypothesis import given, strategies as st

from manetsim import trust
from manetsim.trust import (TrustRecord, init_trust, is_blacklisted,
                            on_forward_success, on_malicious, on_selfish,
                            on_service_charge, trust_value)


def rec(earn, loose):
    return TrustRecord(node_id=0, earn_trust=earn, loose_trust=loose)


def test_fresh_record_is_neutral():
    r = init_trust(7)
    assert (r.earn_trust, r.loose_trust) == (2, 1)
    assert trust_value(r) == 0.5


def test_value_anchors():
    assert trust_value(rec(3, 1)) == pytest.approx(2 / 3)
    assert trust_value(rec(4, 4)) == 0.0
    assert trust_value(rec(10, 0)) == 1.0


def test_zero_earn_rejected():
    with pytest.raises(ValueError):
        trust_value(rec(0, 0))


def test_forward_success_raises_value():
    r = init_trust(0)
    on_forward_success(r)
    assert (r.earn_trust, r.loose_trust) == (3, 1)
    assert trust_value(r) == pytest.approx(2 / 3)


def test_selfish_lowers_value():
    r = rec(4, 1)
    on_selfish(r)
    assert trust_value(r) == 0.5


def test_selfish_clamps_at_zero():
    r = rec(3, 3)
    on_selfish(r)
    assert r.loose_trust == 3
    assert trust_value(r) == 0.0


def test_malicious_zeroes_and_is_idempotent():
    r = rec(9, 2)
    on_malicious(r)
    assert trust_value(r) == 0.0
    on_malicious(r)
    assert (r.earn_trust, r.loose_trust) == (9, 9)


def test_service_charge_matches_selfish_step():
    a, b = rec(6, 2), rec(6, 2)
    on_service_charge(a)
    on_selfish(b)
    assert (a.earn_trust, a.loose_trust) == (b.earn_trust, b.loose_trust) == (6, 3)


def test_eligibility_needs_strictly_positive_value():
    assert trust_value(rec(100, 99)) > 0
    assert trust_value(rec(100, 100)) <= 0


def test_blacklist_boundary_is_strict():
    # value exactly at the limit stays in the network (exact dyadic limit)
    assert not is_blacklisted(rec(4, 3), limit=0.25)
    assert is_blacklisted(rec(8, 7), limit=0.25)
    assert not is_blacklisted(rec(2, 1), limit=0.1)
    assert is_blacklisted(rec(100, 95), limit=0.1)


events = st.lists(st.sampled_from(["fwd", "selfish", "charge"]), max_size=30)

APPLY = {"fwd": on_forward_success, "selfish": on_selfish, "charge": on_service_charge}


@given(events)
def test_counters_stay_consistent(seq):
    r = init_trust(0)
    for name in seq:
        APPLY[name](r)
        assert 0 <= r.loose_trust <= r.earn_trust
        assert 0.0 <= trust_value(r) <= 1.0


@given(events)
def test_forward_count_commutes_with_penalties(seq):
    """Credits first vs interleaved: same counters as long as no clamp fires."""
    penalties = sum(1 for e in seq if e != "fwd")
    credits = sum(1 for e in seq if e == "fwd")
    if trust.INIT_LOOSE + penalties > trust.INIT_EARN:
        return
    interleaved = init_trust(0)
    for name in seq:
        APPLY[name](interleaved)
    upfront = init_trust(0)
    for _ in range(credits):
        on_forward_success(upfront)
    for name in seq:
        if name != "fwd":
            APPLY[name](upfront)
    assert (interleaved.earn_trust, interleaved.loose_trust) == \
        (upfront.earn_trust, upfront.loose_trust)


@given(st.integers(1, 50), st.integers(0, 50))
def test_forward_is_monotone_nondecreasing(earn, loose):
    if loose > earn:
        return
    r = rec(earn, loose)
    before = trust_value(r)
    on_forward_success(r)
    assert trust_value(r) >= before


@given(st.integers(1, 50), st.integers(0, 50))
def test_selfish_is_monotone_nonincreasing(earn, loose):
    if loose > earn:
        return
    r = rec(earn, loose)
    before = trust_value(r)
    on_selfish(r)
    assert trust_value(r) <= before
