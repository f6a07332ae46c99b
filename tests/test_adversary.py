import dataclasses
import random

import pytest

from manetsim import adversary, packets
from manetsim.adversary import (Action, BehaviorPolicy, emit_slander,
                                flood_count, intercept, spoof_identity)


def pkt(kind, src=1, dst=2, **payload):
    return packets.Packet(kind, src, dst, size=512, payload=payload)


def policy(kind, **kw):
    return BehaviorPolicy(kind=kind, owner=9, **kw)


# ---- interception table ----

def test_honest_forwards_everything():
    p = policy(adversary.HONEST)
    for kind in (packets.DATA, packets.RREQ, packets.RREP, packets.HELLO):
        assert intercept(p, pkt(kind)).kind == adversary.FORWARD


def test_black_hole_drops_data():
    assert intercept(policy(adversary.BLACK_HOLE), pkt(packets.DATA)).kind == adversary.DROP


def test_black_hole_fabricates_route_reply():
    act = intercept(policy(adversary.BLACK_HOLE), pkt(packets.RREQ, src=4, dst=0, dst_node=22))
    assert act.kind == adversary.FABRICATE
    assert act.packet.kind == packets.RREP
    assert act.packet.src == 9
    assert act.packet.dst == 4
    assert act.packet.payload["claimed_hops"] == 1


def test_black_hole_forwards_control_chatter():
    assert intercept(policy(adversary.BLACK_HOLE), pkt(packets.HELLO)).kind == adversary.FORWARD


def test_grey_hole_full_rate_drops_without_rng():
    p = policy(adversary.GREY_HOLE, drop_rate=1.0)
    assert intercept(p, pkt(packets.DATA)).kind == adversary.DROP
    assert intercept(p, pkt(packets.RREQ)).kind == adversary.FORWARD


def test_grey_hole_partial_rate_follows_rng():
    p = policy(adversary.GREY_HOLE, drop_rate=0.5)
    rng = random.Random(3)
    kinds = {intercept(p, pkt(packets.DATA), rng).kind for _ in range(50)}
    assert kinds == {adversary.DROP, adversary.FORWARD}


def test_wormhole_tunnels_data_and_route_requests():
    p = policy(adversary.WORMHOLE, peer=25)
    for kind in (packets.DATA, packets.RREQ):
        act = intercept(p, pkt(kind))
        assert act.kind == adversary.TUNNEL
        assert act.peer == 25
    assert intercept(p, pkt(packets.ACK)).kind == adversary.FORWARD


def test_spoof_and_slander_do_not_touch_transit_traffic():
    for k in (adversary.SPOOF, adversary.SLANDER, adversary.TABLE_OVERFLOW):
        kw = {"victim": 3} if k == adversary.SPOOF else {}
        assert intercept(policy(k, **kw), pkt(packets.DATA)).kind == adversary.FORWARD


def test_intercept_shares_frozen_forward_and_drop_actions():
    data = pkt(packets.DATA)
    assert intercept(policy(adversary.HONEST), data) is adversary.FORWARD_ACTION
    assert intercept(policy(adversary.BLACK_HOLE), data) is adversary.DROP_ACTION
    assert intercept(policy(adversary.GREY_HOLE), data) is adversary.DROP_ACTION
    assert adversary.FORWARD_ACTION == Action(adversary.FORWARD)
    assert adversary.DROP_ACTION == Action(adversary.DROP)
    for shared in (adversary.FORWARD_ACTION, adversary.DROP_ACTION):
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.kind = adversary.TUNNEL
    # the actions that carry a packet or a peer are built per call
    rreq = pkt(packets.RREQ)
    lure = policy(adversary.BLACK_HOLE)
    assert intercept(lure, rreq) is not intercept(lure, rreq)


# ---- policy validation ----

def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        BehaviorPolicy(kind="vandal")


def test_wormhole_needs_peer():
    with pytest.raises(ValueError):
        BehaviorPolicy(kind=adversary.WORMHOLE)


def test_spoof_needs_victim():
    with pytest.raises(ValueError):
        BehaviorPolicy(kind=adversary.SPOOF)


# ---- identity spoofing ----

def test_spoof_rewrites_source():
    p = policy(adversary.SPOOF, victim=11)
    out = spoof_identity(p, pkt(packets.HELLO, src=9))
    assert out.src == 11


def test_spoof_of_own_id_is_a_no_op():
    p = policy(adversary.SPOOF, victim=9)
    assert spoof_identity(p, pkt(packets.HELLO, src=9)).src == 9


# ---- slander ----

def test_slander_one_report_per_target():
    p = policy(adversary.SLANDER, targets=(27, 1))
    reports = emit_slander(p, own_ch=0)
    assert [r.payload["accused"] for r in reports] == [27, 1]
    for r in reports:
        assert r.kind == packets.TRUST_REPORT
        assert (r.src, r.dst) == (9, 0)


def test_slander_without_targets_is_silent():
    assert emit_slander(policy(adversary.SLANDER), own_ch=0) == []


# ---- table flooding ----

def test_flood_count_arithmetic():
    p = policy(adversary.TABLE_OVERFLOW, rate=2500.0)
    assert flood_count(p, 0.1) == 250
    assert flood_count(p, 0.0) == 0
    assert flood_count(BehaviorPolicy(kind=adversary.TABLE_OVERFLOW, rate=100.0), 0.05) == 5
