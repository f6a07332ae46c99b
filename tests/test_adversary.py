import dataclasses
import random

import pytest

from helpers import desk_config, events_of, run_world
from manetsim import adversary, packets
from manetsim.adversary import Action, BehaviorPolicy, flood_count, intercept


# ---- interception table ----

F, D, T, L = (adversary.FORWARD, adversary.DROP, adversary.TUNNEL,
              adversary.FABRICATE)
PACKET_KINDS = (packets.DATA, packets.RREQ, packets.ACK, packets.HELLO)
# what a node holding each policy does with each packet kind in transit, in
# PACKET_KINDS order; grey holes drop every DATA packet at the default rate
# 1.0, which needs no random draw
INTERCEPT_TABLE = {
    adversary.HONEST:         (F, F, F, F),
    adversary.BLACK_HOLE:     (D, L, F, F),
    adversary.GREY_HOLE:      (D, F, F, F),
    adversary.WORMHOLE:       (T, T, F, F),
    adversary.SPOOF:          (F, F, F, F),
    adversary.SLANDER:        (F, F, F, F),
    adversary.TABLE_OVERFLOW: (F, F, F, F),
}
POLICY_ARGS = {adversary.WORMHOLE: {"peer": 25}, adversary.SPOOF: {"victim": 3}}


@pytest.mark.parametrize("kind, packet_kind, want", [
    (kind, packet_kind, want)
    for kind, row in INTERCEPT_TABLE.items()
    for packet_kind, want in zip(PACKET_KINDS, row)])
def test_intercept_table(kind, packet_kind, want):
    act = intercept(BehaviorPolicy(kind, **POLICY_ARGS.get(kind, {})), packet_kind)
    assert act.kind == want
    assert act.peer == (25 if want == adversary.TUNNEL else None)


def test_black_hole_fabricates_route_reply():
    # the lure is one shared action; `World._false_rrep` sends the reply
    act = intercept(BehaviorPolicy(adversary.BLACK_HOLE), packets.RREQ)
    assert act is adversary.FABRICATE_ACTION


def test_grey_hole_partial_rate_follows_rng():
    p = BehaviorPolicy(adversary.GREY_HOLE, drop_rate=0.5)
    rng = random.Random(3)
    kinds = {intercept(p, packets.DATA, rng).kind for _ in range(50)}
    assert kinds == {adversary.DROP, adversary.FORWARD}


def test_intercept_shares_frozen_forward_and_drop_actions():
    data = packets.DATA
    assert intercept(BehaviorPolicy(adversary.HONEST), data) is adversary.FORWARD_ACTION
    assert intercept(BehaviorPolicy(adversary.BLACK_HOLE), data) is adversary.DROP_ACTION
    assert intercept(BehaviorPolicy(adversary.GREY_HOLE), data) is adversary.DROP_ACTION
    assert adversary.FORWARD_ACTION == Action(adversary.FORWARD)
    assert adversary.DROP_ACTION == Action(adversary.DROP)
    assert adversary.FABRICATE_ACTION == Action(adversary.FABRICATE)
    for shared in (adversary.FORWARD_ACTION, adversary.DROP_ACTION,
                   adversary.FABRICATE_ACTION):
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.kind = adversary.TUNNEL


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


# ---- identity spoofing, on the desk bench (see helpers.py) ----

def spoofer_run(victim):
    return run_world(desk_config(sim_duration=2.0, spoof_interval=0.25, adversaries=[
        {"node": 10, "kind": adversary.SPOOF, "victim": victim}]))


def test_spoof_rewrites_source():
    """Spoofer 10 claims its victim's id; the head pins the claim on the
    link it came in on."""
    world, m = spoofer_run(11)
    attempts = events_of(world.events_log, "spoof_attempt")
    flags = events_of(world.events_log, "spoof_flagged")
    assert attempts and {d["claimed"] for _, d in attempts} == {11}
    assert {(d["owner"], d["claimed"]) for _, d in flags} == {(10, 11)}
    assert 10 in m.blacklisted


def test_spoof_of_own_id_is_a_no_op():
    world, m = spoofer_run(10)
    attempts = events_of(world.events_log, "spoof_attempt")
    assert attempts and {d["claimed"] for _, d in attempts} == {10}
    assert not events_of(world.events_log, "spoof_flagged")
    assert not m.blacklisted


# ---- slander, on the desk bench ----

def slander_reports(targets):
    world, _ = run_world(desk_config(sim_duration=2.0, adversaries=[
        {"node": 8, "kind": adversary.SLANDER, "targets": targets}]))
    return events_of(world.events_log, "trust_report")


def test_slander_one_report_per_target():
    reports = slander_reports((27, 1))
    # one report per target per tick, in target order, to the member's head
    assert len(reports) >= 4
    assert [d["accused"] for _, d in reports] == [27, 1] * (len(reports) // 2)
    assert {(d["reporter"], d["at"]) for _, d in reports} == {(8, 7)}
    assert [t for t, _ in reports[::2]] == [t for t, _ in reports[1::2]]


def test_slander_without_targets_is_silent():
    assert slander_reports(()) == []


# ---- table flooding ----

def test_flood_count_arithmetic():
    p = BehaviorPolicy(adversary.TABLE_OVERFLOW, rate=2500.0)
    assert flood_count(p, 0.1) == 250
    assert flood_count(p, 0.0) == 0
    assert flood_count(BehaviorPolicy(kind=adversary.TABLE_OVERFLOW, rate=100.0), 0.05) == 5
