"""Golden event-log digests: the behaviour oracle for refactors.

A change meant to leave behaviour alone (a speed-up, a clean-up) must keep
every digest below byte-identical. A deliberate model change re-pins them
once, and says so in CHANGES.md.

The matrix covers the desk bench from helpers.py with each adversary kind,
short 40-node mobile cells with each attack, a cell whose batteries run
dry, a static field that re-forms: its heads fall under the energy
floor, nodes run dry and grey holes are blacklisted, so the backbone is
re-derived on a fixed field, where the gateway candidates and route tables
are kept between refreshes; and a static field whose HELLO rounds empty
batteries between rebuilds, next to a spoofer. The spoof cells (110 and
805 `spoof_flagged` events) and the depletion cells (40 and 16
`node_depleted` events) reach the beacon rounds that run link by link,
because a battery runs dry in them or a live link carries a spoofed
HELLO, which no benchmark workload does.

The by-link cell is a spoof cell at the traffic-greyhole benchmark's rates
whose election weighs mobility alone: convictions in rounds run link by
link read mobility terms after the histories hold two samples, and the
mobility term decides the elections that follow.

`World.digest` hashes each record's line as it is logged; every cell here
also checks it against `helpers.legacy_digest`, the formula over the log.
"""

import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from detection_reference import reference_tally
from helpers import desk_config, events_of, legacy_digest, run_world
from manetsim import adversary, detection
from manetsim.config import SimConfig
from manetsim.engine import World
from reference_world import (keeping_opened_entries, opened_entries,
                             resolved_statuses)

DESK_ADVERSARIES = {
    adversary.HONEST: [],
    adversary.BLACK_HOLE: [{"node": 28, "kind": adversary.BLACK_HOLE}],
    adversary.GREY_HOLE: [{"node": 28, "kind": adversary.GREY_HOLE}],
    adversary.WORMHOLE: [{"node": 28, "kind": adversary.WORMHOLE, "peer": 25},
                         {"node": 25, "kind": adversary.WORMHOLE, "peer": 28}],
    adversary.SPOOF: [{"node": 10, "kind": adversary.SPOOF, "victim": 11}],
    adversary.SLANDER: [{"node": 8, "kind": adversary.SLANDER,
                         "targets": (27, 1)}],
    adversary.TABLE_OVERFLOW: [{"node": 9, "kind": adversary.TABLE_OVERFLOW}],
}

DESK_DIGESTS = {
    adversary.HONEST:
        "2958d48598c44787ef9efe8f7bd0e45adc4e82ae2c217832278c50a5d2c7e6a5",
    adversary.BLACK_HOLE:
        "2bb1c5eb488c91bbee62362f0ea698de7127f89152b9692b018847adf6109a09",
    adversary.GREY_HOLE:
        "c2f6beb5801d2f5bb684ce6c775d7dfd8eb9d3201059b899d283bb6eab33d4cd",
    adversary.WORMHOLE:
        "a162defb9bb21124c5b03f6373a2077e98ce7be8c29f565410824d7e62b23a50",
    adversary.SPOOF:
        "279ccc250c8166153907391a668f7d8f162d506b14af8e55dd2151758a5ccd9d",
    adversary.SLANDER:
        "8259384f614656360a45d0b0becd934bb1a179c82b96f005b5515d2d0e25528b",
    adversary.TABLE_OVERFLOW:
        "6bfed7183a04cab4488377efa490722bc11da3845ee602b56a7cb8055f47f9d8",
}

MOBILE_DIGESTS = {
    adversary.BLACK_HOLE:
        "a6113ca3eed70ce0c72ec22f484b696a4dab9bb8a3f2428a67214639744f2759",
    adversary.GREY_HOLE:
        "75c7df07b94ac7225fa463b86da3f7662f6226b5213d0ca869abd28781e9be2d",
    adversary.WORMHOLE:
        "61b1ba99541c6738d8a6ad510d495c659e87b4d9a089acc86de507d4be5d0cf0",
    adversary.SPOOF:
        "0b9e6b26d1b95392f39bf97d4ec7b7243fa3c1e0342f053f019f2b35e1757864",
    adversary.SLANDER:
        "22a6f53e03f59410325c14f243012ed021feef4d04cdc30b3fdd426223df4b34",
    adversary.TABLE_OVERFLOW:
        "b582aad76f48474a77a387af00f8922fed2b70f966b7f631c430d3da8634213f",
}

DEPLETION_DIGEST = \
    "8798aa2206a3fb6366be3b734538cf171cef2557d3bb2991ee33c48a38838dfe"

STATIC_REFORM_DIGEST = \
    "24bbffe5e70a6c7d94ec4b063d081da298609c452386cef2901bf4983f00419b"

BEACON_DEPLETION_DIGEST = \
    "7046d5cf8aba83bb06f16236d8926b5f4eaed59307b8b50abe8c39b08bb80a00"

BY_LINK_DIGEST = \
    "986b0ca59c084ab05c7dfb1430aaab454735bb5a870a85986bdd963dab2bfbb3"


def mobile_config(attack):
    return SimConfig(node_count=40, area=(300.0, 300.0), sim_duration=3.0,
                     seed=3, malicious_fraction=0.1, attack=attack)


def depletion_config():
    return SimConfig(node_count=40, area=(200.0, 200.0), sim_duration=3.0,
                     seed=5, initial_energy_range=(0.0005, 0.004))


def static_reform_config():
    return SimConfig(node_count=60, area=(400.0, 400.0), speed_range=(0.0, 0.0),
                     radio_range=100.0, sim_duration=5.0, seed=3,
                     hello_interval=0.05, initial_energy_range=(0.05, 0.3),
                     malicious_fraction=0.1, attack=adversary.GREY_HOLE,
                     grey_drop_rate=0.5, source_fraction=0.3, cbr_interval=0.05,
                     traffic_start=0.5)


def beacon_depletion_config():
    return SimConfig(node_count=30, area=(150.0, 150.0), speed_range=(0.0, 0.0),
                     radio_range=75.0, sim_duration=2.0, seed=1,
                     hello_interval=0.01, initial_energy_range=(0.02, 0.12),
                     source_fraction=0.2, cbr_interval=0.05, traffic_start=0.3,
                     adversaries=[{"node": 4, "kind": adversary.SPOOF, "victim": 9}])


def by_link_config():
    return dataclasses.replace(
        mobile_config(adversary.SPOOF), seed=7, source_fraction=0.5,
        cbr_interval=0.05, hello_interval=0.1, weight_energy=0.0,
        weight_trust=0.0, weight_mobility=1.0, weight_dnc=0.0)


def digest_of(world, m):
    """The run's digest, once it agrees with the log's reference digest."""
    assert world.digest() == m.digest == legacy_digest(world.events_log)
    return m.digest


@pytest.mark.parametrize("kind", adversary.KINDS)
def test_desk_digest(kind):
    world, m = run_world(desk_config(adversaries=DESK_ADVERSARIES[kind]))
    assert digest_of(world, m) == DESK_DIGESTS[kind]
    if kind == adversary.SPOOF:
        assert len(events_of(world.events_log, "spoof_flagged")) == 110


@pytest.mark.parametrize("attack", [k for k in adversary.KINDS
                                    if k != adversary.HONEST])
def test_mobile_digest(attack):
    world, m = run_world(mobile_config(attack))
    assert digest_of(world, m) == MOBILE_DIGESTS[attack]
    if attack == adversary.SPOOF:
        assert len(events_of(world.events_log, "spoof_flagged")) == 805


def test_depletion_digest():
    world, m = run_world(depletion_config())
    assert len(events_of(world.events_log, "node_depleted")) == 40
    assert digest_of(world, m) == DEPLETION_DIGEST


def test_static_reform_digest():
    world, m = run_world(static_reform_config())
    floor = [d for _, d in events_of(world.events_log, "topology")
             if d["detail"][1:] == ("head_energy_floor",)]
    assert len(floor) == 66
    assert len(events_of(world.events_log, "node_depleted")) == 9
    assert sorted(world.blacklisted) == [9, 36, 38, 53, 58, 59]
    assert digest_of(world, m) == STATIC_REFORM_DIGEST


def test_static_beacon_depletion_digest():
    """A pinned field that HELLO rounds drain: batteries run dry in rounds
    between two rebuilds (one every 10 ms, a rebuild only after a
    depletion), while a spoofer that joined a head's cluster is convicted
    and then flagged every round."""
    world, m = run_world(beacon_depletion_config())
    rounds = {t for t, _ in events_of(world.events_log, "hello_round")}
    died = [t for t, _ in events_of(world.events_log, "node_depleted")]
    between = [t for t in died
               if t in rounds and abs(t * 10 - round(t * 10)) > 1e-6]
    assert (len(died), len(between)) == (16, 13)
    assert len(events_of(world.events_log, "spoof_flagged")) == 61
    assert sorted(world.blacklisted) == [4]
    assert digest_of(world, m) == BEACON_DEPLETION_DIGEST


def test_by_link_digest():
    """Mobility terms read inside rounds run link by link: a mobility
    term kept from before such a round, though the round has extended the
    histories since, moves this digest."""
    world, m = run_world(by_link_config())
    assert len(events_of(world.events_log, "spoof_flagged")) == 105
    assert sorted(world.blacklisted) == [11, 18, 30, 38]
    assert digest_of(world, m) == BY_LINK_DIGEST


@pytest.mark.parametrize("cell, pin, reasons", [
    (desk_config(adversaries=DESK_ADVERSARIES[adversary.GREY_HOLE]),
     DESK_DIGESTS[adversary.GREY_HOLE], {"culpable_drops"}),
    (desk_config(adversaries=DESK_ADVERSARIES[adversary.SLANDER]),
     DESK_DIGESTS[adversary.SLANDER], {"forward_credit", "baseless_accusations"}),
    (mobile_config(adversary.GREY_HOLE), MOBILE_DIGESTS[adversary.GREY_HOLE],
     {"forward_credit"}),
    (mobile_config(adversary.SLANDER), MOBILE_DIGESTS[adversary.SLANDER],
     {"forward_credit"}),
    (static_reform_config(), STATIC_REFORM_DIGEST,
     {"forward_credit", "service_charge", "culpable_drops"}),
], ids=["desk_grey_hole", "desk_slander", "mobile_grey_hole", "mobile_slander",
        "static_reform"])
def test_every_trust_change_goes_through_change_trust(cell, pin, reasons,
                                                      monkeypatch):
    """Forward credits, service charges, selfishness hits and convictions
    all move trust through `World.change_trust`: on the golden grey-hole
    and slander cells it is called once per `trust_change` record, with the
    record's reason."""
    calls = []
    change = World.change_trust

    def counted(world, nid, update, reason):
        calls.append(reason)
        return change(world, nid, update, reason)

    monkeypatch.setattr(World, "change_trust", counted)
    world, m = run_world(cell)
    assert digest_of(world, m) == pin
    logged = [d["reason"] for _, d in events_of(world.events_log, "trust_change")]
    assert calls == logged
    assert set(calls) == reasons


def test_digest_refuses_a_record_logged_around_it():
    """A record appended to the log without its line being hashed makes
    the digest raise instead of returning a digest of part of the log."""
    world, m = run_world(desk_config())
    assert world.digest() == m.digest
    world.events_log.append((world.now, "forged", ()))
    with pytest.raises(RuntimeError, match="appended around"):
        world.digest()


@pytest.mark.parametrize("cell, pin", [
    ("mobile_config('spoof')", MOBILE_DIGESTS[adversary.SPOOF]),
    ("mobile_config('grey_hole')", MOBILE_DIGESTS[adversary.GREY_HOLE]),
    ("depletion_config()", DEPLETION_DIGEST),
], ids=["spoof", "grey_hole", "depletion"])
def test_digest_independent_of_hash_seed(cell, pin):
    """A run is a pure function of its config, in any interpreter.  The
    grey-hole and depletion cells add the handover watches, the route trees
    searched on read and the rounds run link by link."""
    here = Path(__file__).resolve().parent
    script = (
        "from test_golden import mobile_config, depletion_config\n"
        "from manetsim.engine import run\n"
        f"print(run({cell})[0].digest)\n")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(
                   [str(here), str(here.parent / "src")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=here,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == pin


# every golden cell with an attacker, by test id
ATTACK_CELLS = {
    **{f"desk_{kind}": desk_config(adversaries=DESK_ADVERSARIES[kind])
       for kind in adversary.KINDS if kind != adversary.HONEST},
    **{f"mobile_{attack}": mobile_config(attack)
       for attack in MOBILE_DIGESTS},
    "static_reform": static_reform_config(),
    "beacon_depletion": beacon_depletion_config(),
    "by_link": by_link_config(),
}


@pytest.mark.parametrize("cell", ATTACK_CELLS.values(), ids=ATTACK_CELLS.keys())
def test_ledgers_keep_only_pending_handovers(cell, monkeypatch):
    """A resolved handover leaves its head's `by_packet` and is counted
    once: at the end of a cell every head's resolved count and pending
    entries add up to its `open_entry` calls, the pending entries are the
    opened ones never resolved, and every gateway's counts equal the scan
    over the opened entries (`detection_reference.reference_tally`)."""
    calls = Counter()
    open_entry = detection.SurveillanceLedger.open_entry

    def counting(ledger, *args, **kwargs):
        calls[id(ledger)] += 1
        return open_entry(ledger, *args, **kwargs)

    monkeypatch.setattr(detection.SurveillanceLedger, "open_entry", counting)
    with keeping_opened_entries():
        world, _ = run_world(cell)
    assert sum(calls.values()) > 0
    for st in world.ch_state.values():
        led = st.ledger
        opened, statuses = opened_entries(led), resolved_statuses(led)
        assert (sum(counts[0] for counts in led.tally.values())
                + len(led.by_packet)) == calls[id(led)]
        assert led.by_packet == {pid: e for pid, e in opened.items()
                                 if pid not in statuses}
        gateways = {e.gateway for e in opened.values()}
        assert led.tally.keys() <= gateways
        for gw in gateways:
            assert led.tally.get(gw) == reference_tally(opened, statuses, gw, led)


@pytest.mark.parametrize("cell", ATTACK_CELLS.values(), ids=ATTACK_CELLS.keys())
def test_blacklisted_ids_leave_the_backbone(cell, monkeypatch):
    """After every backbone refresh no blacklisted id heads a cluster or
    sits on an edge, as head or as gateway. So
    `protocol.refresh_route_tables` takes every edge as usable, with no
    blacklist filter of its own."""
    refreshes = []
    refresh = World._refresh_backbone

    def checked(world):
        refresh(world)
        banned = world.blacklisted
        on_edges = {n for pair, gws in world.edges.items() for n in pair + gws}
        assert banned.isdisjoint(world.clusters), world.now
        assert banned.isdisjoint(on_edges), world.now
        refreshes.append(bool(banned))

    monkeypatch.setattr(World, "_refresh_backbone", checked)
    world, _ = run_world(cell)
    # a cell that blacklists anyone refreshes with it on the list
    assert refreshes and any(refreshes) == bool(world.blacklisted)


def record_pairs(log, kind):
    """Each record of one kind as {key: its `(key, value)` pair object}."""
    return [{pair[0]: pair for pair in data} for _, k, data in log if k == kind]


def pair_ids(records, key, by="value"):
    """{value (or the value of the `by` key): ids of the distinct `key`
    pair objects} over records from `record_pairs`."""
    ids = {}
    for rec in records:
        owner = rec[key][1] if by == "value" else rec[by][1]
        ids.setdefault(owner, set()).add(id(rec[key]))
    return ids


@pytest.mark.parametrize("cell", [
    ATTACK_CELLS["static_reform"], ATTACK_CELLS["desk_slander"],
    dataclasses.replace(mobile_config(adversary.GREY_HOLE), source_fraction=0.5,
                        cbr_interval=0.05)],
    ids=["static_reform", "desk_slander", "mobile_grey_hole_busy"])
def test_records_share_their_constant_pairs(cell):
    """The `trust_change` records of one reason share one `("reason", r)`
    pair; the routed DATA records of one session share its `("session",
    id)` pair, whichever of its routes they were sent on, and those of one
    source or destination share its `("src", id)` or `("dst", id)`. (A
    `data_emit` with no route is logged field by field.)"""
    world, _ = run_world(cell)
    log = world.events_log
    changes = record_pairs(log, "trust_change")
    emitted = [r for r in record_pairs(log, "data_emit") if r["plan"][1]]
    delivered = record_pairs(log, "data_delivered")
    shares = [pair_ids(changes, "reason"), pair_ids(emitted, "session"),
              pair_ids(delivered, "session"), pair_ids(delivered, "src"),
              pair_ids(delivered, "dst")]
    assert all(shares)
    for ids in shares:
        assert all(len(one) == 1 for one in ids.values()), ids
    assert all(ids == shares[1][sid] for sid, ids in shares[2].items())
    if cell.speed_range[1] > 0:
        # some session was replanned: its records hold two plans or more
        plans = pair_ids(emitted, "plan", by="session")
        assert any(len(one) > 1 for one in plans.values())
