"""Reference HELLO round: the per-reception form the engine's folded beacon
rounds replaced, kept as the oracle for the differential tests.

Every reception recomputes the signal from the positions, through the
per-sample formulas of `radio_reference.py`, and is charged through
`World.consume`, one call at a time; each sample is added to the history
on its own.

Like the engine's round run link by link, the reference round marks itself
as running (`Beacons.by_link`) while it extends the histories and counts
itself on the run's clock when done: a reader that keeps what it derived
from the histories by the round count (`World.node_metrics`) sees every
round.  No battery of a reference world has a rate laid out, so the count
adds no bytes.
"""

from manetsim import adversary, beacon, detection, packets, radio
from radio_reference import estimate_distance, friis_recv_power


def reference_hello_round(world):
    cfg = world.cfg
    world.beacons.by_link = True
    for nid in sorted(world.nodes):
        n = world.nodes[nid]
        if n.alive:
            world.consume(n, "tx", cfg.hello_size)
    heard = 0
    for a, b, _, _ in world._pairs:
        na, nb = world.nodes[a], world.nodes[b]
        if not (na.alive and nb.alive):
            continue
        d = max(world.distance(na, nb), radio.MIN_DISTANCE_M)
        heard += _hear_hello(world, na, nb, d)
        heard += _hear_hello(world, nb, na, d)
    world.log("hello_round", receptions=heard)
    world.beacons.by_link = False
    world.beacons.clock.rounds += 1
    nxt = world.now + cfg.hello_interval
    if nxt <= cfg.sim_duration:
        world.schedule(nxt, "hello")


def _hear_hello(world, sender, receiver, d):
    rp = friis_recv_power(sender.tx_power, d, world.cfg)
    if rp < world.cfg.recv_power_floor:
        return 0
    if not world.consume(receiver, "rx", world.cfg.hello_size):
        return 0
    claimed = sender.node_id
    if sender.policy.kind == adversary.SPOOF and sender.policy.victim is not None:
        claimed = sender.policy.victim
    est = estimate_distance(sender.tx_power, rp, world.cfg)
    hist = receiver.hello.get(claimed)
    if hist is None:
        hist = beacon.HelloRuns(world.cfg.hello_window)
        receiver.hello[claimed] = hist
    hist.extend(est, 1)
    receiver.neighbor_res[sender.node_id] = beacon.residual(sender.battery)
    if claimed != sender.node_id and receiver.node_id in world.clusters:
        st = world.ch_state[receiver.node_id]
        if sender.node_id in st.registry:
            world.log("spoof_flagged", owner=sender.node_id, claimed=claimed,
                      at=receiver.node_id, packet_kind=packets.HELLO)
            world.punish_verdict(
                detection.Verdict(detection.MALICIOUS, sender.node_id,
                                  "spoofed_identity"),
                receiver.node_id)
    return 1
