"""Deterministic discrete-event core.

Events are (time, sequence) ordered on a binary heap; equal timestamps
replay in scheduling order, so a run is a pure function of its config.
Three independent RNG streams (init, mobility, policy) keep node
trajectories identical across runs that differ only in protocol behavior,
which is what makes detection-on/off and with/without-attacker
comparisons meaningful on the same seed.
"""

import hashlib
import heapq
import math
import random

from . import adversary, clustering, detection, metrics, packets, protocol, radio, trust
from .clustering import Cluster, ElectionMetrics
from .config import SimConfig
from .errors import (NoEvidence, NoRoute, RejectedBlacklisted,
                     RejectedUntrusted, UnknownLink)
from .radio import Position, WaypointState


class Node:
    __slots__ = ("node_id", "pos", "waypoint", "tx_power", "rx_power",
                 "energy_total", "energy_expended", "tx_bytes", "rx_bytes",
                 "policy", "cluster", "hello", "neighbor_res", "depleted_logged")

    def __init__(self, node_id, pos, waypoint, tx_power, rx_power, energy_total,
                 policy):
        self.node_id = node_id
        self.pos = pos
        self.waypoint = waypoint
        self.tx_power = tx_power    # mW
        self.rx_power = rx_power    # mW
        self.energy_total = energy_total
        self.energy_expended = 0.0
        self.tx_bytes = 0           # bytes billed per role, for the energy audit
        self.rx_bytes = 0
        self.policy = policy
        self.cluster = None
        self.hello = {}             # claimed neighbor id -> HelloHistory
        self.neighbor_res = {}      # link (true) id -> last advertised residual energy
        self.depleted_logged = False

    @property
    def alive(self):
        return self.energy_expended < self.energy_total

    @property
    def res_eng(self):
        return clustering.res_eng(self.energy_expended, self.energy_total)


class ChState:
    """Head-local bookkeeping: surveillance, blacklist view, link registry."""

    def __init__(self, ch_id):
        self.ch_id = ch_id
        self.ledger = detection.SurveillanceLedger(ch_id)
        self.blacklist = set()
        self.registry = {ch_id}      # every id that ever associated here
        self.nuisance = {}           # (reporter, accused) -> report count
        self.pending = []            # (trust, src, seq, dst) request queue
        self.drain_scheduled = False
        self.selfish_applied = set()


def energy_bill(node: Node, role: str, nbytes: int, cfg: SimConfig) -> float:
    """Joules one send or receive of nbytes costs.

    power (mW) * airtime (s); airtime is nbytes * 8 / channel capacity.
    """
    power_mw = node.tx_power if role == "tx" else node.rx_power
    return power_mw / 1000.0 * (nbytes * 8 / cfg.channel_capacity)


def _charge(node: Node, role: str, nbytes: int, bill: float) -> float:
    if role == "tx":
        node.tx_bytes += nbytes
    else:
        node.rx_bytes += nbytes
    spent = min(bill, node.energy_total - node.energy_expended)
    node.energy_expended += spent
    return spent


def consume_energy(node: Node, role: str, nbytes: int, cfg: SimConfig) -> float:
    """Deduct the energy one send or receive of nbytes costs.

    Returns the joules actually deducted, which is less than the bill
    only when the battery runs dry mid-operation.
    """
    return _charge(node, role, nbytes, energy_bill(node, role, nbytes, cfg))


class World:
    """Mutable state of one run plus the event machinery."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.radio = radio.RadioParams(cfg.friis_k, cfg.path_loss_q,
                                       cfg.radio_range, cfg.recv_power_floor)
        self.thresholds = cfg.thresholds()
        self.weights = cfg.weights()
        self.rng_init = random.Random(f"{cfg.seed}:init")
        self.rng_mobility = random.Random(f"{cfg.seed}:mobility")
        self.rng_policy = random.Random(f"{cfg.seed}:policy")

        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._packet_seq = 0
        self._session_seq = 0
        self.events_log = []

        self.nodes = {}
        self.clusters = {}           # ch id -> Cluster
        self.edges = {}              # (ch_a < ch_b) -> gateway tuple from a's side
        self.ch_state = {}           # node id -> ChState, persists across role changes
        self.trust_registry = {}
        self.blacklisted = {}        # node id -> BlacklistEntry
        self.sessions = {}
        self.adjacency = {}
        self._neighbors = {}         # node id -> its adjacency, in id order
        self._pairs = []
        self._beacon_links = None    # built by the first HELLO round after a rebuild
        self._dirty_topology = True
        self._score_cache = {}

        self.generated = 0
        self.delivered = 0
        self.dropped = {}
        self.delays = []
        self.acted = set()
        self.adverts_dropped = 0
        self._flood_seq = {}
        self._source_plan = []
        self._sessions_left = {}

    # ---- plumbing ----

    def _head_state(self, ch):
        st = self.ch_state.get(ch)
        if st is None:
            st = self.ch_state[ch] = ChState(ch)
        return st

    def schedule(self, at, tag, *payload):
        heapq.heappush(self._heap, (at, self._seq, tag, payload))
        self._seq += 1

    def log(self, kind, **data):
        self.events_log.append((self.now, kind, tuple(sorted(data.items()))))

    def next_packet_id(self):
        self._packet_seq += 1
        return self._packet_seq

    def drop_data(self, packet, reason, session_id=None):
        self.dropped[reason] = self.dropped.get(reason, 0) + 1
        self.log("data_drop", packet=packet.packet_id, reason=reason)
        if session_id is not None:
            self._session_resolve(session_id, delivered=False)

    def distance(self, a: Node, b: Node) -> float:
        return a.pos.distance_to(b.pos)

    def connected(self, a: Node, b: Node) -> bool:
        """Link rule: in range and above the receiver sensitivity floor."""
        d = self.distance(a, b)
        if d > self.radio.radio_range:
            return False
        rp = radio.friis_recv_power(a.tx_power, max(d, radio.MIN_DISTANCE_M), self.radio)
        return rp >= self.radio.recv_power_floor

    def consume(self, node: Node, role, nbytes) -> bool:
        """Charge the radio bill; False when the battery could not cover it."""
        if not node.alive:
            return False
        bill = energy_bill(node, role, nbytes, self.cfg)
        spent = _charge(node, role, nbytes, bill)
        if not node.alive and not node.depleted_logged:
            node.depleted_logged = True
            self._dirty_topology = True
            self.log("node_depleted", node=node.node_id)
        return spent >= bill - 1e-18

    # ---- init ----

    def populate(self):
        cfg, rng = self.cfg, self.rng_init
        static = cfg.speed_range[1] <= 0
        for i in range(cfg.node_count):
            if cfg.positions is not None:
                pos = Position(*cfg.positions[i])
            else:
                pos = Position(rng.uniform(0, cfg.area[0]), rng.uniform(0, cfg.area[1]))
            target = Position(rng.uniform(0, cfg.area[0]), rng.uniform(0, cfg.area[1]))
            speed = rng.uniform(*cfg.speed_range)
            wp = WaypointState(target if not static else Position(pos.x, pos.y),
                               speed if not static else 0.0)
            tx = rng.uniform(*cfg.tx_power_range)
            rx = rng.uniform(*cfg.rx_power_range)
            energy = rng.uniform(*cfg.initial_energy_range)
            energy = cfg.energy_overrides.get(i, energy)
            self.nodes[i] = Node(i, pos, wp, tx, rx, energy,
                                 adversary.BehaviorPolicy(owner=i))
            self.trust_registry[i] = trust.init_trust(i)
        self._place_adversaries()
        self._plan_traffic()

    def _place_adversaries(self):
        cfg, rng = self.cfg, self.rng_init
        ids = sorted(self.nodes)
        shuffled = rng.sample(ids, len(ids))
        placements = list(cfg.adversaries)
        if not placements and cfg.malicious_fraction > 0:
            k = int(round(cfg.malicious_fraction * len(ids)))
            chosen = shuffled[:k]
            if cfg.attack == adversary.WORMHOLE:
                for a, b in zip(chosen[::2], chosen[1::2]):
                    placements.append({"node": a, "kind": adversary.WORMHOLE, "peer": b})
                    placements.append({"node": b, "kind": adversary.WORMHOLE, "peer": a})
            else:
                for n in chosen:
                    spec = {"node": n, "kind": cfg.attack}
                    if cfg.attack == adversary.SPOOF:
                        spec["victim"] = next(v for v in shuffled if v not in chosen)
                    elif cfg.attack == adversary.SLANDER:
                        spec["targets"] = tuple(v for v in shuffled if v not in chosen)[:2]
                    placements.append(spec)
        for spec in placements:
            spec = dict(spec)
            nid = spec.pop("node")
            kind = spec.pop("kind")
            pol = adversary.BehaviorPolicy(
                kind=kind, owner=nid,
                peer=spec.get("peer"), victim=spec.get("victim"),
                targets=tuple(spec.get("targets", ())),
                rate=spec.get("rate", self.cfg.flood_rate),
                drop_rate=spec.get("drop_rate", self.cfg.grey_drop_rate))
            self.nodes[nid].policy = pol
            self.log("adversary", node=nid, policy=kind)

    def _plan_traffic(self):
        cfg, rng = self.cfg, self.rng_init
        if cfg.traffic is not None:
            self._source_plan = [(int(s), int(d)) for s, d in cfg.traffic]
            return
        ids = sorted(self.nodes)
        if cfg.source_fraction <= 0 or len(ids) < 2:
            return
        k = max(1, int(round(cfg.source_fraction * len(ids))))
        sources = rng.sample(ids, k)
        for s in sources:
            dst = rng.choice([n for n in ids if n != s])
            self._source_plan.append((s, dst))

    # ---- topology upkeep ----

    def _step_mobility(self):
        cfg = self.cfg
        if cfg.speed_range[1] <= 0:
            return False
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            radio.waypoint_step(n.pos, n.waypoint, cfg.topology_interval,
                                cfg.area, cfg.pause_time, cfg.speed_range,
                                self.rng_mobility)
        return True

    def _rebuild_adjacency(self):
        rng_r = self.radio.radio_range
        nodes = self.nodes
        adj = {nid: set() for nid in nodes if nodes[nid].alive}
        ids = sorted(adj)
        pairs = []
        for i, a in enumerate(ids):
            na = nodes[a]
            ax, ay = na.pos.x, na.pos.y
            for b in ids[i + 1:]:
                nb = nodes[b]
                dx, dy = ax - nb.pos.x, ay - nb.pos.y
                if dx * dx + dy * dy <= rng_r * rng_r:
                    if self.connected(na, nb) and self.connected(nb, na):
                        adj[a].add(b)
                        adj[b].add(a)
                        pairs.append((a, b))
        self.adjacency = adj
        self._neighbors = {nid: sorted(nbs) for nid, nbs in adj.items()}
        self._pairs = pairs
        self._beacon_links = None

    def node_metrics(self, nid, incumbent=None) -> ElectionMetrics:
        n = self.nodes[nid]
        cfg = self.cfg
        v_max = cfg.speed_range[1]
        mob = 1.0
        if v_max > 0:
            t = cfg.hello_interval
            hello = n.hello
            vals = []
            for nb in self._neighbors.get(nid, ()):
                hist = hello.get(nb)
                if hist is not None:
                    dists = hist.dists
                    if len(dists) >= 2:
                        # radio.pairwise_mobility's expression, so the floats match
                        vals.append((dists[-1] - dists[0]) / (len(dists) * t))
            if vals:
                mob = clustering.mobility_membership(radio.avg_mobility(vals), v_max)
        ch = incumbent if incumbent is not None else n.cluster
        ndnb_ch = len(self.adjacency.get(ch, ())) if ch is not None else 0
        if ch is not None and ch != nid and ndnb_ch >= 1:
            cov = clustering.dnc(len(self.adjacency.get(nid, ())), ndnb_ch)
        else:
            cov = clustering.DNC_DEFAULT
        return ElectionMetrics(nid, n.res_eng,
                               trust.trust_value(self.trust_registry[nid]),
                               mob, cov)

    def _refresh_backbone(self):
        score = self._score_cache
        score.clear()

        def score_fn(nid):
            if nid not in score:
                score[nid] = clustering.composite_score(self.node_metrics(nid), self.weights)
            return score[nid]

        self.edges = clustering.designate_gateways(
            self.clusters, self.adjacency, score_fn, self.blacklisted)
        tables = protocol.route_tables(self.clusters, self.edges, self.blacklisted)
        for ch, cl in self.clusters.items():
            cl.routes = tables[ch]

    def _sweep_topology(self):
        moved = self._step_mobility()
        if moved or self._dirty_topology:
            self._rebuild_adjacency()
            self._dirty_topology = False
        alive = set(self.adjacency)

        def may_head(nid):
            return (self.nodes[nid].policy.kind == adversary.HONEST
                    and nid not in self.blacklisted)

        def may_join(nid, ch):
            return nid not in self.blacklisted

        events = clustering.maintain_membership(
            self.clusters, alive, self.adjacency, self.node_metrics,
            self.weights, may_head, may_join)
        for ev in events:
            self.log("topology", change=ev[0], detail=tuple(ev[1:]))
        for nid in self.nodes:
            self.nodes[nid].cluster = None
        for ch, cl in self.clusters.items():
            state = self._head_state(ch)
            state.registry.update(cl.members)
            state.registry.add(ch)
            for n in cl.nodes():
                self.nodes[n].cluster = ch
        self._refresh_backbone()

    # ---- punishment hooks used by detection.punish ----

    def note_trust_change(self, nid, before, after, reason):
        self.log("trust_change", node=nid, before=round(before, 9),
                 after=round(after, 9), reason=reason)

    def eject_node(self, nid):
        self.nodes[nid].cluster = None
        doomed = self.clusters.pop(nid, None)
        if doomed is not None:
            for m in doomed.members:
                self.nodes[m].cluster = None
        for cl in self.clusters.values():
            cl.members.discard(nid)
            cl.gateways.discard(nid)
        self._refresh_backbone()

    def flood_blacklist(self, nid, issuing_ch, reason):
        self.log("blacklist", node=nid, by=issuing_ch, reason=reason)
        if issuing_ch in self.ch_state:
            self.ch_state[issuing_ch].blacklist.add(nid)
        self._propagate_blacklist(nid, issuing_ch, reason)

    def _propagate_blacklist(self, nid, from_ch, reason):
        hop_t = protocol.tx_time(self.cfg.control_size, self.cfg.channel_capacity)
        for pair, gws in sorted(self.edges.items()):
            if from_ch not in pair:
                continue
            to_ch = pair[0] if pair[1] == from_ch else pair[1]
            if to_ch in self.ch_state and nid in self.ch_state[to_ch].blacklist:
                continue
            if from_ch in self.nodes:
                self.consume(self.nodes[from_ch], "tx", self.cfg.control_size)
            self.schedule(self.now + hop_t * (len(gws) + 1), "bl", nid, from_ch, to_ch, reason)

    def punish_verdict(self, verdict, issuing_ch):
        if not self.cfg.detection_enabled:
            return
        if detection.punish(self, verdict, issuing_ch):
            self.log("verdict", label=verdict.label, target=verdict.target,
                     by=issuing_ch, reason=verdict.reason)

    def apply_selfish(self, nid, ch_id, reason):
        """One punitive selfishness hit; may tip the node under the
        blacklist limit, which is the only non-malice path onto it."""
        if not self.cfg.detection_enabled:
            return
        rec = self.trust_registry[nid]
        before = trust.trust_value(rec)
        trust.on_selfish(rec)
        self.note_trust_change(nid, before, trust.trust_value(rec), reason)
        if (nid not in self.blacklisted
                and trust.is_blacklisted(rec, self.thresholds.blacklist_limit)):
            self.blacklisted[nid] = trust.BlacklistEntry(nid, ch_id, "trust_below_limit", self.now)
            self.eject_node(nid)
            self.flood_blacklist(nid, ch_id, "trust_below_limit")

    # ---- session bookkeeping ----

    def _session_resolve(self, session_id, delivered):
        s = self.sessions.get(session_id)
        if s is None or s.closed:
            return
        if delivered:
            s.delivered += 1
            s.last_delivery = self.now
        else:
            s.failed += 1
        if s.delivered + s.failed >= s.packets_total:
            s.closed = True
            success = s.delivered == s.packets_total
            if success:
                rec = self.trust_registry[s.src]
                before = trust.trust_value(rec)
                trust.on_service_charge(rec)
                # the transfer fee is bookkeeping, not an accusation: it
                # never trips the blacklist check
                self.note_trust_change(s.src, before, trust.trust_value(rec),
                                       "service_charge")
            self.log("session_complete", session=session_id, success=success,
                     delivered=s.delivered)
            self._schedule_followup(s)

    def _schedule_followup(self, s):
        key = s.src
        remaining = self._sessions_left.get(key)
        if remaining is None:
            return
        if remaining > 0 or remaining == -1:
            nxt = self.now + self.cfg.cbr_interval
            if nxt < self.cfg.sim_duration:
                self.schedule(nxt, "sess", s.src, s.dst)

    # ---- event handlers ----

    def _topo_tick(self):
        self._sweep_topology()
        nxt = self.now + self.cfg.topology_interval
        if nxt <= self.cfg.sim_duration:
            self.schedule(nxt, "topo")

    def _build_beacon_links(self):
        """What every HELLO round until the next adjacency rebuild reuses.

        Positions move only right before a rebuild, so the link geometry is
        fixed in between. Returns (senders, links): senders is every node
        with its HELLO transmit bill, in id order; links holds both
        directions of every pair in `_pairs` order, each as (receiver,
        sender, distance estimate, the receiver's HELLO samples of the id
        the sender claims, the receiver's residual-energy table, the
        receiver's HELLO receive bill, the claimed id when spoofed or None,
        whether the entry opens its pair). Both directions passed the link
        rule at the rebuild, so every one is above the sensitivity floor.
        """
        cfg, params, nodes = self.cfg, self.radio, self.nodes
        size = cfg.hello_size
        senders = [(n, energy_bill(n, "tx", size, cfg))
                   for _, n in sorted(nodes.items())]
        rx_bill = {nid: energy_bill(n, "rx", size, cfg) for nid, n in nodes.items()}
        links = []
        for a, b in self._pairs:
            na, nb = nodes[a], nodes[b]
            d = max(self.distance(na, nb), radio.MIN_DISTANCE_M)
            for sender, receiver in ((na, nb), (nb, na)):
                rp = radio.friis_recv_power(sender.tx_power, d, params)
                est = radio.estimate_distance(sender.tx_power, rp, params)
                claimed = sender.node_id
                if sender.policy.kind == adversary.SPOOF and sender.policy.victim is not None:
                    claimed = sender.policy.victim
                hist = receiver.hello.get(claimed)
                if hist is None:
                    hist = radio.HelloHistory(claimed, cfg.hello_window)
                    receiver.hello[claimed] = hist
                links.append((receiver, sender, est, hist.dists, receiver.neighbor_res,
                              rx_bill[receiver.node_id],
                              claimed if claimed != sender.node_id else None,
                              sender is na))
        return senders, links

    def _hello_round(self):
        """One beacon exchange: every live node transmits once, every live
        in-range pair hears each other (both directions).

        Bills that leave the battery above empty are added in place; any
        other charge goes through `consume`, which clamps it and logs the
        depletion, so the floats and the log match per-call charging.
        """
        cfg = self.cfg
        if self._beacon_links is None:
            self._beacon_links = self._build_beacon_links()
        senders, links = self._beacon_links
        size, window = cfg.hello_size, cfg.hello_window
        for n, bill in senders:
            e = n.energy_expended
            if bill <= n.energy_total - e and e + bill < n.energy_total:
                n.energy_expended = e + bill
                n.tx_bytes += size
            else:
                self.consume(n, "tx", size)
        heard = 0
        live = False
        for receiver, sender, est, dists, res, bill, spoofed, opens_pair in links:
            if opens_pair:
                live = (sender.energy_expended < sender.energy_total
                        and receiver.energy_expended < receiver.energy_total)
            if not live:
                continue
            e = receiver.energy_expended
            if bill <= receiver.energy_total - e and e + bill < receiver.energy_total:
                receiver.energy_expended = e + bill
                receiver.rx_bytes += size
            elif not self.consume(receiver, "rx", size):
                continue
            dists.append(est)
            if len(dists) > window:
                del dists[0]
            # residual energy rides in the beacon and is tracked per physical link
            res[sender.node_id] = 1.0 - sender.energy_expended / sender.energy_total
            heard += 1
            if spoofed is not None and receiver.node_id in self.clusters:
                if sender.node_id in self.ch_state[receiver.node_id].registry:
                    self.log("spoof_flagged", owner=sender.node_id, claimed=spoofed,
                             at=receiver.node_id, packet_kind=packets.HELLO)
                    self.punish_verdict(
                        detection.Verdict(detection.MALICIOUS, sender.node_id,
                                          (spoofed,), "spoofed_identity"),
                        receiver.node_id)
        self.log("hello_round", receptions=heard)
        nxt = self.now + cfg.hello_interval
        if nxt <= cfg.sim_duration:
            self.schedule(nxt, "hello")

    # -- session admission --

    def _session_request(self, src, dst):
        node = self.nodes[src]
        if not node.alive:
            return
        ch = node.cluster
        if (ch is None or ch not in self.clusters
                or (ch != src and ch not in self.adjacency.get(src, ()))):
            # not clustered yet (or drifted off the head); transient, retry
            self.log("session_rejected", src=src, dst=dst, reason="no_cluster")
            retry = self.now + 0.5
            if retry < self.cfg.sim_duration:
                self.schedule(retry, "sess", src, dst)
            return
        rreq = packets.Packet(packets.RREQ, src, ch, self.next_packet_id(),
                              self.cfg.control_size, payload={"dst": dst},
                              created_at=self.now)
        if node.policy.kind == adversary.SPOOF and node.policy.victim is not None:
            adversary.spoof_identity(node.policy, rreq)
            self.log("spoof_attempt", node=src, claimed=rreq.src, packet_kind=packets.RREQ)
            self.acted.add(src)
        self.log("session_request", src=src, dst=dst)
        if ch != src:
            # one-hop broadcast to the head; bystanders overhear it too
            self.consume(node, "tx", self.cfg.control_size)
            for nb in sorted(self.adjacency.get(src, ())):
                nbn = self.nodes[nb]
                if not nbn.alive:
                    continue
                self.consume(nbn, "rx", self.cfg.control_size)
                if nb == ch:
                    continue
                act = adversary.intercept(nbn.policy, rreq, self.rng_policy)
                if act.kind == adversary.FABRICATE:
                    self._false_rrep(nb, ch, act.packet)
                elif act.kind == adversary.TUNNEL:
                    self._tunnel(rreq, nb, act.peer, None)
        st = self.ch_state[ch]
        try:
            verdict = detection.verify_identity(st.registry, src, rreq.src)
        except UnknownLink:
            self.log("rreq_unknown_link", link=src, at=ch)
            return
        if verdict is not None and verdict.label == detection.MALICIOUS:
            self.log("spoof_flagged", owner=src, claimed=rreq.src, at=ch,
                     packet_kind=packets.RREQ)
            self.punish_verdict(verdict, ch)
            return
        value = trust.trust_value(self.trust_registry[src])
        st.pending.append((value, src, self._seq, dst))
        if not st.drain_scheduled:
            st.drain_scheduled = True
            self.schedule(self.now + protocol.tx_time(self.cfg.control_size,
                                                      self.cfg.channel_capacity),
                          "admit", ch)

    def _false_rrep(self, attacker, ch, fake):
        """A member pushing an unsolicited reply at the head: heads own the
        topology, so the forged shortcut is discarded on arrival."""
        fake.packet_id = self.next_packet_id()
        self.consume(self.nodes[attacker], "tx", self.cfg.control_size)
        self.consume(self.nodes[ch], "rx", self.cfg.control_size)
        self.log("rrep_rejected", node=attacker, at=ch,
                 claimed_hops=fake.payload.get("claimed_hops"))

    def _drain_admissions(self, ch):
        if ch not in self.ch_state:
            return
        st = self.ch_state[ch]
        st.drain_scheduled = False
        pending, st.pending = st.pending, []
        if ch not in self.clusters:
            for _, src, _, dst in pending:
                self.log("session_rejected", src=src, dst=dst, reason="head_gone")
            return
        for _, src, _, dst in protocol.drain_order(pending):
            try:
                granted = protocol.originate_request(self, src, dst, self.now)
            except RejectedBlacklisted:
                self.log("session_rejected", src=src, dst=dst, reason="blacklisted")
                continue
            except RejectedUntrusted:
                self.log("session_rejected", src=src, dst=dst, reason="untrusted")
                continue
            self._session_seq += 1
            sid = self._session_seq
            self.sessions[sid] = packets.Session(
                sid, src, dst, self.now, self.cfg.session_packets, granted)
            left = self._sessions_left.get(src)
            if left is not None and left > 0:
                self._sessions_left[src] = left - 1
            self.log("session_admitted", session=sid, src=src, dst=dst,
                     trust=round(granted, 9))
            self.schedule(self.now, "emit", sid)

    # -- data plane --

    def _emit_packet(self, sid):
        s = self.sessions[sid]
        if s.closed or s.sent >= s.packets_total:
            return
        node = self.nodes[s.src]
        if not node.alive:
            s.closed = True
            self.log("session_abandoned", session=sid)
            return
        if s.src in self.blacklisted or s.dst in self.blacklisted:
            # network-wide refusal cuts the node off mid-session too
            s.closed = True
            self.log("session_refused", session=sid, reason="blacklisted")
            return
        s.sent += 1
        self.generated += 1
        pid = self.next_packet_id()
        packet = packets.Packet(packets.DATA, s.src, s.dst, pid,
                                self.cfg.packet_size, payload={"session": sid},
                                created_at=self.now, path_trace=[s.src])
        try:
            route = protocol.discover_route(self, s.src, s.dst)
        except NoRoute:
            self.log("data_emit", packet=pid, session=sid, plan=())
            self.drop_data(packet, "no_route", sid)
        else:
            s.ch_path = route
            plan, segments = protocol.build_plan(route, s.src, s.dst)
            timeout_s = protocol.ack_timeout(
                self.cfg.packet_size, self.cfg.channel_capacity,
                len(plan) - 1, self.cfg.ack_timeout_factor)
            self.log("data_emit", packet=pid, session=sid, plan=tuple(plan),
                     segs=tuple(segments))
            self.schedule(self.now + protocol.tx_time(self.cfg.packet_size,
                                                      self.cfg.channel_capacity),
                          "hop", packet, plan, 0, tuple(segments), sid, timeout_s)
        if s.sent < s.packets_total:
            self.schedule(self.now + self.cfg.cbr_interval, "emit", sid)

    def _watch_mobility(self, watcher: Node, subject):
        hist = watcher.hello.get(subject)
        if hist is None or len(hist.dists) < 2:
            return None
        return radio.pairwise_mobility(hist, self.cfg.hello_interval)

    def _hop(self, packet, plan, idx, segments, session_id, timeout_s):
        frm, to = plan[idx], plan[idx + 1]
        fn, tn = self.nodes[frm], self.nodes[to]
        seg = next(((p, q) for (p, q) in segments if p <= idx < q), None)
        entry = None
        if seg is not None:
            st_up = self.ch_state.get(plan[seg[0]])
            if st_up is not None:
                cand = st_up.ledger.by_packet.get(packet.packet_id)
                if cand is not None and cand.ack_status == detection.PENDING:
                    entry = cand

        ok = fn.alive and self.consume(fn, "tx", packet.size)
        live = ok and tn.alive and self.connected(fn, tn) and self.connected(tn, fn)
        if live:
            live = self.consume(tn, "rx", packet.size)
        if not live:
            # the sender sees the MAC failure; a watching head that saw its
            # custodian attempt the hop clears it of suspicion
            if entry is not None and entry.gateway == frm:
                entry.retransmitted = True
                entry.context = detection.LINK_BROKEN
            self.log("hop_fail", packet=packet.packet_id, frm=frm, to=to)
            self.drop_data(packet, "link_break", session_id)
            return

        if seg is not None:
            p, q = seg
            up_ch = plan[p]
            if idx == p:
                # handover off the upstream head: open the watch and start
                # the ack clock, snapshotting what the head knew just now
                ch_node = self.nodes[up_ch]
                st = self._head_state(up_ch)
                st.ledger.open_entry(
                    packet.packet_id, to, self.now,
                    res_eng=ch_node.neighbor_res.get(to, tn.res_eng),
                    rel_mobility=self._watch_mobility(ch_node, to),
                    downstream_ch=plan[q])
                self.schedule(self.now + timeout_s, "timeout", up_ch,
                              packet.packet_id)
            elif entry is not None and entry.gateway == frm:
                entry.retransmitted = True
                if idx + 1 < q:
                    # custody moves to the far-side gateway, observed by the
                    # downstream head whose vantage supplies the snapshots
                    down = self.nodes[plan[q]]
                    entry.gateway = to
                    entry.res_eng = down.neighbor_res.get(to, tn.res_eng)
                    entry.rel_mobility = self._watch_mobility(down, to)

        final = idx + 1 == len(plan) - 1
        if not final:
            act = adversary.intercept(tn.policy, packet, self.rng_policy)
            if act.kind == adversary.DROP:
                self.acted.add(to)
                self.log("policy_drop", node=to, packet=packet.packet_id,
                         packet_kind=packet.kind)
                self.drop_data(packet, "policy", session_id)
                return
            if act.kind == adversary.TUNNEL:
                self._tunnel(packet, to, act.peer, session_id)
                return
        packet.path_trace.append(to)

        if seg is not None and idx + 1 == seg[1]:
            # crossed into the downstream head: remember the consult answer
            # and push the ack back along the same gateways
            if entry is not None:
                entry.delivered_downstream = True
            self._send_ack(plan, seg, packet)

        if final:
            self._deliver(packet, session_id)
        else:
            self.schedule(self.now + protocol.tx_time(packet.size,
                                                      self.cfg.channel_capacity),
                          "hop", packet, plan, idx + 1, segments, session_id,
                          timeout_s)

    def _deliver(self, packet, session_id):
        self.delivered += 1
        self.delays.append(self.now - packet.created_at)
        self.log("data_delivered", packet=packet.packet_id, session=session_id,
                 src=packet.src, dst=packet.dst, path=tuple(packet.path_trace))
        for fwd in packet.path_trace[1:-1]:
            rec = self.trust_registry[fwd]
            before = trust.trust_value(rec)
            trust.on_forward_success(rec)
            self.note_trust_change(fwd, before, trust.trust_value(rec),
                                   "forward_credit")
        self._session_resolve(session_id, delivered=True)

    def _send_ack(self, plan, seg, packet):
        aplan = protocol.ack_plan(plan, seg)
        ack = packets.Packet(packets.ACK, aplan[0], aplan[-1],
                             self.next_packet_id(), self.cfg.control_size,
                             payload={"ref": packet.packet_id},
                             created_at=self.now)
        self.schedule(self.now + protocol.tx_time(ack.size, self.cfg.channel_capacity),
                      "ackhop", ack, tuple(aplan), 0)

    def _ack_hop(self, ack, aplan, idx):
        frm, to = aplan[idx], aplan[idx + 1]
        fn, tn = self.nodes[frm], self.nodes[to]
        ok = fn.alive and self.consume(fn, "tx", ack.size)
        live = ok and tn.alive and self.connected(fn, tn) and self.connected(tn, fn)
        if live:
            live = self.consume(tn, "rx", ack.size)
        if not live:
            self.log("ack_lost", ref=ack.payload["ref"], frm=frm, to=to)
            return
        if idx + 1 < len(aplan) - 1:
            # intermediaries relay receipts; the drop policies spare control
            act = adversary.intercept(tn.policy, ack, self.rng_policy)
            if act.kind == adversary.DROP:
                self.log("ack_lost", ref=ack.payload["ref"], frm=frm, to=to)
                return
            self.schedule(self.now + protocol.tx_time(ack.size,
                                                      self.cfg.channel_capacity),
                          "ackhop", ack, aplan, idx + 1)
            return
        st = self.ch_state.get(to)
        if st is None:
            return
        entry = st.ledger.resolve(ack.payload["ref"], detection.ACKED)
        if entry is not None:
            self.log("ack_delivered", ref=ack.payload["ref"], at=to,
                     gateway=entry.gateway)
            self._judge(to, entry.gateway)

    def _ack_timeout(self, ch_id, packet_id):
        st = self.ch_state.get(ch_id)
        if st is None:
            return
        entry = st.ledger.by_packet.get(packet_id)
        if entry is None or entry.ack_status != detection.PENDING:
            return
        if entry.delivered_downstream:
            # the far head saw it; only the receipt went missing
            entry.context = detection.LINK_BROKEN
        st.ledger.resolve(packet_id, detection.TIMEOUT)
        self.log("ack_timeout", packet=packet_id, at=ch_id,
                 gateway=entry.gateway, context=entry.context)
        self._judge(ch_id, entry.gateway)

    def _judge(self, ch_id, gateway):
        if not self.cfg.detection_enabled:
            return
        st = self.ch_state[ch_id]
        try:
            verdict = detection.judge_forwarding(st.ledger, gateway, self.thresholds)
        except NoEvidence:
            return
        if verdict.label == detection.MALICIOUS:
            self.punish_verdict(verdict, ch_id)
        elif verdict.label == detection.SELFISH and gateway not in st.selfish_applied:
            st.selfish_applied.add(gateway)
            self.apply_selfish(gateway, ch_id, "recurring_refusal")

    def _tunnel(self, packet, nid, peer, session_id):
        self.log("tunnel", node=nid, peer=peer, packet=packet.packet_id,
                 packet_kind=packet.kind)
        pn = self.nodes.get(peer)
        if packet.kind == packets.DATA:
            self.acted.add(nid)
            if pn is not None and pn.alive:
                # far end injects straight at the destination, skipping the
                # heads; the destination only takes data from its own head
                self.consume(pn, "tx", packet.size)
                dn = self.nodes[packet.dst]
                if dn.alive and self.connected(pn, dn) and self.connected(dn, pn):
                    self.consume(dn, "rx", packet.size)
                    self.log("tunnel_delivery_rejected", dst=packet.dst,
                             packet=packet.packet_id)
                else:
                    self.log("tunnel_no_outlet", peer=peer, packet=packet.packet_id)
            self.drop_data(packet, "tunnel", session_id)
        elif packet.kind == packets.RREQ:
            if pn is not None and pn.alive and pn.cluster in self.clusters:
                self.consume(pn, "tx", self.cfg.control_size)
                self.consume(self.nodes[pn.cluster], "rx", self.cfg.control_size)
                # a request replayed from a node that was never a member here
                self.log("wormhole_rreq_rejected", at=pn.cluster, replayed_by=peer,
                         claimed=packet.src)

    # -- adversary ticks --

    def _slander_tick(self, nid):
        node = self.nodes[nid]
        if not node.alive:
            return
        ch = node.cluster
        if (ch is not None and ch in self.clusters
                and ch in self.adjacency.get(nid, ())
                and nid not in self.blacklisted):
            reports = adversary.emit_slander(node.policy, ch, self.now)
            for rep in reports:
                rep.packet_id = self.next_packet_id()
                self.consume(node, "tx", self.cfg.control_size)
                self.consume(self.nodes[ch], "rx", self.cfg.control_size)
                st = self.ch_state[ch]
                outcome = detection.handle_trust_report(
                    st.nuisance, rep, self.thresholds.nuisance_limit)
                self.log("trust_report", reporter=nid, accused=rep.payload["accused"],
                         at=ch, outcome=outcome)
                if outcome == "reporter_selfish":
                    self.log("trust_report_selfish", reporter=nid, at=ch)
                    self.acted.add(nid)
                    self.apply_selfish(nid, ch, "baseless_accusations")
        nxt = self.now + self.cfg.slander_interval
        if nxt <= self.cfg.sim_duration:
            self.schedule(nxt, "slander", nid)

    def _spoof_tick(self, nid):
        node = self.nodes[nid]
        if not node.alive:
            return
        ch = node.cluster
        if ch is None or ch not in self.clusters or ch not in self.adjacency.get(nid, ()):
            ch = None
            best = None
            for cand in sorted(self.clusters):
                if cand == nid or cand not in self.adjacency.get(nid, ()):
                    continue
                d = self.distance(node, self.nodes[cand])
                if best is None or (d, cand) < best:
                    best = (d, cand)
                    ch = cand
        if ch is not None and node.policy.victim is not None:
            rreq = packets.Packet(packets.RREQ, nid, ch, self.next_packet_id(),
                                  self.cfg.control_size,
                                  payload={"dst": node.policy.victim},
                                  created_at=self.now)
            adversary.spoof_identity(node.policy, rreq)
            self.log("spoof_attempt", node=nid, claimed=rreq.src, packet_kind=packets.RREQ)
            self.acted.add(nid)
            self.consume(node, "tx", self.cfg.control_size)
            self.consume(self.nodes[ch], "rx", self.cfg.control_size)
            st = self._head_state(ch)
            try:
                verdict = detection.verify_identity(st.registry, nid, rreq.src)
            except UnknownLink:
                self.log("rreq_unknown_link", link=nid, at=ch)
                verdict = None
            if verdict is not None and verdict.label == detection.MALICIOUS:
                self.log("spoof_flagged", owner=nid, claimed=rreq.src, at=ch,
                         packet_kind=packets.RREQ)
                self.punish_verdict(verdict, ch)
        nxt = self.now + self.cfg.spoof_interval
        if nxt <= self.cfg.sim_duration:
            self.schedule(nxt, "spoof", nid)

    def _flood_tick(self, nid):
        node = self.nodes[nid]
        if not node.alive:
            return
        ch = node.cluster
        n = adversary.flood_count(node.policy, self.cfg.flood_interval)
        if (n > 0 and ch is not None and ch in self.clusters
                and ch in self.adjacency.get(nid, ())):
            seq = self._flood_seq.get(nid, 0)
            adverts = adversary.emit_table_flood(node.policy, n, seq, ch, self.now)
            self._flood_seq[nid] = seq + len(adverts)
            self.consume(node, "tx", self.cfg.control_size * len(adverts))
            self.consume(self.nodes[ch], "rx", self.cfg.control_size * len(adverts))
            kept = 0
            for adv in adverts:
                if detection.handle_route_advert(adv, from_member=True):
                    kept += 1
            self.adverts_dropped += len(adverts) - kept
            self.log("advert_burst", node=nid, at=ch, count=len(adverts),
                     accepted=kept, table_size=len(self.clusters[ch].routes))
        nxt = self.now + self.cfg.flood_interval
        if nxt <= self.cfg.sim_duration:
            self.schedule(nxt, "flood", nid)

    def _blacklist_rx(self, nid, from_ch, to_ch, reason):
        if to_ch not in self.clusters:
            return
        st = self._head_state(to_ch)
        if nid in st.blacklist:
            return
        self.consume(self.nodes[to_ch], "rx", self.cfg.control_size)
        st.blacklist.add(nid)
        self.log("blacklist_rx", node=nid, at=to_ch)
        self._propagate_blacklist(nid, to_ch, reason)

    # ---- run loop ----

    def run(self) -> "metrics.Metrics":
        cfg = self.cfg
        self.populate()
        self.log("run_start", nodes=cfg.node_count, seed=cfg.seed,
                 duration=cfg.sim_duration)
        self.schedule(0.0, "topo")
        self.schedule(0.0, "hello")
        for i, (s, d) in enumerate(self._source_plan):
            self._sessions_left[s] = (cfg.sessions_per_source
                                      if cfg.sessions_per_source is not None else -1)
            self.schedule(cfg.traffic_start + i * cfg.cbr_interval, "sess", s, d)
        for nid in sorted(self.nodes):
            kind = self.nodes[nid].policy.kind
            if kind == adversary.SLANDER:
                self.schedule(cfg.traffic_start, "slander", nid)
            elif kind == adversary.SPOOF:
                self.schedule(cfg.traffic_start, "spoof", nid)
            elif kind == adversary.TABLE_OVERFLOW:
                self.schedule(cfg.traffic_start, "flood", nid)
        handlers = {
            "topo": self._topo_tick,
            "hello": self._hello_round,
            "sess": self._session_request,
            "admit": self._drain_admissions,
            "emit": self._emit_packet,
            "hop": self._hop,
            "ackhop": self._ack_hop,
            "timeout": self._ack_timeout,
            "slander": self._slander_tick,
            "spoof": self._spoof_tick,
            "flood": self._flood_tick,
            "bl": self._blacklist_rx,
        }
        while self._heap:
            at, _, tag, payload = heapq.heappop(self._heap)
            if at > cfg.sim_duration:
                break
            self.now = at
            handlers[tag](*payload)
        self.now = cfg.sim_duration
        return self.collect()

    # ---- results ----

    def digest(self) -> str:
        h = hashlib.sha256()
        for at, kind, data in self.events_log:
            h.update(f"{at:.9f}|{kind}|{data!r}\n".encode())
        return h.hexdigest()

    def collect(self) -> "metrics.Metrics":
        cfg = self.cfg
        dropped_total = sum(self.dropped.values())
        assert self.delivered + dropped_total <= self.generated
        for n in self.nodes.values():
            # energy audit: what the battery lost must match the bytes the
            # node sent and received, billed at its drawn powers
            billed = (energy_bill(n, "tx", n.tx_bytes, cfg)
                      + energy_bill(n, "rx", n.rx_bytes, cfg))
            assert math.isclose(n.energy_expended, min(n.energy_total, billed),
                                rel_tol=1e-9), (n.node_id, n.energy_expended, billed)
        planted = tuple(sorted(n for n, nd in self.nodes.items()
                               if nd.policy.kind != adversary.HONEST))
        kinds = tuple(sorted({self.nodes[n].policy.kind for n in planted}))
        acted = tuple(sorted(self.acted))
        caught = sum(1 for n in acted if n in self.blacklisted)
        fps = sum(1 for n in self.blacklisted if n not in planted)
        if planted and cfg.malicious_fraction <= 0:
            frac = round(len(planted) / cfg.node_count, 6)
        else:
            frac = cfg.malicious_fraction
        return metrics.Metrics(
            node_count=cfg.node_count,
            seed=cfg.seed,
            malicious_fraction=frac,
            attack_kinds=kinds,
            detection_rate=metrics.rate(caught, len(acted)),
            false_positives=fps,
            throughput=metrics.rate(self.delivered, self.generated),
            mean_e2e_delay=metrics.mean_delay(self.sessions.values()),
            generated=self.generated,
            delivered=self.delivered,
            dropped=dict(sorted(self.dropped.items())),
            expired=self.generated - self.delivered - dropped_total,
            sessions_started=len(self.sessions),
            sessions_completed=sum(1 for s in self.sessions.values()
                                   if s.delivered == s.packets_total),
            blacklisted=tuple(sorted(self.blacklisted)),
            planted=planted,
            acted=acted,
            energy_remaining={n: round(nd.energy_total - nd.energy_expended, 12)
                              for n, nd in sorted(self.nodes.items())},
            digest=self.digest())


def run(cfg: SimConfig):
    """One full simulation; returns (metrics, event log)."""
    world = World(cfg)
    result = world.run()
    return result, world.events_log
