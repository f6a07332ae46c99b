"""Deterministic discrete-event core.

Events are (time, sequence) ordered on a binary heap; equal timestamps
replay in scheduling order, so a run is a pure function of its config.
Three independent RNG streams (init, mobility, policy) keep node
trajectories identical across runs that differ only in protocol behavior,
which is what makes detection-on/off and with/without-attacker
comparisons meaningful on the same seed.

The cyclic garbage collector is paused for a whole cell: `World.run`
pauses it from set-up to the collected metrics, and a sweep
(`scenario.run_scenario`) from a cell's start until its event log is
dropped, both through `collector_paused`.  A run makes no reference cycles
(`tests/test_engine.py` checks this for every attack kind), so each pass
would scan the cell's objects and free nothing.

A topology tick runs the cluster membership pass only when its result can
change: after the adjacency was rebuilt, after a node was ejected, or with
a head under the energy floor (`World._sweep_topology` gives the reason).

The event-log digest is fed as records are logged (`World._record`), and
the hot traffic records build their text from pieces formatted once.
"""

import contextlib
import gc
import hashlib
import heapq
import math
import random

from . import (adversary, beacon, clustering, detection, metrics, packets,
               protocol, radio, trust)
from .clustering import Cluster, ElectionMetrics
from .config import SimConfig
from .errors import (NoEvidence, NoRoute, RejectedBlacklisted,
                     RejectedUntrusted, UnknownLink)
from .radio import Position, WaypointState

# digest lines held before they are hashed, see World._record
DIGEST_BATCH = 512


class Node:
    """One radio: where it is, how it moves, its battery and what it heard.

    `energy_expended`, `tx_bytes` and `rx_bytes` fold the HELLO
    rounds since the battery's last fold before they answer; `alive`
    needs no fold (see `beacon`).
    """
    __slots__ = ("node_id", "pos", "waypoint", "tx_power", "battery",
                 "policy", "cluster", "hello", "neighbor_res", "links_in",
                 "links_at", "links_prev")

    def __init__(self, node_id, pos, waypoint, tx_power, rx_power, energy_total,
                 policy, capacity=SimConfig.channel_capacity, clock=None):
        if clock is None:
            clock = beacon.Clock()
        self.node_id = node_id
        self.pos = pos
        self.waypoint = waypoint
        self.tx_power = tx_power    # mW
        self.battery = beacon.Battery(tx_power, rx_power, energy_total,
                                      capacity, clock)
        self.policy = policy
        self.cluster = None
        self.hello = {}             # claimed neighbor id -> beacon.HelloRuns
        self.neighbor_res = {}      # link (true) id -> residual energy heard, see Beacons.heard
        self.links_in = {}          # sender id -> link whose skipped rounds fold in here
        self.links_at = clock.rounds  # the round every link in links_in is folded to
        self.links_prev = {}        # links_in of the last epoch that had a round

    @property
    def alive(self):
        b = self.battery
        return b.spent < b.total

    @property
    def energy_total(self):
        return self.battery.total

    @property
    def energy_expended(self):
        return self.battery.expended

    @property
    def tx_bytes(self):
        beacon.settle(self.battery)
        return self.battery.tx

    @property
    def rx_bytes(self):
        beacon.settle(self.battery)
        return self.battery.rx


class ChState:
    """Head-local bookkeeping: surveillance, blacklist view, link registry.

    Built by the membership pass (`World._sweep_topology`) when the node
    first heads a cluster, and kept for the rest of the run, across role
    changes; every other reader indexes `World.ch_state` directly."""

    def __init__(self, ch_id, cfg):
        self.ledger = detection.SurveillanceLedger(cfg)
        self.blacklist = set()
        self.registry = {ch_id}      # every id that ever associated here
        self.nuisance = {}           # (reporter, accused) -> report count
        self.pending = []            # (trust, src, seq, dst) request queue
        self.drain_scheduled = False
        self.selfish_applied = set()


class World:
    """Mutable state of one run plus the event machinery."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.rng_init = random.Random(f"{cfg.seed}:init")
        self.rng_mobility = random.Random(f"{cfg.seed}:mobility")
        self.rng_policy = random.Random(f"{cfg.seed}:policy")
        # airtime of one DATA packet and of one control packet (RREQ, ACK,
        # blacklist notice); every packet of a kind has the kind's size
        self.data_airtime = protocol.tx_time(cfg.packet_size, cfg.channel_capacity)
        self.control_airtime = protocol.tx_time(cfg.control_size, cfg.channel_capacity)

        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._packet_seq = 0
        self._session_seq = 0
        self.events_log = []
        self._sha = hashlib.sha256()  # the digest, fed by _record
        self._lines = []             # digest lines not hashed yet
        self._hashed = 0             # digest lines hashed so far
        self._stamp_at = None        # the time last formatted, and its text
        self._stamp = ""
        # each node's ("node", id), ("at", id), ("gateway", id), ("src", id)
        # and ("dst", id) pairs, shared by the hot records that name it
        self._id_pairs = [(("node", i), ("at", i), ("gateway", i),
                           ("src", i), ("dst", i))
                          for i in range(cfg.node_count)]

        self.nodes = {}
        self.clusters = {}           # ch id -> Cluster
        self.edges = {}              # (ch_a < ch_b) -> gateway tuple from a's side
        self.ch_state = {}           # node id -> ChState, persists across role changes
        self.trust_registry = {}
        self.blacklisted = set()
        self.sessions = {}
        self.adjacency = {}          # live node id -> its neighbour ids, in id order
        self._pairs = []             # linked pairs with their estimates, sorted
        self.beacons = beacon.Beacons(self.nodes, cfg.hello_size)
        self._gateway_candidates = None  # see _refresh_backbone
        self.head_routes = None      # see protocol.refresh_route_tables
        self._dirty_topology = True
        self._membership_settled = False  # see _sweep_topology
        self._mobility = {}          # node id -> (round, neighbours, term), see node_metrics
        self._trust_memo = {}        # (loose, earn) -> pairs and text, see _memo_trust
        self._reason_pairs = {}      # reason -> ("reason", reason), see change_trust

        self.generated = 0
        self.delivered = 0
        self.dropped = {}
        self.acted = set()
        self._source_plan = []
        self._sessions_left = {}

    # ---- plumbing ----

    def _head_state(self, ch):
        """The head's `ChState`, made when it first heads a cluster; only
        the membership pass calls this."""
        try:
            return self.ch_state[ch]
        except KeyError:
            st = self.ch_state[ch] = ChState(ch, self.cfg)
            return st

    def schedule(self, at, tag, *args):
        heapq.heappush(self._heap, (at, self._seq, tag, args))
        self._seq += 1

    def _again(self, interval, tag, *args):
        """Schedule a periodic event's next run, `interval` from now, unless
        it would fall past the end of the run."""
        nxt = self.now + interval
        if nxt <= self.cfg.sim_duration:
            self.schedule(nxt, tag, *args)

    def log(self, kind, **data):
        data = tuple(sorted(data.items()))
        self._record(kind, data, repr(data))

    def _record(self, kind, data, text):
        """Append the record `(now, kind, data)` to `events_log` and feed
        its line to the digest; `text` must equal `repr(data)`.

        Every record is appended here. Its line is the time to nine places,
        the kind and `text`, joined by `|` and ended by a newline; the
        lines are hashed `DIGEST_BATCH` at a time, and the time's text is
        kept while the clock stands still, since the records of one event
        share its time.
        `log` passes `repr(data)`; the hot records build the same text from
        ints and from texts made once (see `change_trust`, `_emit_packet`,
        `_deliver`, `_ack_hop`)."""
        now = self.now
        self.events_log.append((now, kind, data))
        if now != self._stamp_at:
            self._stamp_at = now
            self._stamp = f"{now:.9f}"
        lines = self._lines
        lines.append(f"{self._stamp}|{kind}|{text}\n")
        if len(lines) >= DIGEST_BATCH:
            self._hash_lines()

    def _hash_lines(self):
        lines = self._lines
        self._sha.update("".join(lines).encode())
        self._hashed += len(lines)
        lines.clear()

    def next_packet_id(self):
        self._packet_seq += 1
        return self._packet_seq

    def drop_data(self, pid, reason, session_id):
        self.dropped[reason] = self.dropped.get(reason, 0) + 1
        self.log("data_drop", packet=pid, reason=reason)
        self._session_resolve(session_id, delivered=False)

    def distance(self, a: Node, b: Node) -> float:
        return a.pos.distance_to(b.pos)

    def consume(self, node: Node, role, nbytes) -> bool:
        """Charge the radio bill; False when the battery could not cover it."""
        b = node.battery
        if b.spent >= b.total:
            return False
        covered = beacon.charge(b, role, nbytes)
        if b.spent >= b.total:
            self._dirty_topology = True
            self.log("node_depleted", node=node.node_id)
            self.beacons.depleted(self)
        return covered

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
                                 adversary.BehaviorPolicy(),
                                 cfg.channel_capacity, self.beacons.clock)
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
                kind=kind,
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
        """The link rule, applied to every pair of live nodes.

        Two live nodes are linked when they are within the run's
        `radio_range` and each hears the other at or above its
        `recv_power_floor` (the Friis power with `friis_k` and
        `path_loss_q` at the distance, clamped to `MIN_DISTANCE_M`, see
        `radio`), all four read from `cfg`. Each linked pair also gets the
        distance each end estimates from the other's HELLO, the Friis model
        inverted. This is the only place the rule and the estimate are
        computed: positions move only right before a rebuild, so the data
        plane reads links from `adjacency` and the HELLO rounds read the
        estimates from `_pairs`, whose entries are `(a, b, est_ab, est_ba)`
        with `a < b`, `est_ab` the estimate b derives from a's HELLO and
        `est_ba` the one a derives from b's.

        Candidates come from a uniform grid (the cell-list method): in-range
        pairs lie in the same or adjacent cells. Cells are `radio_range`
        wide plus a part in 1e9, so float rounding at a border cannot put
        an in-range pair two cells apart. Each cell holds an
        `(id, x, y, tx_power)` record per node, so the candidate loop reads
        no node. `_pairs` is sorted, as an all-pairs scan in id order would
        make it. Each `adjacency` list is filled in that pair order and so
        comes out in id order: a node's smaller neighbours come from its
        pairs `(a, x)`, which sort before its pairs `(x, b)`.

        Nothing is folded here: a node's links and rates stay those of the
        last lay-out until the next round lays the new links out, and
        `beacon.Beacons._lay_out` folds each node before it replaces them.
        Only `alive` is read, and it needs no fold.
        """
        cfg, nodes = self.cfg, self.nodes
        rng_r, floor, k, q = (cfg.radio_range, cfg.recv_power_floor,
                              cfg.friis_k, cfg.path_loss_q)
        rng_r2 = rng_r * rng_r
        inv_q = 1.0 / q
        min_d = radio.MIN_DISTANCE_M
        width = rng_r * (1 + 1e-9)
        adj = {nid: [] for nid in nodes if nodes[nid].alive}
        cells = {}
        for nid in adj:
            n = nodes[nid]
            x, y = n.pos.x, n.pos.y
            cells.setdefault((int(x // width), int(y // width)), []).append(
                (nid, x, y, n.tx_power))
        pairs = []
        for (cx, cy), here in cells.items():
            # this cell with itself, then the four neighbours that come
            # after it, so each pair of cells is visited once
            near = [(here, True)]
            for key in ((cx, cy + 1), (cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1)):
                there = cells.get(key)
                if there is not None:
                    near.append((there, False))
            for i, (a, ax, ay, ta) in enumerate(here):
                for there, same in near:
                    for b, bx, by, tb in (there[i + 1:] if same else there):
                        dx, dy = ax - bx, ay - by
                        if dx * dx + dy * dy > rng_r2:
                            continue
                        d = math.hypot(dx, dy)   # Position.distance_to
                        if d > rng_r:
                            continue
                        dq = max(d, min_d) ** q
                        # Friis received power, both ways
                        pa, pb = k * ta / dq, k * tb / dq
                        if pa >= floor and pb >= floor:
                            # the distance each receiver estimates from the
                            # other's HELLO, by inverting the Friis power
                            ea, eb = (k * ta / pa) ** inv_q, (k * tb / pb) ** inv_q
                            pairs.append((a, b, ea, eb) if a < b else (b, a, eb, ea))
        pairs.sort()
        for a, b, _, _ in pairs:
            adj[a].append(b)
            adj[b].append(a)
        self.adjacency = adj
        self._pairs = pairs
        self.beacons.relink()
        self._gateway_candidates = None

    def node_metrics(self, nid) -> ElectionMetrics:
        """The node's election terms.

        The mobility term reads the node's neighbour list and the HELLO
        histories of those neighbours.  Histories grow only by a round, so
        folded to one round count they stay what they are, except inside a
        round run link by link, which extends them reception by reception
        before it counts itself.  The term is therefore kept in `_mobility`
        with the round count and the neighbour list it came from, and
        reused while both are the same and no such round is running."""
        n = self.nodes[nid]
        cfg = self.cfg
        v_max = cfg.speed_range[1]
        mob = 1.0
        if v_max > 0:
            beacons = self.beacons
            r = beacons.clock.rounds
            nbs = self.adjacency.get(nid, ())
            kept = self._mobility.get(nid)
            if (kept is not None and kept[0] == r and kept[1] == nbs
                    and not beacons.by_link):
                mob = kept[2]
            else:
                beacon.fold(n)
                t = cfg.hello_interval
                hello = n.hello
                vals = []
                for nb in nbs:
                    hist = hello.get(nb)
                    if hist is not None and hist.n >= 2:
                        vals.append(hist.mobility(t))
                if vals:
                    mob = clustering.mobility_membership(radio.avg_mobility(vals), v_max)
                self._mobility[nid] = (r, nbs, mob)
        ch = n.cluster
        ndnb_ch = len(self.adjacency.get(ch, ())) if ch is not None else 0
        if ch is not None and ch != nid and ndnb_ch >= 1:
            cov = clustering.dnc(len(self.adjacency.get(nid, ())), ndnb_ch)
        else:
            cov = clustering.DNC_DEFAULT
        return ElectionMetrics(nid, beacon.residual(n.battery),
                               trust.trust_value(self.trust_registry[nid]),
                               mob, cov)

    def _refresh_backbone(self):
        """Designate gateways and refresh the heads' route tables.

        Gateway candidates read only the links, the members and the
        blacklist, so they are kept until `_rebuild_adjacency`, a membership
        change or `eject_node` drops them, and with them the scores, the
        election terms, the winners and the rivals' bounds that
        `clustering.designate_gateways` and the score function here store
        in the same record. While the record is kept, only two election
        terms can move. A mobile field rebuilds on every tick, so the record
        outlives a refresh only on a static field, where mobility reads 1.0.
        Coverage reads only the node's head and the links, and a change to
        either drops the record. Residual energy never rises, since a
        battery's spent bytes only grow, and trust moves only through
        `change_trust`, which marks the id; the designation drops a
        marked id's stored terms. So an unmarked id with stored terms is
        rescored from them and a fresh residual energy, by the same
        `clustering.composite_score` and so to the same float as a fresh
        `node_metrics` read, and since the score adds the terms up with
        non-negative weights, its stored score is an upper bound on its
        score now.

        The route tables are kept while the heads and the edges stay, and
        their search trees while the heads and the edge pairs stay;
        a head's tree is searched only when its table is first read
        (`protocol.refresh_route_tables`).
        """
        if self._gateway_candidates is None:
            self._gateway_candidates = clustering.gateway_candidates(
                self.clusters, self.adjacency, self.blacklisted)
        terms, nodes, cfg = self._gateway_candidates.terms, self.nodes, self.cfg

        def score_fn(nid):
            m = terms.get(nid)
            if m is None:
                m = terms[nid] = self.node_metrics(nid)
            else:
                m.res_eng = beacon.residual(nodes[nid].battery)
            return clustering.composite_score(m, cfg)

        edges = clustering.designate_gateways(self._gateway_candidates, score_fn)
        self.head_routes = protocol.refresh_route_tables(
            self.head_routes, self.clusters, edges)
        self.edges = edges

    def _sweep_topology(self):
        """Move the nodes, relink them if anything moved or died, keep the
        clusters up and refresh the backbone.

        A membership pass (`clustering.maintain_membership`) leaves a fixed
        point: every member is linked to its head, no two heads are linked,
        and every node left unclustered may not head a cluster and is
        either blacklisted or out of every head's range. Its merges, joins
        and elections read only the links, the live set (the adjacency's
        keys), the clusters and the blacklist, so a second pass would change
        nothing until one of three things happens: the adjacency is rebuilt,
        `eject_node` changes the clusters (the blacklist grows only with an
        ejection), or a head's residual energy falls under
        `clustering.ENERGY_FLOOR`. The pass, the `Node.cluster` rewrite and
        the registry updates therefore run only after a rebuild or an
        ejection, or when a head is under the floor; on any other tick only
        the heads' batteries are read.
        """
        moved = self._step_mobility()
        if moved or self._dirty_topology:
            self._rebuild_adjacency()
            self._dirty_topology = False
            self._membership_settled = False
        if self._membership_settled and all(
                beacon.residual(self.nodes[ch].battery) >= clustering.ENERGY_FLOOR
                for ch in self.clusters):
            self._refresh_backbone()
            return
        self._membership_settled = True
        alive = set(self.adjacency)

        def may_head(nid):
            return (self.nodes[nid].policy.kind == adversary.HONEST
                    and nid not in self.blacklisted)

        def may_join(nid):
            return nid not in self.blacklisted

        def battery(nid):
            return beacon.residual(self.nodes[nid].battery)

        events = clustering.maintain_membership(
            self.clusters, alive, self.adjacency, self.node_metrics, battery,
            self.cfg, may_head, may_join)
        if events:
            # every membership change is reported, except dropping dead
            # members, which follows the rebuild above
            self._gateway_candidates = None
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

    def change_trust(self, nid, update, reason):
        """Apply `update` (a `trust.on_*` function) to the node's trust
        record, mark the id in the gateway candidates and log the change.

        Every trust update goes through here. The record is `trust_change`,
        with the trust before and after rounded to nine places, both read
        from `_trust_memo`: a trust value is a function of the record's two
        counters alone. The records of one reason share its
        `("reason", reason)` pair from `_reason_pairs`."""
        rec = self.trust_registry[nid]
        memo = self._trust_memo
        before = memo.get((rec.loose_trust, rec.earn_trust))
        if before is None:
            before = self._memo_trust(rec)
        update(rec)
        after = memo.get((rec.loose_trust, rec.earn_trust))
        if after is None:
            after = self._memo_trust(rec)
        if self._gateway_candidates is not None:
            self._gateway_candidates.moved.add(nid)
        reason_pair = self._reason_pairs.get(reason)
        if reason_pair is None:
            reason_pair = self._reason_pairs[reason] = ("reason", reason)
        # the record `log` would build, its keys already in sorted order
        self._record("trust_change", (
            after[0], before[1], self._id_pairs[nid][0], reason_pair),
            f"(('after', {after[2]}), ('before', {before[2]}), "
            f"('node', {nid}), ('reason', {reason!r}))")

    def _memo_trust(self, rec):
        """The record's trust rounded as the log holds it, as the pairs
        `("after", value)` and `("before", value)` and the text
        `repr(value)`, memoized in `_trust_memo` by the record's
        `(loose, earn)` counters."""
        value = round(trust.trust_value(rec), 9)
        entry = ("after", value), ("before", value), repr(value)
        self._trust_memo[rec.loose_trust, rec.earn_trust] = entry
        return entry

    def eject_node(self, nid):
        self.nodes[nid].cluster = None
        doomed = self.clusters.pop(nid, None)
        if doomed is not None:
            for m in doomed.members:
                self.nodes[m].cluster = None
        for cl in self.clusters.values():
            cl.members.discard(nid)
        self._gateway_candidates = None
        self._membership_settled = False
        self._refresh_backbone()

    def flood_blacklist(self, nid, issuing_ch, reason):
        self.log("blacklist", node=nid, by=issuing_ch, reason=reason)
        self.ch_state[issuing_ch].blacklist.add(nid)
        self._propagate_blacklist(nid, issuing_ch, reason)

    def _propagate_blacklist(self, nid, from_ch, reason):
        hop_t = self.control_airtime
        for pair, gws in sorted(self.edges.items()):
            if from_ch not in pair:
                continue
            to_ch = pair[0] if pair[1] == from_ch else pair[1]
            st = self.ch_state[to_ch]
            if nid in st.blacklist:
                continue
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
        self.change_trust(nid, trust.on_selfish, reason)
        if (nid not in self.blacklisted and trust.is_blacklisted(
                self.trust_registry[nid], self.cfg.blacklist_limit)):
            self.blacklisted.add(nid)
            self.eject_node(nid)
            self.flood_blacklist(nid, ch_id, "trust_below_limit")

    # ---- session bookkeeping ----

    def _session_resolve(self, session_id, delivered):
        s = self.sessions[session_id]
        if s.closed:
            return
        if delivered:
            s.delivered += 1
            s.last_delivery = self.now
        else:
            s.failed += 1
        if s.delivered + s.failed >= s.packets_total:
            s.closed, s.route = True, None
            success = s.delivered == s.packets_total
            if success:
                # the transfer fee is bookkeeping, not an accusation: it
                # never trips the blacklist check
                self.change_trust(s.src, trust.on_service_charge,
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
        self._again(self.cfg.topology_interval, "topo")

    def _hello_round(self):
        """One HELLO round (`beacon.Beacons.round`); schedules the next."""
        self.beacons.round(self)
        self._again(self.cfg.hello_interval, "hello")

    # -- session admission --

    def _session_request(self, src, dst):
        node = self.nodes[src]
        if not node.alive:
            return
        ch = self._linked_head(src, itself=True)
        if ch is None:
            # not clustered yet (or drifted off the head); transient, retry
            self.log("session_rejected", src=src, dst=dst, reason="no_cluster")
            retry = self.now + 0.5
            if retry < self.cfg.sim_duration:
                self.schedule(retry, "sess", src, dst)
            return
        # a request is its id and the source it claims
        rreq_id, claimed = self.next_packet_id(), src
        if node.policy.kind == adversary.SPOOF and node.policy.victim is not None:
            claimed = self._spoof_rreq(node)
        self.log("session_request", src=src, dst=dst)
        if ch != src:
            # one-hop broadcast to the head; bystanders overhear it too
            self.consume(node, "tx", self.cfg.control_size)
            for nb in self.adjacency.get(src, ()):
                nbn = self.nodes[nb]
                if not nbn.alive:
                    continue
                self.consume(nbn, "rx", self.cfg.control_size)
                if nb == ch:
                    continue
                act = adversary.intercept(nbn.policy, packets.RREQ, self.rng_policy)
                if act.kind == adversary.FABRICATE:
                    self._false_rrep(nb, ch)
                elif act.kind == adversary.TUNNEL:
                    self._tunnel_rreq(rreq_id, claimed, nb, act.peer)
        if not self._rreq_identity_holds(src, ch, claimed):
            return
        st = self.ch_state[ch]
        value = trust.trust_value(self.trust_registry[src])
        st.pending.append((value, src, self._seq, dst))
        if not st.drain_scheduled:
            st.drain_scheduled = True
            self.schedule(self.now + self.control_airtime, "admit", ch)

    def _linked_head(self, nid, itself=False):
        """The node's head if it heads a cluster and is linked to the node
        (or, with `itself`, is the node); else None."""
        ch = self.nodes[nid].cluster
        if ch is None or ch not in self.clusters:
            return None
        if ch in self.adjacency.get(nid, ()) or (itself and ch == nid):
            return ch
        return None

    def _spoof_rreq(self, node):
        """The spoofer claims its victim's id as the RREQ's source; returns
        the claim. The physical sender stays the spoofer."""
        claimed = node.policy.victim
        self.log("spoof_attempt", node=node.node_id, claimed=claimed,
                 packet_kind=packets.RREQ)
        self.acted.add(node.node_id)
        return claimed

    def _rreq_identity_holds(self, link, ch, claimed):
        """The head checks the RREQ's claimed source against the link it
        came in on; False when the link is unknown or the claim convicts
        the link's owner (who is punished)."""
        try:
            verdict = detection.verify_identity(self.ch_state[ch].registry,
                                                link, claimed)
        except UnknownLink:
            self.log("rreq_unknown_link", link=link, at=ch)
            return False
        if verdict is not None and verdict.label == detection.MALICIOUS:
            self.log("spoof_flagged", owner=link, claimed=claimed, at=ch,
                     packet_kind=packets.RREQ)
            self.punish_verdict(verdict, ch)
            return False
        return True

    def _false_rrep(self, attacker, ch):
        """A black hole's lure: an unsolicited reply claiming a one-hop path
        to whatever was asked for, pushed at the head.  Heads own the
        topology, so the forged shortcut is discarded on arrival; the reply
        still draws its packet id and costs both ends its airtime."""
        self.next_packet_id()
        self.consume(self.nodes[attacker], "tx", self.cfg.control_size)
        self.consume(self.nodes[ch], "rx", self.cfg.control_size)
        self.log("rrep_rejected", node=attacker, at=ch, claimed_hops=1)

    def _drain_admissions(self, ch):
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
                src, dst, self.now, self.cfg.session_packets, ("session", sid))
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
            s.closed, s.route = True, None
            self.log("session_abandoned", session=sid)
            return
        if s.src in self.blacklisted or s.dst in self.blacklisted:
            # network-wide refusal cuts the node off mid-session too
            s.closed, s.route = True, None
            self.log("session_refused", session=sid, reason="blacklisted")
            return
        s.sent += 1
        self.generated += 1
        pid = self.next_packet_id()
        # a route reads only the head route tables and the two ends' heads,
        # so the session's last plan holds while the tables are the same
        # record (`RouteTables` compares by identity) and both heads stay
        nodes = self.nodes
        key = (self.head_routes, nodes[s.src].cluster, nodes[s.dst].cluster)
        route = s.route
        if route is None or route.key != key:
            route = s.route = self._plan_route(s, key)
        if route is None:
            self.log("data_emit", packet=pid, session=sid, plan=())
            self.drop_data(pid, "no_route", sid)
        else:
            # the record `log` would build, its keys already in sorted order
            self._record("data_emit", (
                ("packet", pid), route.plan_pair, route.segs_pair,
                route.session_pair),
                f"(('packet', {pid}), ('plan', {route.plan_text}), "
                f"('segs', {route.segs_text}), ('session', {sid}))")
            # a DATA packet travels as its id, the index of its next hop
            # and the route
            self.schedule(self.now + self.data_airtime, "hop", pid, 0, route)
        if s.sent < s.packets_total:
            self.schedule(self.now + self.cfg.cbr_interval, "emit", sid)

    def _plan_route(self, s, key):
        """Session s's `packets.Route`, planned from `key` (the head route
        tables and the two ends' heads), or None when there is no route."""
        try:
            route = protocol.discover_route(self, s.src, s.dst)
        except NoRoute:
            return None
        plan, segments = protocol.build_plan(route, s.src, s.dst)
        cfg = self.cfg
        timeout_s = protocol.ack_timeout(cfg.packet_size, cfg.channel_capacity,
                                         len(plan) - 1, cfg.ack_timeout_factor)
        seg_at = protocol.segment_table(plan, segments)
        id_pairs = self._id_pairs
        return packets.Route(key, s.id_pair, tuple(plan), tuple(segments),
                             seg_at, timeout_s, id_pairs[s.src][3],
                             id_pairs[s.dst][4])

    def _watch(self, watcher: Node, subject: Node):
        """What a watching head knows of a custodian from its HELLOs: the
        residual energy it last advertised (its battery, if never heard)
        and their relative mobility (None under two samples).  The head
        folds its own links like any other reader."""
        sid = subject.node_id
        beacon.fold(watcher)
        res_eng = self.beacons.heard(watcher, sid)
        if res_eng is None:
            res_eng = beacon.residual(subject.battery)
        hist = watcher.hello.get(sid)
        if hist is None or hist.n < 2:
            return res_eng, None
        return res_eng, hist.mobility(self.cfg.hello_interval)

    def _hop(self, pid, idx, route):
        """DATA packet `pid` takes hop `idx` of the plan of `route`, the
        session's `packets.Route` it was sent on."""
        plan = route.plan
        frm, to = plan[idx], plan[idx + 1]
        fn, tn = self.nodes[frm], self.nodes[to]
        seg = route.seg_at[idx]
        entry = None
        if seg is not None:
            # the upstream head's watch on the packet, while it is PENDING
            entry = self.ch_state[plan[seg[0]]].ledger.by_packet.get(pid)

        # `consume` refuses a dead battery and charges it nothing
        size = self.cfg.packet_size
        if not (self.consume(fn, "tx", size)
                and to in self.adjacency.get(frm, ())
                and self.consume(tn, "rx", size)):
            # the sender sees the MAC failure; a watching head that saw its
            # custodian attempt the hop clears it of suspicion
            if entry is not None and entry.gateway == frm:
                entry.context = detection.LINK_BROKEN
            self.log("hop_fail", packet=pid, frm=frm, to=to)
            self.drop_data(pid, "link_break", route.sid)
            return

        if seg is not None:
            p, q = seg
            up_ch = plan[p]
            if idx == p:
                # handover off the upstream head: open the watch and start
                # the ack clock, snapshotting what the head knew just now
                res_eng, rel_mobility = self._watch(self.nodes[up_ch], tn)
                self.ch_state[up_ch].ledger.open_entry(
                    pid, to, res_eng=res_eng, rel_mobility=rel_mobility)
                self.schedule(self.now + route.timeout_s, "timeout", up_ch, pid)
            elif entry is not None and entry.gateway == frm and idx + 1 < q:
                # custody moves to the far-side gateway, observed by the
                # downstream head whose vantage supplies the snapshots
                entry.gateway = to
                entry.res_eng, entry.rel_mobility = self._watch(
                    self.nodes[plan[q]], tn)

        final = idx + 1 == len(plan) - 1
        if not final:
            act = adversary.intercept(tn.policy, packets.DATA, self.rng_policy)
            if act.kind == adversary.DROP:
                self.acted.add(to)
                self.log("policy_drop", node=to, packet=pid,
                         packet_kind=packets.DATA)
                self.drop_data(pid, "policy", route.sid)
                return
            if act.kind == adversary.TUNNEL:
                self._tunnel(pid, route, to, act.peer)
                return

        if seg is not None and idx + 1 == seg[1]:
            # crossed into the downstream head, which saw it: a timeout now
            # means only the receipt went missing, so the watch is
            # exonerated; push the ack back along the same gateways
            if entry is not None:
                entry.context = detection.LINK_BROKEN
            self._send_ack(plan, seg, pid)

        if final:
            self._deliver(pid, route)
        else:
            self.schedule(self.now + self.data_airtime, "hop", pid, idx + 1,
                          route)

    def _deliver(self, pid, route):
        """Count the delivery and credit every forwarder on the path
        through `change_trust`.

        A delivered packet took every hop of its plan, so the plan is its
        path: the source, the forwarders and the destination."""
        plan, sid = route.plan, route.sid
        self.delivered += 1
        # the record `log` would build, its keys already in sorted order
        self._record("data_delivered", (
            route.dst_pair, ("packet", pid), route.path_pair,
            route.session_pair, route.src_pair),
            f"(('dst', {plan[-1]}), ('packet', {pid}), "
            f"('path', {route.plan_text}), ('session', {sid}), "
            f"('src', {plan[0]}))")
        change = self.change_trust
        for fwd in plan[1:-1]:
            change(fwd, trust.on_forward_success, "forward_credit")
        self._session_resolve(sid, delivered=True)

    def _send_ack(self, plan, seg, ref):
        """Send the edge ACK for DATA packet `ref` back up the segment.  An
        ACK travels as `ref` alone; its own packet id is drawn, since later
        packet ids count it, but nothing reads it."""
        self.next_packet_id()
        self.schedule(self.now + self.control_airtime, "ackhop", ref,
                      tuple(protocol.ack_plan(plan, seg)), 0)

    def _ack_hop(self, ref, aplan, idx):
        frm, to = aplan[idx], aplan[idx + 1]
        fn, tn = self.nodes[frm], self.nodes[to]
        size = self.cfg.control_size
        if not (self.consume(fn, "tx", size)
                and to in self.adjacency.get(frm, ())
                and self.consume(tn, "rx", size)):
            self.log("ack_lost", ref=ref, frm=frm, to=to)
            return
        if idx + 1 < len(aplan) - 1:
            # intermediaries relay receipts; the drop policies spare control
            act = adversary.intercept(tn.policy, packets.ACK, self.rng_policy)
            if act.kind == adversary.DROP:
                self.log("ack_lost", ref=ref, frm=frm, to=to)
                return
            self.schedule(self.now + self.control_airtime, "ackhop", ref, aplan,
                          idx + 1)
            return
        entry = self.ch_state[to].ledger.resolve(ref, detection.ACKED)
        if entry is not None:
            gw, id_pairs = entry.gateway, self._id_pairs
            # the record `log` would build, its keys already in sorted order
            self._record("ack_delivered", (
                id_pairs[to][1], id_pairs[gw][2], ("ref", ref)),
                f"(('at', {to}), ('gateway', {gw}), ('ref', {ref}))")
            self._judge(to, gw)

    def _ack_timeout(self, ch_id, packet_id):
        ledger = self.ch_state[ch_id].ledger
        entry = ledger.by_packet.get(packet_id)
        if entry is None:
            return
        ledger.resolve(packet_id, detection.TIMEOUT)
        self.log("ack_timeout", packet=packet_id, at=ch_id,
                 gateway=entry.gateway, context=entry.context)
        self._judge(ch_id, entry.gateway)

    def _judge(self, ch_id, gateway):
        if not self.cfg.detection_enabled:
            return
        st = self.ch_state[ch_id]
        try:
            verdict = detection.judge_forwarding(st.ledger, gateway)
        except NoEvidence:
            return
        if verdict.label == detection.MALICIOUS:
            self.punish_verdict(verdict, ch_id)
        elif verdict.label == detection.SELFISH and gateway not in st.selfish_applied:
            st.selfish_applied.add(gateway)
            self.apply_selfish(gateway, ch_id, "recurring_refusal")

    def _tunnel(self, pid, route, nid, peer):
        """Wormhole `nid` tunnels DATA packet `pid`, sent on `route`, to its
        peer, which injects it at the route's destination."""
        dst = route.plan[-1]
        self.log("tunnel", node=nid, peer=peer, packet=pid,
                 packet_kind=packets.DATA)
        self.acted.add(nid)
        pn = self.nodes[peer]
        if pn.alive:
            # far end injects straight at the destination, skipping the
            # heads; the destination only takes data from its own head
            size = self.cfg.packet_size
            self.consume(pn, "tx", size)
            dn = self.nodes[dst]
            # a peer that is itself the destination needs no link
            if dn.alive and (dn is pn or dst in self.adjacency.get(peer, ())):
                self.consume(dn, "rx", size)
                self.log("tunnel_delivery_rejected", dst=dst, packet=pid)
            else:
                self.log("tunnel_no_outlet", peer=peer, packet=pid)
        self.drop_data(pid, "tunnel", route.sid)

    def _tunnel_rreq(self, rreq_id, claimed, nid, peer):
        """Wormhole `nid` replays an overheard request at its peer's head."""
        self.log("tunnel", node=nid, peer=peer, packet=rreq_id,
                 packet_kind=packets.RREQ)
        pn = self.nodes[peer]
        if pn.alive and pn.cluster in self.clusters:
            self.consume(pn, "tx", self.cfg.control_size)
            self.consume(self.nodes[pn.cluster], "rx", self.cfg.control_size)
            # a request replayed from a node that was never a member here
            self.log("wormhole_rreq_rejected", at=pn.cluster, replayed_by=peer,
                     claimed=claimed)

    # -- adversary ticks --

    def _slander_tick(self, nid):
        node = self.nodes[nid]
        if not node.alive:
            return
        ch = self._linked_head(nid)
        if ch is not None and nid not in self.blacklisted:
            # one fabricated report per target, each drawing a packet id
            for accused in node.policy.targets:
                self.next_packet_id()
                self.consume(node, "tx", self.cfg.control_size)
                self.consume(self.nodes[ch], "rx", self.cfg.control_size)
                st = self.ch_state[ch]
                outcome = detection.handle_trust_report(
                    st.nuisance, (nid, accused), self.cfg.nuisance_limit)
                self.log("trust_report", reporter=nid, accused=accused,
                         at=ch, outcome=outcome)
                if outcome == "reporter_selfish":
                    self.log("trust_report_selfish", reporter=nid, at=ch)
                    self.acted.add(nid)
                    self.apply_selfish(nid, ch, "baseless_accusations")
        self._again(self.cfg.slander_interval, "slander", nid)

    def _spoof_tick(self, nid):
        node = self.nodes[nid]
        if not node.alive:
            return
        ch = self._linked_head(nid)
        if ch is None:
            best = None
            for cand in sorted(self.clusters):
                if cand == nid or cand not in self.adjacency.get(nid, ()):
                    continue
                d = self.distance(node, self.nodes[cand])
                if best is None or (d, cand) < best:
                    best = (d, cand)
                    ch = cand
        if ch is not None and node.policy.victim is not None:
            self.next_packet_id()   # the request's id, read by nobody
            claimed = self._spoof_rreq(node)
            self.consume(node, "tx", self.cfg.control_size)
            self.consume(self.nodes[ch], "rx", self.cfg.control_size)
            self._rreq_identity_holds(nid, ch, claimed)
        self._again(self.cfg.spoof_interval, "spoof", nid)

    def _flood_tick(self, nid):
        node = self.nodes[nid]
        if not node.alive:
            return
        n = adversary.flood_count(node.policy, self.cfg.flood_interval)
        ch = self._linked_head(nid)
        if n > 0 and ch is not None:
            # a burst of n adverts for destinations that do not exist, sent
            # to the member's own head, which learns routes only from heads
            self.consume(node, "tx", self.cfg.control_size * n)
            self.consume(self.nodes[ch], "rx", self.cfg.control_size * n)
            kept = n if detection.handle_route_advert(from_member=True) else 0
            self.log("advert_burst", node=nid, at=ch, count=n,
                     accepted=kept, table_size=len(self.head_routes.table(ch)))
        self._again(self.cfg.flood_interval, "flood", nid)

    def _blacklist_rx(self, nid, from_ch, to_ch, reason):
        if to_ch not in self.clusters:
            return
        st = self.ch_state[to_ch]
        if nid in st.blacklist:
            return
        self.consume(self.nodes[to_ch], "rx", self.cfg.control_size)
        st.blacklist.add(nid)
        self.log("blacklist_rx", node=nid, at=to_ch)
        self._propagate_blacklist(nid, to_ch, reason)

    # ---- run loop ----

    def run(self) -> "metrics.Metrics":
        with collector_paused():
            return self._run()

    def _run(self):
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
            at, _, tag, args = heapq.heappop(self._heap)
            if at > cfg.sim_duration:
                break
            self.now = at
            handlers[tag](*args)
        self.now = cfg.sim_duration
        return self.collect()

    # ---- results ----

    def digest(self) -> str:
        """The sha256 of the event log's lines (see `_record`), in hex.
        Raises RuntimeError when the log holds a record that was appended
        around `_record`, whose line the digest never saw."""
        self._hash_lines()
        if self._hashed != len(self.events_log):
            raise RuntimeError(
                f"the event log holds {len(self.events_log)} records but "
                f"{self._hashed} were digested: a record was appended "
                f"around World._record")
        return self._sha.hexdigest()

    def collect(self) -> "metrics.Metrics":
        cfg = self.cfg
        dropped_total = sum(self.dropped.values())
        assert self.delivered + dropped_total <= self.generated
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


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the block; the caller's
    setting comes back afterwards, also when the block raises."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def run(cfg: SimConfig):
    """One full simulation; returns (metrics, event log)."""
    world = World(cfg)
    result = world.run()
    return result, world.events_log
