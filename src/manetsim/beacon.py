"""Batteries and HELLO beacons, at per-node cost between adjacency rebuilds.

Energy.  A battery's spent energy is a closed form of its two byte
counters: the bill of the bytes sent at the node's transmit power plus
the bill of the bytes received at its receive power, capped at the total.
`charge` is the only way energy is spent: it adds bytes and recomputes
the bill.  A node is alive while the uncapped bill stays below its total,
and a charge succeeds when the uncapped bill stays within it.

Rounds.  Positions move only right before a rebuild, so until the next one
every round adds the same bytes to each node (one HELLO sent, one received
per live link) and the same distance estimate to each HELLO history, and
each HELLO carries its sender's residual energy part-way through the
round.  So a round only counts itself.  What it would have added is
brought forward ("folded") when something reads it: `fold` does it for
one node (its battery and the histories it keeps), `Beacons.fold_all` for
every node.  Each node has one fold point for all the links it hears, and
a fold with no round since that point costs two comparisons.  A head
watching a custodian at a handover folds itself like any other reader.
An adjacency rebuild folds nothing: until the next round the rounds since
a node's fold point still belong to the links and rates laid out last,
and the lay-out at that round folds each node before it replaces them.

The residual energy a node heard is computed only when read, by
`Beacons.heard`: the last HELLO on a link carried the sender's transmit
bill as the last round left it, and the bytes it had received before that
round plus those it heard in it before the link.  A lay-out keeps the
links of the epoch it closes (the rounds since the last lay-out) when that
epoch had a round, with a snapshot of each battery as the epoch's last
round left it.  The close writes into `neighbor_res` only what a link of
the epoch before carried that the closing epoch did not renew; a round run
link by link first writes everything still pending, then each reception.

The distance estimate a receiver derives from a HELLO is computed once
per link and rebuild, by `World._rebuild_adjacency`, the one place the
link rule and the estimate are computed; both round paths here read it
from `World._pairs`.

A round runs link by link, every charge in order, when it cannot be
skipped like that:

- a node could run dry during it.  Each battery's remaining energy and
  its bytes per round say how many rounds it lasts for sure, so `alive`
  needs no fold: a node alive at its last fold is alive now;
- a live link carries a spoofed HELLO, which logs and may convict its
  sender.  While such a link is live, every round runs link by link and
  `Beacons._lay_out` lays out no link.

Any depletion folds every node and lays the links out again.
"""

from . import adversary, detection, packets
from .errors import InvalidEnergy

# Share of a battery that skipped rounds may not spend, so float rounding
# in the per-round estimate can never hide a depletion.
MARGIN = 1e-9


def airtime_joules(power_mw, nbytes, capacity):
    """Joules one send or receive of nbytes costs at power_mw.

    power (mW) * airtime (s); airtime is nbytes * 8 / channel capacity.
    """
    return power_mw / 1000.0 * (nbytes * 8 / capacity)


class Clock:
    """The rounds a run's batteries fold against."""
    __slots__ = ("rounds", "safe_until")

    def __init__(self):
        self.rounds = 0          # HELLO rounds run so far
        self.safe_until = 0      # the last round that may be skipped


class Battery:
    """One node's energy as byte counters, folded against the run's clock.

    `tx` and `rx` are the bytes at round `at`; every round since adds
    `tx_rate` and `rx_rate` more.  `txj` and `rxj` are their bills and
    `spent` their sum, the uncapped bill of the counters.
    """
    __slots__ = ("tx_power", "rx_power", "total", "capacity", "clock",
                 "tx", "rx", "txj", "rxj", "spent", "at", "tx_rate", "rx_rate",
                 "round_j", "end_at", "end_txj", "end_rx", "prev_txj", "prev_rx")

    def __init__(self, tx_power, rx_power, total, capacity, clock):
        self.tx_power = tx_power    # mW
        self.rx_power = rx_power    # mW
        self.total = total          # J
        self.capacity = capacity    # bits per second
        self.clock = clock
        self.tx = self.rx = 0
        self.txj = self.rxj = self.spent = 0.0
        self.at = self.end_at = clock.rounds
        self.tx_rate = self.rx_rate = 0
        self.round_j = 0.0          # the bill of one round's bytes
        self.end_txj = 0.0          # the transmit bill and the bytes
        self.end_rx = 0             # received as round end_at left them
        self.prev_txj = 0.0         # the transmit bill, and the bytes
        self.prev_rx = 0            # received before it, in the last round
                                    # of the epoch `Beacons._close_epoch`
                                    # closed last

    def bill(self, tx, rx):
        """The uncapped bill of tx bytes sent and rx bytes received."""
        return (airtime_joules(self.tx_power, tx, self.capacity)
                + airtime_joules(self.rx_power, rx, self.capacity))

    @property
    def expended(self):
        settle(self)
        return min(self.total, self.spent)


def residual(b):
    """The battery's residual energy fraction, 1 = full, as the election,
    the head energy floor and a watching head read it.  Settles the
    battery only when rounds went by since its last fold."""
    if b.at != b.clock.rounds:
        settle(b)
    total = b.total
    if total <= 0:
        raise InvalidEnergy(f"total energy {total}")
    s = b.spent
    return 1.0 - (s if s < total else total) / total


def settle(b):
    """Add the bytes of the rounds since the battery's last fold."""
    k = b.clock.rounds - b.at
    if k:
        b.at += k
        if b.tx_rate or b.rx_rate:
            b.tx += k * b.tx_rate
            b.rx += k * b.rx_rate
            b.txj = airtime_joules(b.tx_power, b.tx, b.capacity)
            b.rxj = airtime_joules(b.rx_power, b.rx, b.capacity)
            b.spent = b.txj + b.rxj


def charge(b, role, nbytes):
    """Bill one send ("tx") or receive of nbytes; True when the battery
    covered the whole bill."""
    clock = b.clock
    r = clock.rounds
    if b.at != r:
        settle(b)
    if b.end_at != r:
        # the battery as round r left it, for the residual energy the
        # node's neighbours heard in it
        b.end_at, b.end_txj, b.end_rx = r, b.txj, b.rx
    # airtime_joules of the counter that moved
    if role == "tx":
        b.tx += nbytes
        b.txj = b.tx_power / 1000.0 * (b.tx * 8 / b.capacity)
    else:
        b.rx += nbytes
        b.rxj = b.rx_power / 1000.0 * (b.rx * 8 / b.capacity)
    s = b.spent = b.txj + b.rxj
    left = clock.safe_until - r
    if left > 0 and b.round_j and s + left * b.round_j > b.total * (1 - MARGIN):
        clock.safe_until = r + _runway(b)
    return s <= b.total


def _runway(b):
    """Rounds the battery lasts for sure at its bytes per round."""
    room = b.total * (1 - MARGIN) - b.spent
    if room <= 0:
        return 0
    return int(room // b.round_j)


class HelloRuns:
    """A HELLO history as runs of equal samples, oldest first.

    Holds the last `window` distance estimates heard from one neighbour
    as runs: `ests[i]` repeated `counts[i]` times.
    Between two rebuilds a link adds the same estimate every round.  Its
    readers need only the first sample, the last sample and the count `n`.
    """
    __slots__ = ("window", "ests", "counts", "n")

    def __init__(self, window):
        self.window = window
        self.ests = []
        self.counts = []
        self.n = 0

    def extend(self, est, k):
        """Append k samples of est, evicting the oldest past the window."""
        ests = self.ests
        if ests and ests[-1] == est:
            self.counts[-1] += k
        else:
            ests.append(est)
            self.counts.append(k)
        n = self.n + k
        if n > self.window:
            self._evict(n - self.window)
            n = self.window
        self.n = n

    def _evict(self, drop):
        ests, counts = self.ests, self.counts
        while counts[0] <= drop:
            drop -= counts[0]
            del ests[0], counts[0]
        counts[0] -= drop

    def mobility(self, t):
        """The neighbour's relative mobility over the window, for HELLOs t
        seconds apart (MOBIC): the mean change of the estimated distance
        per round, sum(d_i - d_{i-1}) / (n * t), which telescopes to
        (d_n - d_1) / (n * t).  Negative means approaching; needs n >= 2."""
        return (self.ests[-1] - self.ests[0]) / (self.n * t)

    @property
    def dists(self):
        return [est for est, k in zip(self.ests, self.counts) for _ in range(k)]


def fold(node):
    """Bring the node's battery and HELLO histories forward to the last
    round."""
    b = node.battery
    r = b.clock.rounds
    if b.at != r:
        settle(b)
    k = r - node.links_at
    if not k:
        return
    node.links_at = r
    # HelloRuns.extend inlined: as a call it costs mobile-beacon 3.4%
    # more wall time (2-vCPU x86-64 host)
    for _, est, hist, _ in node.links_in.values():
        ests = hist.ests
        if ests and ests[-1] == est:
            hist.counts[-1] += k
        else:
            ests.append(est)
            hist.counts.append(k)
        n = hist.n + k
        if n > hist.window:
            hist._evict(n - hist.window)
            n = hist.window
        hist.n = n


def _heard_now(link, r):
    """The residual energy the link's sender sent in round r, the last
    round: its transmit bill at the round's end, and the bytes it had
    received before the round plus those it heard in the round before
    this link."""
    sender = link[0]
    txj, rx = _left_by(sender, r)
    return _residual_at(sender, txj, rx - sender.rx_rate + link[3])


def _left_by(b, r):
    """The battery's transmit bill and bytes received as round r, the
    last round, left them: its `end_*` record if it was charged in that
    round, else its settled counters."""
    if b.end_at == r:
        return b.end_txj, b.end_rx
    if b.at != r:
        settle(b)
    return b.txj, b.rx


def _heard_before(link):
    """The same for the last round of the epoch closed last."""
    sender = link[0]
    return _residual_at(sender, sender.prev_txj, sender.prev_rx + link[3])


def _residual_at(b, txj, rx):
    """The battery's residual energy fraction at the transmit bill txj and
    rx bytes received."""
    j = txj + b.rx_power / 1000.0 * (rx * 8 / b.capacity)
    total = b.total
    return 1.0 - (j if j < total else total) / total


class Beacons:
    """The HELLO rounds of one run.

    `_lay_out` reads the links of `World._pairs` at the first round after
    a rebuild, after a depletion and after a round run link by link; every
    pair there passed the link rule both ways, so both directions are above
    the floor, and carries the distance estimate of each direction.  The
    rounds between two lay-outs are an epoch.
    Nothing here, and nothing a node holds, refers back to the
    World, whose methods pass it in; so a finished run is freed at once.
    """

    def __init__(self, nodes, hello_size):
        self.nodes = nodes
        self.size = hello_size
        self.clock = Clock()
        self._laid_out = False   # since the last rebuild
        self._laid_out_at = 0    # the round of the last lay-out
        self._heard = 0          # receptions in a skipped round
        self.by_link = False     # inside a round that runs link by link

    def fold_all(self):
        for node in self.nodes.values():
            fold(node)

    def relink(self):
        """The adjacency was rebuilt: the next round lays the links out
        again.  Nothing is folded here; the rounds since the last fold
        still belong to the links laid out last, and the lay-out folds
        them in, node by node."""
        self._laid_out = False

    def depleted(self, world):
        """A battery ran dry outside a round: recompute what a round adds
        (the lay-out folds every node first)."""
        if self._laid_out and not self.by_link:
            self._lay_out(world)

    def heard(self, node, sid):
        """The residual energy sid advertised in the last HELLO the node
        heard from it, None if it never heard one: from the link of this
        epoch once it has had a round, else from the link of the last
        epoch that had one, else as a round run link by link or the close
        of an epoch wrote it."""
        if self.clock.rounds > self._laid_out_at:
            link = node.links_in.get(sid)
            if link is not None:
                return _heard_now(link, self.clock.rounds)
        link = node.links_prev.get(sid)
        if link is not None:
            return _heard_before(link)
        return node.neighbor_res.get(sid)

    def round(self, world):
        """One beacon exchange: every live node transmits once, every live
        in-range pair hears each other (both directions)."""
        if not self._laid_out:
            self._lay_out(world)
        clock = self.clock
        if clock.rounds >= clock.safe_until:
            self._round_by_link(world)
            return
        clock.rounds += 1
        world.log("hello_round", receptions=self._heard)

    def _lay_out(self, world):
        """What each round adds from here: the bytes per battery, the links
        each receiver folds (with the distance estimate the rebuild stored
        for the link, and the bytes their sender received before them in
        the round) and the runway, after closing the epoch before.  Each
        node is folded by the links and rates laid out last before they are
        replaced.  While a live link carries a spoofed HELLO there is no
        runway and no link to lay out: every round runs link by link until
        the next lay-out."""
        nodes, size, r = self.nodes, self.size, self.clock.rounds
        if r > self._laid_out_at:
            self._close_epoch(r)
        self._laid_out_at = r
        for node in nodes.values():
            fold(node)
            node.links_in = {}
            node.links_at = r
            node.battery.tx_rate = node.battery.rx_rate = 0
        self._laid_out = True
        if any(_live_link(world, nid) for nid in _claims(world)):
            self.clock.safe_until = r
            return
        window = world.cfg.hello_window
        for a, b, est_ab, est_ba in world._pairs:
            na, nb = nodes[a], nodes[b]
            ba, bb = na.battery, nb.battery
            if not (ba.spent < ba.total and bb.spent < bb.total):
                continue
            # a's HELLO to b, then b's to a, as a round runs them: the
            # bytes b heard before its own HELLO include a's
            hist = nb.hello.get(a)
            if hist is None:
                hist = nb.hello[a] = HelloRuns(window)
            nb.links_in[a] = (ba, est_ab, hist, ba.rx_rate)
            bb.rx_rate += size
            hist = na.hello.get(b)
            if hist is None:
                hist = na.hello[b] = HelloRuns(window)
            na.links_in[b] = (bb, est_ba, hist, bb.rx_rate)
            ba.rx_rate += size
        heard = 0
        safe = 1 << 62
        for node in nodes.values():
            b = node.battery
            b.tx_rate = size if b.spent < b.total else 0
            heard += b.rx_rate
            b.round_j = b.bill(b.tx_rate, b.rx_rate)
            if b.round_j:
                safe = min(safe, _runway(b))
        self._heard = heard // size
        self.clock.safe_until = r + safe

    def _close_epoch(self, r):
        """The epoch laid out last had rounds, the last of them r.  A
        previous link that the epoch did not renew writes the residual
        energy it carried; then each battery keeps what round r left it
        and each node's links become its previous ones."""
        nodes = self.nodes.values()
        for node in nodes:
            links, res = node.links_in, node.neighbor_res
            for sid, link in node.links_prev.items():
                if sid not in links:
                    res[sid] = _heard_before(link)
        for node in nodes:
            b = node.battery
            txj, rx = _left_by(b, r)
            b.prev_txj, b.prev_rx = txj, rx - b.rx_rate
            node.links_prev = node.links_in

    def _write_heard(self):
        """Write every residual energy a link would report into
        `neighbor_res` and drop the links, before a round that writes
        there itself: close the epoch if it had a round, then write what
        every previous link carried."""
        r = self.clock.rounds
        if r > self._laid_out_at:
            self._close_epoch(r)
        for node in self.nodes.values():
            res = node.neighbor_res
            for sid, link in node.links_prev.items():
                res[sid] = _heard_before(link)
            node.links_prev = {}
            node.links_in = {}

    def _round_by_link(self, world):
        """One round with every charge through `World.consume`, in order, so
        a battery that runs dry mid-round stops hearing right there."""
        self.fold_all()
        self._write_heard()
        self.by_link = True
        nodes, size = self.nodes, self.size
        for _, node in sorted(nodes.items()):
            if node.alive:
                world.consume(node, "tx", size)
        claims = _claims(world)
        heard = 0
        for a, b, est_ab, est_ba in world._pairs:
            na, nb = nodes[a], nodes[b]
            if not (na.alive and nb.alive):
                continue
            for sender, receiver, est in ((na, nb, est_ab), (nb, na, est_ba)):
                if not world.consume(receiver, "rx", size):
                    continue
                sid = sender.node_id
                claimed = claims.get(sid, sid)
                hist = receiver.hello.get(claimed)
                if hist is None:
                    hist = receiver.hello[claimed] = HelloRuns(world.cfg.hello_window)
                hist.extend(est, 1)
                # residual energy rides in the beacon and is tracked per physical link
                receiver.neighbor_res[sid] = residual(sender.battery)
                heard += 1
                if claimed != sid:
                    _flag(world, receiver, sender, claimed)
        world.log("hello_round", receptions=heard)
        self.by_link = False
        r = self.clock.rounds = self.clock.rounds + 1
        for node in nodes.values():
            node.battery.at = r
        self._lay_out(world)


def _claims(world):
    """The id each spoofer claims in its HELLOs."""
    return {nid: n.policy.victim for nid, n in world.nodes.items()
            if n.policy.kind == adversary.SPOOF and n.policy.victim is not None}


def _live_link(world, nid):
    """Whether the node and one of its neighbours at the last rebuild are
    both alive."""
    nodes = world.nodes
    b = nodes[nid].battery
    if not b.spent < b.total:
        return False
    for nb in world.adjacency.get(nid, ()):
        c = nodes[nb].battery
        if c.spent < c.total:
            return True
    return False


def _flag(world, receiver, sender, claimed):
    """A head that registered the sender convicts it of a spoofed HELLO."""
    if receiver.node_id in world.clusters:
        if sender.node_id in world.ch_state[receiver.node_id].registry:
            world.log("spoof_flagged", owner=sender.node_id, claimed=claimed,
                      at=receiver.node_id, packet_kind=packets.HELLO)
            world.punish_verdict(
                detection.Verdict(detection.MALICIOUS, sender.node_id,
                                  "spoofed_identity"),
                receiver.node_id)
