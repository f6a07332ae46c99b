"""Cluster-head side misbehavior evidence, judgment and punishment.

Every DATA handover to a gateway leaves a ledger entry at the supervising
head.  Entries resolve to ACKED when the downstream head confirms the
packet, or TIMEOUT when no confirmation arrives in time.  A timeout only
incriminates the custodian if nothing exonerates it: the link was up, its
battery was comfortably charged and it was not speeding away.  Enough
culpable timeouts make a MALICIOUS verdict; punishment zeroes trust and
floods a blacklist notice over the head backbone.
"""

from dataclasses import dataclass, field

from . import trust
from .errors import NoEvidence, UnknownLink

PENDING = "PENDING"
ACKED = "ACKED"
TIMEOUT = "TIMEOUT"

LINK_OK = "link_ok"
LINK_BROKEN = "link_broken"

NORMAL = "NORMAL"
SELFISH = "SELFISH"
MALICIOUS = "MALICIOUS"
INCONCLUSIVE = "INCONCLUSIVE"

# Battery band [SELFISH_ENERGY_FLOOR, energy_high_threshold) where refusing
# to forward reads as stinginess rather than malice or exhaustion.
SELFISH_ENERGY_FLOOR = 0.4


@dataclass
class LedgerEntry:
    packet_id: int
    gateway: int                # current custodian under suspicion
    ack_status: str = PENDING
    context: str = LINK_OK
    res_eng: float = 1.0        # custodian battery at handover
    rel_mobility: float | None = None  # custodian radial speed vs the head
    delivered_downstream: bool = False
    seq: int = 0                # open order within the ledger


@dataclass
class Verdict:
    label: str
    target: int
    evidence: tuple = ()
    reason: str = ""


@dataclass
class SurveillanceLedger:
    """One head's watched handovers, indexed by packet and by gateway.

    `by_packet` holds only the PENDING entries: `resolve` takes each entry
    out of it and files it under the gateway holding custody at that
    moment, where `resolved` counts it and `timeouts` keeps it if it timed
    out, in resolve order. An ACKED entry is then dropped, since a judgment
    reads only the count. An entry's gateway and context change only while
    it is PENDING, so the index stays what a scan of every entry would
    find, and a packet id missing from `by_packet` is unknown or resolved.

    `judge_forwarding` sorts each TIMEOUT entry once into culpable,
    stingy or neither: `sorts` holds, per gateway, how many of its timeouts
    are sorted and its culpable and stingy ones in resolve order, under the
    battery and speed thresholds `sorted_by`.  Judging by other thresholds
    sorts every entry again.
    """
    opened: int = 0                                # entries opened so far
    by_packet: dict = field(default_factory=dict)  # packet id -> PENDING entry
    resolved: dict = field(default_factory=dict)   # gateway -> resolved entries
    timeouts: dict = field(default_factory=dict)   # gateway -> its TIMEOUT entries
    sorted_by: tuple = ()
    sorts: dict = field(default_factory=dict)      # gateway -> (sorted, culpable, stingy)

    def open_entry(self, packet_id, gateway, res_eng, rel_mobility) -> LedgerEntry:
        entry = LedgerEntry(packet_id, gateway, res_eng=res_eng,
                            rel_mobility=rel_mobility, seq=self.opened)
        self.opened += 1
        self.by_packet[packet_id] = entry
        return entry

    def resolve(self, packet_id, status, context=None):
        entry = self.by_packet.pop(packet_id, None)
        if entry is None:
            return None
        entry.ack_status = status
        if context is not None:
            entry.context = context
        gw = entry.gateway
        self.resolved[gw] = self.resolved.get(gw, 0) + 1
        if status == TIMEOUT:
            self.timeouts.setdefault(gw, []).append(entry)
        return entry


def _sort_timeouts(ledger, gateway, timeouts, cfg):
    """The gateway's culpable and stingy timeouts under the run's
    `SimConfig` cfg, sorting only the timeouts resolved since the last call
    with the same `energy_high_threshold` and `velocity_low_threshold`.

    Culpable: a timeout nothing exonerates, with the link up, the battery
    high and the custodian not speeding.  Stingy: the link up and the
    battery in the band [SELFISH_ENERGY_FLOOR, energy_high_threshold).
    """
    high, slow = cfg.energy_high_threshold, cfg.velocity_low_threshold
    if ledger.sorted_by != (high, slow):
        ledger.sorted_by, ledger.sorts = (high, slow), {}
    done, culpable, stingy = ledger.sorts.get(gateway) or (0, [], [])
    for e in timeouts[done:]:
        if e.context != LINK_OK:
            continue
        if e.res_eng >= high:
            if e.rel_mobility is not None and abs(e.rel_mobility) <= slow:
                culpable.append(e)
        elif e.res_eng >= SELFISH_ENERGY_FLOOR:
            stingy.append(e)
    ledger.sorts[gateway] = (len(timeouts), culpable, stingy)
    return culpable, stingy


def _in_open_order(entries) -> tuple:
    return tuple(e.packet_id for e in sorted(entries, key=lambda e: e.seq))


def judge_forwarding(ledger: SurveillanceLedger, gateway: int, cfg) -> Verdict:
    """Weigh all resolved evidence against one gateway, under the
    thresholds of the run's `SimConfig` cfg.

    Timeouts with a live link, high battery and low relative speed are
    culpable; `accusation_threshold` of them is malice.  Timeouts in the battery band just
    under "high" read as selfishness when recurring.  Anything else that
    timed out stays inconclusive, and a clean ACKed record is normal.
    Only the gateway's timeouts can be culpable or stingy, and the ledger
    keeps them sorted into both lists (`_sort_timeouts`), so a judgment
    looks only at the timeouts resolved since the last one; evidence lists
    packets in the order their entries opened.
    """
    if not ledger.resolved.get(gateway):
        raise NoEvidence(f"no resolved entries for node {gateway}")
    timeouts = ledger.timeouts.get(gateway)
    if timeouts:
        culpable, stingy = _sort_timeouts(ledger, gateway, timeouts, cfg)
    else:
        culpable = stingy = ()
    if len(culpable) >= cfg.accusation_threshold:
        return Verdict(MALICIOUS, gateway, _in_open_order(culpable), "culpable_drops")
    if len(stingy) >= cfg.accusation_threshold:
        return Verdict(SELFISH, gateway, _in_open_order(stingy), "recurring_refusal")
    if timeouts:
        return Verdict(INCONCLUSIVE, gateway, reason="exonerated_timeouts")
    return Verdict(NORMAL, gateway)


def verify_identity(registry, link_id: int, claimed_id: int) -> Verdict:
    """Check a packet's claimed source against the physical link it used.

    registry is the set of node ids that ever associated with this head;
    the physical link identifies its owner directly.  A claimed id that
    differs from the link owner is spoofing, pinned on the owner.
    """
    if link_id not in registry:
        raise UnknownLink(f"link of node {link_id} never registered")
    if claimed_id != link_id:
        return Verdict(MALICIOUS, link_id, (claimed_id,), "spoofed_identity")
    return Verdict(NORMAL, link_id)


def handle_trust_report(nuisance_counts: dict, report: tuple, nuisance_limit: int) -> str:
    """Log-and-discard policy for member-originated trust reports.

    A report is its `(reporter, accused)` pair.  Word of mouth never moves
    trust here; only the head's own ledger does.  Returns "discarded", or
    "reporter_selfish" exactly once, when the same reporter crosses
    nuisance_limit (`SimConfig.nuisance_limit`) for the same accused node.
    """
    count = nuisance_counts.get(report, 0) + 1
    nuisance_counts[report] = count
    if count == nuisance_limit + 1:
        return "reporter_selfish"
    return "discarded"


def handle_route_advert(from_member: bool) -> bool:
    """Heads only learn routes from other heads; member adverts are noise."""
    return not from_member


def punish(world, verdict: Verdict, issuing_ch: int) -> bool:
    """Apply a MALICIOUS verdict network-wide. Idempotent.

    Zeroes the node's trust through `world.change_trust`, strips it from
    its cluster and any gateway role, and floods a blacklist notice to
    every head.  Returns False when the node was already blacklisted
    (nothing further happens).
    """
    if verdict.label != MALICIOUS:
        return False
    target = verdict.target
    if target in world.blacklisted:
        return False
    world.change_trust(target, trust.on_malicious, verdict.reason)
    world.blacklisted.add(target)
    world.eject_node(target)
    world.flood_blacklist(target, issuing_ch, verdict.reason)
    return True
