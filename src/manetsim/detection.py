"""Cluster-head side misbehavior evidence, judgment and punishment.

Every DATA handover to a gateway leaves a ledger entry at the supervising
head.  The entry resolves to ACKED when the downstream head confirms the
packet, or TIMEOUT when no confirmation arrives in time, and the head then
keeps only counts per gateway: resolved, timed out, culpable and stingy.
A timeout only incriminates the custodian if nothing exonerates it: the
link was up, its battery was comfortably charged and it was not speeding
away.  Enough culpable timeouts make a MALICIOUS verdict; punishment
zeroes trust and floods a blacklist notice over the head backbone.
"""

from dataclasses import dataclass

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
    """A head's watch on one handover, while it is PENDING.

    `context` turns LINK_BROKEN when something clears the custodian of a
    timeout: it was seen attempting a hop that failed, or the packet was
    seen crossing into the downstream head, so only the receipt can go
    missing. Only a timeout reads it; an ACK's `resolve` ignores it."""
    gateway: int                # current custodian under suspicion
    context: str = LINK_OK
    res_eng: float = 1.0        # custodian battery at handover
    rel_mobility: float | None = None  # custodian radial speed vs the head


@dataclass
class Verdict:
    label: str
    target: int
    reason: str = ""


class SurveillanceLedger:
    """One head's watched handovers and, per gateway, four counts.

    `by_packet` holds only the PENDING entries, the ones a hop, an ack or
    a timeout can still change.  `resolve` takes an entry out of it and
    counts it under the gateway holding custody at that moment, in
    `tally[gateway] = [resolved, timeouts, culpable, stingy]`.  A timeout
    is sorted there, under the run's thresholds, which the ledger takes
    from the `SimConfig` it is built from:

    - culpable: nothing exonerates it: the link was up, the battery at
      least `energy_high_threshold` and the custodian's speed known and
      at most `velocity_low_threshold`;
    - stingy: the link was up and the battery in the band
      [SELFISH_ENERGY_FLOOR, energy_high_threshold).

    An entry's gateway and context change only while it is PENDING, so
    the counts are what a scan of every entry the head opened would find,
    and a packet id missing from `by_packet` is unknown or resolved.
    """

    def __init__(self, cfg):
        self.energy_high_threshold = cfg.energy_high_threshold
        self.velocity_low_threshold = cfg.velocity_low_threshold
        self.accusation_threshold = cfg.accusation_threshold
        self.by_packet = {}     # packet id -> PENDING entry
        self.tally = {}         # gateway -> [resolved, timeouts, culpable, stingy]

    def open_entry(self, packet_id, gateway, res_eng, rel_mobility) -> LedgerEntry:
        entry = LedgerEntry(gateway, res_eng=res_eng, rel_mobility=rel_mobility)
        self.by_packet[packet_id] = entry
        return entry

    def resolve(self, packet_id, status):
        """Resolve the packet's PENDING entry as ACKED or TIMEOUT and count
        it; returns the entry, or None when no entry is pending for it."""
        entry = self.by_packet.pop(packet_id, None)
        if entry is None:
            return None
        counts = self.tally.get(entry.gateway)
        if counts is None:
            counts = self.tally[entry.gateway] = [0, 0, 0, 0]
        counts[0] += 1
        if status == TIMEOUT:
            counts[1] += 1
            if entry.context == LINK_OK:
                if entry.res_eng >= self.energy_high_threshold:
                    mob = entry.rel_mobility
                    if mob is not None and abs(mob) <= self.velocity_low_threshold:
                        counts[2] += 1
                elif entry.res_eng >= SELFISH_ENERGY_FLOOR:
                    counts[3] += 1
        return entry


def judge_forwarding(ledger: SurveillanceLedger, gateway: int) -> Verdict:
    """Weigh all resolved evidence against one gateway: its counts in the
    ledger, under the ledger's `accusation_threshold`.

    That many culpable timeouts are malice, that many stingy ones
    selfishness.  Any other timeout leaves the record inconclusive, and a
    record of acks alone is normal.
    """
    counts = ledger.tally.get(gateway)
    if counts is None:
        raise NoEvidence(f"no resolved entries for node {gateway}")
    _, timeouts, culpable, stingy = counts
    if culpable >= ledger.accusation_threshold:
        return Verdict(MALICIOUS, gateway, "culpable_drops")
    if stingy >= ledger.accusation_threshold:
        return Verdict(SELFISH, gateway, "recurring_refusal")
    if timeouts:
        return Verdict(INCONCLUSIVE, gateway, "exonerated_timeouts")
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
        return Verdict(MALICIOUS, link_id, "spoofed_identity")
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
