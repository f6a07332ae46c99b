"""Reference forwarding judgment: the scan over every entry a head ever
opened that the per-gateway ledger index replaced, kept as the oracle for
the differential test.  `entries` is the head's entries in open order.
"""

from manetsim.detection import (INCONCLUSIVE, LINK_OK, MALICIOUS, NORMAL,
                                PENDING, SELFISH, SELFISH_ENERGY_FLOOR,
                                TIMEOUT, Verdict)
from manetsim.errors import NoEvidence


def reference_resolved_for(entries, gateway):
    return [e for e in entries
            if e.gateway == gateway and e.ack_status != PENDING]


def _culpable(e, th):
    return (e.ack_status == TIMEOUT
            and e.context == LINK_OK
            and e.res_eng >= th.energy_high_threshold
            and e.rel_mobility is not None
            and abs(e.rel_mobility) <= th.velocity_low_threshold)


def reference_judge_forwarding(entries, gateway, th):
    resolved = reference_resolved_for(entries, gateway)
    if not resolved:
        raise NoEvidence(f"no resolved entries for node {gateway}")
    culpable = [e for e in resolved if _culpable(e, th)]
    if len(culpable) >= th.accusation_threshold:
        return Verdict(MALICIOUS, gateway,
                       tuple(e.packet_id for e in culpable), "culpable_drops")
    stingy = [e for e in resolved
              if e.ack_status == TIMEOUT and e.context == LINK_OK
              and SELFISH_ENERGY_FLOOR <= e.res_eng < th.energy_high_threshold]
    if len(stingy) >= th.accusation_threshold:
        return Verdict(SELFISH, gateway,
                       tuple(e.packet_id for e in stingy), "recurring_refusal")
    if any(e.ack_status == TIMEOUT for e in resolved):
        return Verdict(INCONCLUSIVE, gateway, reason="exonerated_timeouts")
    return Verdict(NORMAL, gateway)
