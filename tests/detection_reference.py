"""Reference forwarding judgment: the scan over every entry a head ever
opened that the ledger's per-gateway counts replaced, kept as the oracle
for the differential tests.  `entries` maps each packet id to the entry
opened for it, in open order, and `statuses` each resolved packet id to
the status it was resolved with; an entry missing from `statuses` is
PENDING.  `th` is anything with the three thresholds a ledger holds.
"""

from manetsim.detection import (INCONCLUSIVE, LINK_OK, MALICIOUS, NORMAL,
                                SELFISH, SELFISH_ENERGY_FLOOR, TIMEOUT,
                                Verdict)
from manetsim.errors import NoEvidence


def _culpable(e, th):
    return (e.context == LINK_OK
            and e.res_eng >= th.energy_high_threshold
            and e.rel_mobility is not None
            and abs(e.rel_mobility) <= th.velocity_low_threshold)


def _stingy(e, th):
    return (e.context == LINK_OK
            and SELFISH_ENERGY_FLOOR <= e.res_eng < th.energy_high_threshold)


def reference_tally(entries, statuses, gateway, th):
    """[resolved, timeouts, culpable, stingy] of the gateway's resolved
    entries, or None when it has none."""
    resolved = [(pid, e) for pid, e in entries.items()
                if e.gateway == gateway and pid in statuses]
    if not resolved:
        return None
    timeouts = [e for pid, e in resolved if statuses[pid] == TIMEOUT]
    return [len(resolved), len(timeouts),
            sum(_culpable(e, th) for e in timeouts),
            sum(_stingy(e, th) for e in timeouts)]


def reference_judge_forwarding(entries, statuses, gateway, th):
    counts = reference_tally(entries, statuses, gateway, th)
    if counts is None:
        raise NoEvidence(f"no resolved entries for node {gateway}")
    _, timeouts, culpable, stingy = counts
    if culpable >= th.accusation_threshold:
        return Verdict(MALICIOUS, gateway, "culpable_drops")
    if stingy >= th.accusation_threshold:
        return Verdict(SELFISH, gateway, "recurring_refusal")
    if timeouts:
        return Verdict(INCONCLUSIVE, gateway, "exonerated_timeouts")
    return Verdict(NORMAL, gateway)
