"""Per-node trust accounting, held by cluster heads.

Trust is a ratio of two counters:

    trust_value = 1 - loose_trust / earn_trust

A node earns one unit per packet it forwards on someone else's behalf and
loses units for selfish behavior, proven malice (which zeroes the value
outright) and the service charge levied for its own completed transfer
sessions.  loose_trust never exceeds earn_trust, so the value stays in
[0, 1).  Fresh records start at earn=2, loose=1, i.e. a neutral 0.5.
"""

from dataclasses import dataclass

INIT_EARN = 2
INIT_LOOSE = 1

# Trust below this marks the node for network-wide blacklisting.
DEFAULT_BLACKLIST_LIMIT = 0.1


@dataclass
class TrustRecord:
    node_id: int
    earn_trust: int = INIT_EARN
    loose_trust: int = INIT_LOOSE


def init_trust(node_id: int) -> TrustRecord:
    return TrustRecord(node_id)


def trust_value(rec: TrustRecord) -> float:
    if rec.earn_trust <= 0:
        raise ValueError(f"earn_trust={rec.earn_trust} for node {rec.node_id}")
    return 1.0 - rec.loose_trust / rec.earn_trust


def on_forward_success(rec: TrustRecord) -> TrustRecord:
    """Credit one successfully forwarded packet."""
    rec.earn_trust += 1
    return rec


def on_selfish(rec: TrustRecord) -> TrustRecord:
    """Penalize refusal to serve; counter clamps so trust floors at zero."""
    rec.loose_trust = min(rec.loose_trust + 1, rec.earn_trust)
    return rec


def on_malicious(rec: TrustRecord) -> TrustRecord:
    """Zero the trust value outright. Idempotent."""
    rec.loose_trust = rec.earn_trust
    return rec


# The per-session charge for a node's own completed transfer is the same
# one-unit debit as a selfishness hit; it keeps its own name so callers and
# tracers can tell the two apart.
on_service_charge = on_selfish


def is_blacklisted(rec: TrustRecord, limit: float = DEFAULT_BLACKLIST_LIMIT) -> bool:
    """Strictly below the limit means network-wide refusal."""
    return trust_value(rec) < limit
