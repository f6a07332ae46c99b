"""Planted misbehavior policies and the actions they take on packets.

Policies are pure lookup tables from (behavior kind, packet kind) to an
action; the only cross-event state an attacker keeps is the wormhole peer
binding carried in the policy itself.  What a spoofer claims (its victim)
and what a slanderer accuses (its targets) the engine reads straight off
the policy.
"""

from dataclasses import dataclass

from . import packets

HONEST = "honest"
BLACK_HOLE = "black_hole"
GREY_HOLE = "grey_hole"
WORMHOLE = "wormhole"
SPOOF = "spoof"
SLANDER = "slander"
TABLE_OVERFLOW = "table_overflow"

KINDS = (HONEST, BLACK_HOLE, GREY_HOLE, WORMHOLE, SPOOF, SLANDER, TABLE_OVERFLOW)

FORWARD = "forward"
DROP = "drop"
TUNNEL = "tunnel"
FABRICATE = "fabricate"


@dataclass(frozen=True)
class Action:
    kind: str
    peer: int | None = None       # tunnel endpoint


# The actions that carry nothing, shared by every `intercept` call.
FORWARD_ACTION = Action(FORWARD)
DROP_ACTION = Action(DROP)
FABRICATE_ACTION = Action(FABRICATE)


@dataclass
class BehaviorPolicy:
    kind: str = HONEST
    peer: int | None = None              # wormhole partner
    victim: int | None = None            # spoofed identity
    targets: tuple = ()                  # slander victims
    rate: float = 100.0                  # table-overflow adverts per second
    drop_rate: float = 1.0               # grey-hole DATA drop probability

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown behavior kind {self.kind!r}")
        if self.kind == WORMHOLE and self.peer is None:
            raise ValueError("wormhole policy needs a peer")
        if self.kind == SPOOF and self.victim is None:
            raise ValueError("spoof policy needs a victim")


def intercept(policy: BehaviorPolicy, kind: str, rng=None) -> Action:
    """Decide what a node holding this policy does with a packet of this
    kind in transit.  A black hole answers a route request with
    `FABRICATE_ACTION`, a lure claiming a one-hop path (`World._false_rrep`)."""
    if policy.kind == BLACK_HOLE:
        if kind == packets.RREQ:
            return FABRICATE_ACTION
        if kind == packets.DATA:
            return DROP_ACTION
    elif policy.kind == GREY_HOLE:
        if kind == packets.DATA:
            if policy.drop_rate >= 1.0 or (rng is not None and rng.random() < policy.drop_rate):
                return DROP_ACTION
    elif policy.kind == WORMHOLE:
        if kind in (packets.DATA, packets.RREQ):
            return Action(TUNNEL, peer=policy.peer)
    return FORWARD_ACTION


def flood_count(policy: BehaviorPolicy, dt: float) -> int:
    """Adverts due for a tick of dt seconds at the policy's rate."""
    if dt <= 0:
        return 0
    return int(round(policy.rate * dt))
