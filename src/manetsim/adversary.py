"""Planted misbehavior policies and the actions they take on packets.

Policies are pure lookup tables from (behavior kind, packet kind) to an
action; the only cross-event state an attacker keeps is the wormhole peer
binding carried in the policy itself.
"""

from dataclasses import dataclass, field

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
    packet: object = None         # fabricated reply, if any


# The two actions that carry nothing, shared by every `intercept` call.
FORWARD_ACTION = Action(FORWARD)
DROP_ACTION = Action(DROP)


@dataclass
class BehaviorPolicy:
    kind: str = HONEST
    peer: int | None = None              # wormhole partner
    victim: int | None = None            # spoofed identity
    targets: tuple = ()                  # slander victims
    rate: float = 100.0                  # table-overflow adverts per second
    drop_rate: float = 1.0               # grey-hole DATA drop probability
    owner: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown behavior kind {self.kind!r}")
        if self.kind == WORMHOLE and self.peer is None:
            raise ValueError("wormhole policy needs a peer")
        if self.kind == SPOOF and self.victim is None:
            raise ValueError("spoof policy needs a victim")


def intercept(policy: BehaviorPolicy, packet, rng=None) -> Action:
    """Decide what a node holding this policy does with a packet in transit."""
    kind = packet.kind
    if policy.kind == BLACK_HOLE:
        if kind == packets.RREQ:
            # Lure: claim a one-hop path to whatever is being asked for.
            fake = packets.Packet(packets.RREP, policy.owner or 0, packet.src,
                                  size=32, payload={"claimed_hops": 1,
                                                    "for": packet.payload.get("dst")})
            return Action(FABRICATE, packet=fake)
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


def spoof_identity(policy: BehaviorPolicy, packet):
    """Rewrite the claimed source to the victim. Physical sender unchanged."""
    packet.src = policy.victim
    return packet


def emit_slander(policy: BehaviorPolicy, own_ch: int):
    """One fabricated misbehavior report per configured target."""
    reports = []
    for t in policy.targets:
        reports.append(packets.Packet(
            packets.TRUST_REPORT, policy.owner or 0, own_ch, size=32,
            payload={"accused": t, "claim": "dropped my packets"}))
    return reports


def flood_count(policy: BehaviorPolicy, dt: float) -> int:
    """Adverts due for a tick of dt seconds at the policy's rate."""
    if dt <= 0:
        return 0
    return int(round(policy.rate * dt))
