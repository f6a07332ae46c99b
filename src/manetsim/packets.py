"""Packet and session records passed around the event loop."""

from dataclasses import dataclass, field

DATA = "DATA"
ACK = "ACK"
HELLO = "HELLO"
RREQ = "RREQ"
RREP = "RREP"
TRUST_REPORT = "TRUST_REPORT"


@dataclass
class Packet:
    kind: str
    src: int            # claimed originator (spoofing rewrites this)
    dst: int
    packet_id: int = 0  # assigned from a per-run counter, never globally
    size: int = 512
    payload: dict = field(default_factory=dict)
    # ids appended by each node that handled the packet; tunneling
    # deliberately skips the append, which is what audits look for.
    path_trace: list = field(default_factory=list)


@dataclass
class Session:
    session_id: int
    src: int
    dst: int
    started_at: float
    packets_total: int
    sent: int = 0
    delivered: int = 0
    failed: int = 0
    last_delivery: float | None = None
    closed: bool = False
    # the last route planned for the session, see World._emit_packet
    route: tuple | None = None
