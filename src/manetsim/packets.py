"""Packet kinds and the session record.

A message travels as the values its readers use, not as an object: a DATA
hop carries its packet id and the session's route record, an ACK the id it
acknowledges, a route request its id and claimed source (see `engine`).
"""

from dataclasses import dataclass

DATA = "DATA"
ACK = "ACK"
HELLO = "HELLO"
RREQ = "RREQ"


@dataclass
class Session:
    src: int
    dst: int
    started_at: float
    packets_total: int
    sent: int = 0
    delivered: int = 0
    failed: int = 0
    last_delivery: float | None = None
    closed: bool = False
    # the last route record planned for the session, with the texts and
    # pairs its log records share, see World._plan_route
    route: tuple | None = None
