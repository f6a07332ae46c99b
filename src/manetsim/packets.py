"""Packet kinds, the session record and a session's route.

A message travels as the values its readers use, not as an object: a DATA
hop carries its packet id, the index of the hop and the session's `Route`,
an ACK the id it acknowledges, a route request its id and claimed source
(see `engine`).
"""

from dataclasses import dataclass

DATA = "DATA"
ACK = "ACK"
HELLO = "HELLO"
RREQ = "RREQ"


class Route:
    """A session's route, as `World._plan_route` plans it.

    `key` is what the plan was read from: the head route tables and the
    two ends' heads. `plan` runs from the source to the destination,
    `segments` are its head-to-head segments, `seg_at` maps each hop to its
    segment (`protocol.segment_table`), and `timeout_s` is the ack timeout
    of the plan's length. The rest is what the route's `data_emit` and
    `data_delivered` records are built from, shared by all of them: `repr`
    of the plan and of the segments and the pairs those records hold. The
    plan's pairs are made here; the session's pair comes from its
    `Session`, and the two ends' pairs from the run's per-node table, so
    the routes of one session or of one end share them too.
    """
    __slots__ = ("key", "sid", "plan", "segments", "seg_at", "timeout_s",
                 "plan_text", "segs_text", "plan_pair", "segs_pair",
                 "session_pair", "dst_pair", "path_pair", "src_pair")

    def __init__(self, key, session_pair, plan, segments, seg_at, timeout_s,
                 src_pair, dst_pair):
        self.key = key
        self.sid = session_pair[1]
        self.plan = plan
        self.segments = segments
        self.seg_at = seg_at
        self.timeout_s = timeout_s
        self.plan_text = repr(plan)
        self.segs_text = repr(segments)
        self.plan_pair = ("plan", plan)
        self.segs_pair = ("segs", segments)
        self.session_pair = session_pair
        self.dst_pair = dst_pair
        self.path_pair = ("path", plan)
        self.src_pair = src_pair


@dataclass
class Session:
    src: int
    dst: int
    started_at: float
    packets_total: int
    id_pair: tuple              # ("session", id), shared by its routes' records
    sent: int = 0
    delivered: int = 0
    failed: int = 0
    last_delivery: float | None = None
    closed: bool = False
    # the last route planned for the open session; a closed one drops it
    route: Route | None = None
