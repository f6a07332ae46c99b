"""Radio parameters, node movement and the mobility average.

Received power follows the simplified Friis model

    recv_power = K * trans_power / dist**q

with a path-loss exponent q in {2, 3, 4} and a constant K folding in
antenna gains and wavelength.  Inverting the same expression gives the
distance estimate a receiver derives from a HELLO whose transmit power
it knows.  Both are computed in one place, `World._rebuild_adjacency`,
once per linked pair and rebuild.  Relative mobility between two nodes
is the average change of that estimated distance over consecutive HELLO
rounds (`beacon.HelloRuns.mobility`); `avg_mobility` averages it over a
node's neighbours.  The per-sample oracles of these formulas live in
`tests/radio_reference.py`.
"""

import math
from dataclasses import dataclass

from .errors import NoNeighbors

# Distances below this are clamped before entering the Friis formula:
# co-located nodes would otherwise yield infinite power.
MIN_DISTANCE_M = 0.1


@dataclass
class Position:
    x: float
    y: float

    def distance_to(self, other) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass
class WaypointState:
    """Random-waypoint movement state: where to, how fast, how long parked."""
    target: Position
    speed: float
    pause_remaining: float = 0.0


@dataclass
class RadioParams:
    """Channel model knobs shared by all nodes."""
    k: float = 1.0
    q: int = 2
    radio_range: float = 75.0       # meters
    recv_power_floor: float = 1e-4  # mW, receiver sensitivity

    def __post_init__(self):
        if self.q not in (2, 3, 4):
            raise ValueError("path-loss exponent q must be 2, 3 or 4")
        if self.k <= 0:
            raise ValueError("K must be positive")


def waypoint_step(pos: Position, state: WaypointState, dt: float, area, pause_time: float,
                  speed_range, rng):
    """Advance one random-waypoint step of dt seconds, in place.

    While paused the node only burns pause time; when the pause runs out a
    fresh target and speed are drawn.  Moving nodes travel straight at
    their drawn speed and start a pause on arrival.  A non-positive speed
    with no pause pending pins the node forever (used by static scenarios)
    and draws nothing from rng.
    """
    if state.speed <= 0 and state.pause_remaining <= 0:
        return pos, state
    if state.pause_remaining > 0:
        state.pause_remaining -= dt
        if state.pause_remaining <= 0:
            state.pause_remaining = 0.0
            state.target = Position(rng.uniform(0, area[0]), rng.uniform(0, area[1]))
            state.speed = rng.uniform(speed_range[0], speed_range[1])
        return pos, state
    step = state.speed * dt
    dist = pos.distance_to(state.target)
    if dist <= step:
        pos.x, pos.y = state.target.x, state.target.y
        state.pause_remaining = pause_time
    else:
        pos.x += (state.target.x - pos.x) / dist * step
        pos.y += (state.target.y - pos.y) / dist * step
    return pos, state


def avg_mobility(values) -> float:
    """Arithmetic mean of per-neighbor mobility values."""
    vals = list(values)
    if not vals:
        raise NoNeighbors("no downlink neighbors")
    return sum(vals) / len(vals)
