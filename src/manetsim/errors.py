"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator-specific errors."""


class NoNeighbors(SimulationError):
    """Node has no downlink neighbors to average over."""


class InvalidEnergy(SimulationError):
    """Energy bookkeeping got impossible inputs (e.g. zero total)."""


class InvalidClusterHead(SimulationError):
    """Cluster head reference is unusable (e.g. zero downlink neighbors)."""


class RejectedUntrusted(SimulationError):
    """Session request refused: requester has no positive trust."""


class RejectedBlacklisted(SimulationError):
    """Session request refused: requester is blacklisted."""


class NoRoute(SimulationError):
    """No usable cluster-head path to the destination."""


class NoEvidence(SimulationError):
    """Surveillance ledger holds no resolved entries for the suspect."""


class UnknownLink(SimulationError):
    """Packet arrived over a link that was never registered with the CH."""


class ConfigError(SimulationError):
    """Simulation or scenario configuration is invalid."""
