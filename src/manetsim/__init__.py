"""Clustered ad hoc network simulator with cheat-resistant bookkeeping.

Single-hop clusters elect heads on fuzzy scores; heads hold the trust
ledgers, mediate all inter-cluster routing through designated gateways,
watch their custodians, and blacklist the ones that cheat.
"""

from .config import SimConfig
from .engine import World, run
from .metrics import Metrics, metrics_from_log

__version__ = "0.1.0"

__all__ = ["SimConfig", "World", "Metrics", "run", "metrics_from_log",
           "__version__"]
