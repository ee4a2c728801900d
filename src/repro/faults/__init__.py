"""repro.faults: deterministic fault injection and resilience.

Fault models (DRAM bit-flips with optional SECDED ECC, NoC link
transients, vault latency jitter, stuck-at MAC lanes) driven by a
counter-based :class:`DeterministicRNG`; link retry/timeout protocols
and per-PE watchdogs that degrade gracefully into
:class:`DegradedResult` records; and cycle-checkpoint/resume for long
runs.  See docs/fault_injection.md.
"""

from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointSpec,
    CheckpointStore,
)
from repro.faults.config import ECC_MODES, FaultConfig
from repro.faults.injector import (
    DegradedResult,
    FaultInjector,
    FaultStats,
    LostPacket,
)
from repro.faults.rng import DeterministicRNG, pass_salt, splitmix64

__all__ = [
    "CHECKPOINT_VERSION",
    "ECC_MODES",
    "CheckpointSpec",
    "CheckpointStore",
    "DegradedResult",
    "DeterministicRNG",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "LostPacket",
    "pass_salt",
    "splitmix64",
]
