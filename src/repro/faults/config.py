"""Fault-injection configuration.

One frozen :class:`FaultConfig` describes every fault model and
resilience-protocol knob of a run.  It hangs off
``NeurocubeConfig.faults`` (or rides ambiently on a
:class:`repro.core.context.RunContext`), travels pickled to
process-pool workers, and — together with the seed — fully determines
every injected fault: same config + same seed => same fault sites,
whatever the execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError

#: Supported DRAM ECC models (see docs/fault_injection.md).
ECC_MODES = ("none", "secded")


@dataclass(frozen=True)
class FaultConfig:
    """All fault-model rates and resilience-protocol parameters.

    Attributes:
        seed: fault RNG seed; every injection is a pure function of
            (seed, site), see :mod:`repro.faults.rng`.
        dram_bitflip_rate: per-bit probability that a bit of a 16-bit
            item read from a vault arrives flipped.
        ecc: DRAM ECC model — "none" (flips land as read) or "secded"
            (per-item single-error-correct / double-error-detect: one
            flip is corrected, two are detected and re-read at zero
            modelled cost, three or more corrupt silently).
        noc_corrupt_rate: per-link-traversal probability of a transient
            payload corruption on a mesh link.
        noc_drop_rate: per-link-traversal probability the flit is lost
            outright (no data arrives; detected by ack timeout).
        vault_jitter_rate: per-read probability of extra access latency.
        vault_jitter_max: maximum extra latency cycles per jittered read.
        mac_stuck_rate: per-(PE, lane) probability that a MAC's output
            latch has one permanently stuck bit (a manufacturing/wear
            fault: constant for a given seed, not per-cycle).
        intercube_corrupt_rate: per-transmission probability that an
            inter-cube SerDes frame arrives corrupted (multi-cube
            sharded runs only; protected by the same CRC/retransmit
            protocol as mesh links — see docs/multicube.md).
        intercube_drop_rate: per-transmission probability an inter-cube
            frame is lost outright (detected by ack timeout).
        crc: stamp packets with a CRC-8 and check it at every link
            receive.  CRC-8 detects all single-bit corruptions, turning
            them into retries; with ``crc=False`` corrupted payloads
            propagate silently (the contrast the resilience sweep
            measures).
        max_retries: link retransmissions before a packet is declared
            lost and recorded as a :class:`~repro.faults.injector.
            DegradedResult` (the run degrades instead of wedging).
        retry_backoff: base backoff in cycles; retry ``k`` waits
            ``retry_backoff * 2**(k-1)`` cycles (drops wait one extra
            ``retry_backoff`` for the ack timeout).
        watchdog_cycles: per-PE watchdog — after this many consecutive
            stalled cycles *with a recorded matching packet loss*, the
            PE force-fires with zeroed missing operands and marks the
            group's neurons degraded.  0 disables the watchdog (a lost
            operand packet then stalls the pass into the deadlock
            detector, whose diagnostics report the pending fault state).
    """

    seed: int = 0
    dram_bitflip_rate: float = 0.0
    ecc: str = "none"
    noc_corrupt_rate: float = 0.0
    noc_drop_rate: float = 0.0
    vault_jitter_rate: float = 0.0
    vault_jitter_max: int = 4
    mac_stuck_rate: float = 0.0
    intercube_corrupt_rate: float = 0.0
    intercube_drop_rate: float = 0.0
    crc: bool = True
    max_retries: int = 3
    retry_backoff: int = 2
    watchdog_cycles: int = 256

    def __post_init__(self) -> None:
        for name in ("dram_bitflip_rate", "noc_corrupt_rate",
                     "noc_drop_rate", "vault_jitter_rate",
                     "mac_stuck_rate", "intercube_corrupt_rate",
                     "intercube_drop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {value}")
        if self.noc_corrupt_rate + self.noc_drop_rate > 1.0:
            raise ConfigurationError(
                "noc_corrupt_rate + noc_drop_rate must not exceed 1")
        if self.intercube_corrupt_rate + self.intercube_drop_rate > 1.0:
            raise ConfigurationError(
                "intercube_corrupt_rate + intercube_drop_rate must "
                "not exceed 1")
        if self.ecc not in ECC_MODES:
            raise ConfigurationError(
                f"unknown ECC model {self.ecc!r}; choose from {ECC_MODES}")
        if self.vault_jitter_max < 1:
            raise ConfigurationError(
                f"vault_jitter_max must be >= 1, got {self.vault_jitter_max}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 1:
            raise ConfigurationError(
                f"retry_backoff must be >= 1, got {self.retry_backoff}")
        if self.watchdog_cycles < 0:
            raise ConfigurationError(
                f"watchdog_cycles must be >= 0, got {self.watchdog_cycles}")

    @property
    def any_rate(self) -> bool:
        """True when any fault model can actually fire."""
        return (self.dram_bitflip_rate > 0.0
                or self.noc_corrupt_rate > 0.0
                or self.noc_drop_rate > 0.0
                or self.vault_jitter_rate > 0.0
                or self.mac_stuck_rate > 0.0
                or self.intercube_corrupt_rate > 0.0
                or self.intercube_drop_rate > 0.0)

    @property
    def noc_active(self) -> bool:
        """True when the link stage must run its fault/retry path."""
        return self.noc_corrupt_rate > 0.0 or self.noc_drop_rate > 0.0

    @property
    def intercube_active(self) -> bool:
        """True when inter-cube exchanges must run their fault path."""
        return (self.intercube_corrupt_rate > 0.0
                or self.intercube_drop_rate > 0.0)

    def with_(self, **overrides) -> FaultConfig:
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def from_spec(cls, spec: str) -> FaultConfig:
        """Parse a ``key=value[,key=value...]`` CLI spec.

        Keys are field names (``dram_bitflip_rate=1e-5,seed=7,ecc=secded``);
        values are coerced by the field's type.  An empty spec yields the
        all-zero default (useful for a rate-0 bit-identity check).
        """
        by_name = {f.name: f for f in fields(cls)}
        values: dict[str, object] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ConfigurationError(
                    f"fault spec entry {part!r} is not key=value")
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in by_name:
                raise ConfigurationError(
                    f"unknown fault config field {key!r}; choose from "
                    f"{sorted(by_name)}")
            values[key] = _coerce(by_name[key].type, raw.strip(), key)
        return cls(**values)


def _coerce(type_name: str | type, raw: str, key: str):
    """Coerce a CLI string to a FaultConfig field's declared type."""
    name = type_name if isinstance(type_name, str) else type_name.__name__
    try:
        if name == "bool":
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if name == "int":
            return int(raw)
        if name == "float":
            return float(raw)
        return raw
    except ValueError as error:
        raise ConfigurationError(
            f"fault config field {key!r}: cannot parse {raw!r} as "
            f"{name}") from error
