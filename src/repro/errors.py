"""Exception hierarchy for the Neurocube reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one handler while still
distinguishing configuration mistakes from runtime simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An object was constructed or programmed with inconsistent parameters.

    Examples: a PE count that does not match the vault count, a Q-format
    with zero total bits, or a layer whose kernel is larger than its input.
    """


class MappingError(ReproError):
    """A neural network could not be mapped onto the Neurocube.

    Raised by the compiler and the data-layout planner, e.g. when a layer's
    working set cannot be partitioned across the requested number of vaults.
    """


class PlanCheckError(ReproError):
    """A compiled plan failed static verification (``nccheck``).

    Raised by the ``validate=`` fail-fast hooks before any cycle is
    simulated.  Carries the individual
    :class:`repro.analysis.nccheck.PlanViolation` records so callers
    can inspect per-check findings programmatically.
    """

    def __init__(self, message: str, violations: tuple = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


class SchemaMismatch(ReproError):
    """A persisted artifact carries an unsupported schema version.

    Raised when a run manifest declares a version this build cannot
    interpret — e.g. ``ncprof diff`` fed a manifest written by a newer
    checkout.  Distinct from :class:`ValueError` on
    a wrong ``kind`` (not our artifact at all): a schema mismatch names
    the exact version gap so the caller can upgrade or re-record.
    """


class SimulationError(ReproError):
    """The cycle-level simulator reached an inconsistent state.

    Examples: deadlock (no component can make progress while work remains),
    a packet routed to a non-existent node, or a credit underflow.
    """


class ProtocolError(SimulationError):
    """A component violated the Neurocube hardware protocol.

    Examples: a vault pushing data while un-programmed, a PE receiving a
    packet whose MAC-ID exceeds the configured number of MACs, or a host
    reprogramming a PNG before ``layer_done`` was raised.
    """
