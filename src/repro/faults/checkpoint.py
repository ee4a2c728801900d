"""Cycle-checkpointing: periodic simulator snapshots + resume.

A long soak run should survive a crash.  :class:`CheckpointStore` keeps
a directory of pickled per-pass snapshots, one file per (pass label,
cycle); ``run_pass`` saves one every :attr:`CheckpointSpec.every` cycles
and, when resuming, loads the newest snapshot for its label and fast-
forwards past the simulated prefix.

Snapshots hold explicit per-agent ``state_dict()`` payloads, not pickled
agent graphs — the live graph is full of closures (routing lambdas, PNG
sinks over the shared ``outputs`` dict) that cannot pickle and would
drag the whole simulator along.  ``load_state`` restores mutable state
*in place* wherever closures capture it (the outputs dict, vault data),
so a resumed pass is the same object graph the uninterrupted run had at
that cycle: the remainder replays bit-identically.

Pass labels are stable across execution modes (they derive from the
descriptor name and the map/sub-pass index, never from worker identity),
so a serial resume can pick up a parallel run's checkpoints and vice
versa.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, SimulationError

#: Snapshot file-format version; bump on layout changes.
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class CheckpointSpec:
    """Checkpoint policy for a run.

    Attributes:
        directory: where snapshot files live.
        every: snapshot period in simulated cycles (per pass).
        resume: when True, each pass first looks for its newest
            snapshot in ``directory`` and resumes from it; passes with
            no snapshot start from cycle 0 as usual.
        keep_last: retain only the newest K snapshots per pass label,
            pruning older ones after each save; 0 keeps everything.
            The newest snapshot is never pruned, so a label always
            stays resumable.
    """

    directory: str
    every: int = 0
    resume: bool = False
    keep_last: int = 0

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ConfigurationError(
                f"checkpoint period must be >= 0, got {self.every}")
        if self.keep_last < 0:
            raise ConfigurationError(
                f"checkpoint keep_last must be >= 0, got {self.keep_last}")
        if not self.every and not self.resume:
            raise ConfigurationError(
                "checkpoint spec needs a period (every > 0), resume=True, "
                "or both")


class CheckpointStore:
    """A directory of pickled pass snapshots, ``{label}@{cycle}.pkl``.

    Writes are atomic (temp file + ``os.replace``) so a crash mid-save
    never leaves a truncated snapshot for resume to trip over.

    Args:
        directory: where snapshot files live (created on demand).
        timer: optional zero-arg callable returning a context manager;
            when set, every :meth:`save`/:meth:`load` wraps its disk
            I/O in one (how the run context bills the ``checkpoint``
            phase; the store knows nothing of phases).  Host-side
            only — it never affects snapshot contents.
        keep_last: retain only the newest K snapshots per label; every
            :meth:`save` prunes older ones afterwards.  0 disables
            pruning.  The just-saved (newest) snapshot is exempt, so a
            label is always resumable even with ``keep_last=1``.
    """

    def __init__(self, directory: str | Path, timer=None,
                 keep_last: int = 0) -> None:
        if keep_last < 0:
            raise ConfigurationError(
                f"checkpoint keep_last must be >= 0, got {keep_last}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.timer = timer
        self.keep_last = keep_last

    def _path(self, label: str, cycle: int) -> Path:
        if "@" in label or "/" in label:
            raise ConfigurationError(
                f"checkpoint label {label!r} must not contain '@' or '/'")
        return self.directory / f"{label}@{cycle:012d}.pkl"

    def save(self, label: str, cycle: int, state: dict) -> Path:
        """Atomically write one snapshot; returns its path."""
        path = self._path(label, cycle)
        payload = {"version": CHECKPOINT_VERSION, "label": label,
                   "cycle": cycle, "state": state}
        tmp = path.with_suffix(".tmp")
        if self.timer is not None:
            with self.timer():
                with tmp.open("wb") as handle:
                    pickle.dump(payload, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
        else:
            with tmp.open("wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        if self.keep_last:
            self.prune(label, self.keep_last)
        return path

    def prune(self, label: str, keep_last: int) -> list[Path]:
        """Delete all but the newest ``keep_last`` snapshots of a label.

        Each removal is a single ``unlink`` (atomic on POSIX), oldest
        first, so an interrupted prune leaves a well-formed store that
        is simply less pruned.  ``keep_last`` is clamped to 1: the
        newest snapshot is never deleted, so resume always finds the
        furthest-forward state.  Returns the deleted paths.
        """
        keep = max(1, keep_last)
        cycles = self.checkpoints(label)
        deleted = []
        for cycle in cycles[:-keep] if len(cycles) > keep else []:
            path = self._path(label, cycle)
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            deleted.append(path)
        return deleted

    def checkpoints(self, label: str) -> list[int]:
        """Snapshot cycles available for a pass label, ascending."""
        prefix = f"{label}@"
        cycles = []
        for path in self.directory.glob(f"{prefix}*.pkl"):
            stem = path.name[len(prefix):-len(".pkl")]
            if stem.isdigit():
                cycles.append(int(stem))
        return sorted(cycles)

    def latest(self, label: str) -> int | None:
        """The newest snapshot cycle for a label, or None."""
        cycles = self.checkpoints(label)
        return cycles[-1] if cycles else None

    def load(self, label: str, cycle: int) -> dict:
        """Load one snapshot's state dict (validates version + header)."""
        path = self._path(label, cycle)
        try:
            if self.timer is not None:
                with self.timer(), path.open("rb") as handle:
                    payload = pickle.load(handle)
            else:
                with path.open("rb") as handle:
                    payload = pickle.load(handle)
        except FileNotFoundError as error:
            raise SimulationError(
                f"no checkpoint {label!r} @ cycle {cycle} in "
                f"{self.directory}") from error
        if payload.get("version") != CHECKPOINT_VERSION:
            raise SimulationError(
                f"checkpoint {path} has version {payload.get('version')}, "
                f"expected {CHECKPOINT_VERSION}")
        if payload.get("label") != label or payload.get("cycle") != cycle:
            raise SimulationError(
                f"checkpoint {path} header mismatch: "
                f"{payload.get('label')!r}@{payload.get('cycle')}")
        return payload["state"]
