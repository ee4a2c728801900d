"""Persistent content-addressed memo store for timing-pass outcomes.

PR 3's structural memoization simulates one representative per
:func:`repro.core.parallel.structural_key` equivalence class and replays
its outcome for the duplicates — but only within one process.  This
module makes the replay durable: a directory of pickled
:class:`~repro.core.parallel.MapOutcome` snapshots keyed by a content
digest of everything the outcome is a function of, shared across runs
and CI jobs.

Safety rests on three independent guards, in order of bluntness:

* **Fingerprint partitioning.**  Entries live under
  ``<root>/<fingerprint>/``, where the fingerprint digests the memo
  format version plus every timing-relevant
  :class:`~repro.core.config.NeurocubeConfig` field.  A store opened
  with an incompatible configuration (or after a format bump) simply
  looks into a different subdirectory: stale entries are *invisible*,
  never wrong.
* **Content addressing.**  The entry digest covers the descriptor's
  timing geometry and the task's full :func:`structural_key` (tensor
  bytes included), so a lookup can only land on an entry built from
  identical work.
* **The key⇒hash invariant, re-verified on every load.**  Each entry
  records the :meth:`~repro.core.scheduler.PassPlan.structural_hash` of
  every plan its worker simulated.  On load, the caller passes the
  hashes of the plans it would build *now*, and the two tuples must be
  equal, hash for hash — the invariant nccheck's NC207 states for
  memoization keys.  A mismatch (corrupted entry, digest collision,
  drifted scheduler) is a counted *reject* and the entry is dropped;
  it is never replayed.

Writes are atomic (unique temp file + ``os.replace``, the checkpoint-
store pattern), so concurrent writers — two CI shards, a process pool —
cannot clobber each other or leave a torn entry behind.  The store is
size-bounded: after every write, least-recently-*used* entries (file
mtime, refreshed on hit) are evicted until the whole root is back under
``max_bytes``.

This module is the sanctioned durable-state path for the cycle model
(with :mod:`repro.faults.checkpoint`); nclint's NC109 bans ad-hoc
``open()``/``pickle`` persistence everywhere else in the cycle-model
packages.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import NeurocubeConfig
from repro.core.layerdesc import LayerDescriptor
from repro.core.parallel import MapOutcome
from repro.errors import ConfigurationError

#: On-disk entry format version.  Bump whenever the entry layout, the
#: digest recipe *or the simulator's timing behaviour* changes: the
#: version is folded into the config fingerprint, so old entries become
#: invisible rather than wrong.  Version 2: a map outcome's passes are
#: :class:`~repro.core.simulator.PassResult` records.
MEMO_VERSION = 2

#: Config fields that never influence simulated results — worker counts
#: and scheduler/memoization toggles (both proven bit-identical).
#: Everything else is fingerprinted.
_HOST_ONLY_FIELDS = frozenset({
    "sim_workers", "sim_skip_ahead", "sim_memoize",
})

#: Descriptor fields excluded from the entry digest: pure labels that
#: cannot move a packet, so identically-shaped layers share entries.
_LABEL_FIELDS = frozenset({"name", "layer_index"})


def _feed(digest, value) -> None:
    """Deterministically fold one value into a hash.

    Handles the types that appear in configurations, descriptors and
    structural keys: scalars, strings, bytes (tensor payloads), tuples/
    lists, enums and (nested) dataclasses.  Type tags and length
    prefixes keep distinct shapes from colliding.
    """
    if isinstance(value, bytes):
        digest.update(b"b%d:" % len(value))
        digest.update(value)
    elif isinstance(value, (tuple, list)):
        digest.update(b"t%d:" % len(value))
        for item in value:
            _feed(digest, item)
    elif isinstance(value, enum.Enum):
        digest.update(b"e:")
        _feed(digest, value.value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(b"d:%s:" % type(value).__name__.encode())
        for field in dataclasses.fields(value):
            digest.update(field.name.encode() + b"=")
            _feed(digest, getattr(value, field.name))
    else:
        digest.update(repr(value).encode())
        digest.update(b";")


def memo_fingerprint(config: NeurocubeConfig) -> str:
    """Digest of the memo version plus all timing-relevant config fields.

    Two configurations share memo entries iff their fingerprints match.
    Host-side knobs (:data:`_HOST_ONLY_FIELDS`) are excluded because
    they are proven not to change simulated results.
    """
    digest = hashlib.sha256()
    digest.update(b"memo-version:%d;" % MEMO_VERSION)
    for field in sorted(dataclasses.fields(config), key=lambda f: f.name):
        if field.name in _HOST_ONLY_FIELDS:
            continue
        digest.update(field.name.encode() + b"=")
        _feed(digest, getattr(config, field.name))
    return digest.hexdigest()[:16]


def entry_digest(desc: LayerDescriptor, key: tuple) -> str:
    """Content address of one memo entry.

    Covers the descriptor's timing geometry (everything except pure
    labels) and the task's full structural key — mode, per-sub-pass
    tensor bytes, biases and finality.  Together with the fingerprint
    this pins every input the timing outcome is a function of.
    """
    digest = hashlib.sha256()
    digest.update(b"desc:")
    for field in dataclasses.fields(desc):
        if field.name in _LABEL_FIELDS:
            continue
        digest.update(field.name.encode() + b"=")
        _feed(digest, getattr(desc, field.name))
    digest.update(b"key:")
    _feed(digest, key)
    return digest.hexdigest()


@dataclass
class MemoStats:
    """Hit/miss/reject/store/evict counters of one store (or several).

    Attributes:
        hits: entries replayed instead of simulated.
        misses: lookups that found no compatible entry (including
            version-invisible ones) and fell through to simulation.
        rejects: entries found but *refused* — corrupted, truncated, or
            failing the key⇒hash invariant.  A reject always falls
            through to simulation; a nonzero count is a health signal,
            never a correctness problem.
        stores: entries written.
        evictions: entries dropped by the LRU size bound.
    """

    hits: int = 0
    misses: int = 0
    rejects: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}

    def merge(self, other: MemoStats) -> None:
        """Fold another counter set into this one."""
        for field in dataclasses.fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))

    def copy(self) -> MemoStats:
        return MemoStats(**self.as_dict())

    def delta(self, since: MemoStats) -> MemoStats:
        """Counters accumulated after the ``since`` snapshot."""
        return MemoStats(**{
            field.name: getattr(self, field.name)
                        - getattr(since, field.name)
            for field in dataclasses.fields(self)})

    @property
    def lookups(self) -> int:
        """Total lookups: hits + misses + rejects."""
        return self.hits + self.misses + self.rejects

    @property
    def any(self) -> bool:
        """True when any counter is nonzero."""
        return any(self.as_dict().values())

    def format(self) -> str:
        return ", ".join(f"{name}={value}"
                         for name, value in self.as_dict().items())


class MemoStore:
    """A size-bounded directory of durable timing-pass outcomes.

    Args:
        directory: the store root; entries land in a per-fingerprint
            subdirectory (created on demand).
        config: the configuration whose fingerprint partitions the root.
        max_bytes: total on-disk budget for the *whole root* (all
            fingerprints); least-recently-used entries are evicted after
            every write until the root fits.  None disables eviction.

    Attributes:
        timer: optional zero-arg callable returning a context manager;
            when set, every :meth:`load`/:meth:`store` wraps its disk
            I/O in one (how the run context bills the ``memo_io``
            phase; the store knows nothing of phases).  The
            simulator sets it per run; it is host-side only and never
            affects what is loaded or stored.
    """

    def __init__(self, directory: str | Path, config: NeurocubeConfig,
                 max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(
                f"memo store max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(directory)
        self.fingerprint = memo_fingerprint(config)
        self.directory = self.root / self.fingerprint
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.stats = MemoStats()
        self.timer = None

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.pkl"

    def load(self, digest: str,
             expected_plan_hashes: tuple[str, ...]) -> MapOutcome | None:
        """Return the entry's outcome, or None (miss or reject).

        ``expected_plan_hashes`` are the structural hashes of the plans
        the caller would build *right now* for this task; the entry's
        recorded hashes must equal them, hash for hash (the key⇒hash
        invariant), or the entry is rejected (and dropped) instead of
        replayed.
        """
        path = self._path(digest)
        try:
            if self.timer is not None:
                with self.timer(), path.open("rb") as handle:
                    payload = pickle.load(handle)
            else:
                with path.open("rb") as handle:
                    payload = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:  # corrupted/truncated/unreadable: reject
            return self._reject(path)
        if not isinstance(payload, dict):
            return self._reject(path)
        if payload.get("version") != MEMO_VERSION:
            # A foreign format version is invisible, not wrong — it can
            # only appear here if the directory was populated by hand.
            self.stats.misses += 1
            return None
        outcome = payload.get("outcome")
        stored_hashes = payload.get("plan_hashes")
        if (payload.get("fingerprint") != self.fingerprint
                or payload.get("digest") != digest
                or not isinstance(outcome, MapOutcome)
                or not isinstance(stored_hashes, tuple)
                or stored_hashes != expected_plan_hashes):
            return self._reject(path)
        # Refresh the LRU clock: this entry was just useful.
        try:
            os.utime(path)
        except OSError:
            pass  # a concurrent eviction won; the outcome is still good
        self.stats.hits += 1
        return outcome

    def _reject(self, path: Path) -> None:
        """Count a reject and drop the offending entry."""
        self.stats.rejects += 1
        try:
            path.unlink()
        except OSError:
            pass  # already gone (concurrent reject/eviction)
        return None

    def store(self, digest: str, plan_hashes: tuple[str, ...],
              outcome: MapOutcome) -> None:
        """Atomically write one entry, then enforce the size bound.

        The temp file name carries the PID, so two processes storing the
        same digest each complete their own write and the later
        ``os.replace`` wins with a fully-formed entry either way.
        """
        path = self._path(digest)
        payload = {
            "version": MEMO_VERSION,
            "fingerprint": self.fingerprint,
            "digest": digest,
            "plan_hashes": tuple(plan_hashes),
            "outcome": outcome,
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
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
        self.stats.stores += 1
        self._evict()

    # ------------------------------------------------------------------
    # size accounting / eviction
    # ------------------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for every entry under the root."""
        entries = []
        for path in self.root.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def total_bytes(self) -> int:
        """Bytes currently stored under the root (all fingerprints)."""
        return sum(size for _, size, _ in self._entries())

    def entry_count(self) -> int:
        """Entries currently stored under the root (all fingerprints)."""
        return len(self._entries())

    def _evict(self) -> None:
        """Drop least-recently-used entries until the root fits."""
        if self.max_bytes is None:
            return
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent evictor beat us to it
            total -= size
            self.stats.evictions += 1
