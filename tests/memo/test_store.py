"""MemoStore file protocol: hits, rejects, invisibility, LRU, races."""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.core import NeurocubeConfig
from repro.core.parallel import MapOutcome
from repro.core.simulator import PassResult
from repro.errors import ConfigurationError
from repro.memo import MEMO_VERSION, MemoStore, memo_fingerprint
from repro.noc.interconnect import NocStats

CONFIG = NeurocubeConfig.hmc_15nm()

DIGEST = "a" * 64
HASHES = ("h0",)


def make_outcome(cycles: int = 100) -> MapOutcome:
    return MapOutcome(index=0, passes=(PassResult(
        cycles=cycles, outputs=None,
        noc=NocStats(delivered=10, lateral=3, total_latency=40),
        pe_stats=[], png_stats=[]),), output=None)


class TestRoundTrip:
    def test_store_then_load_hits(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        store.store(DIGEST, HASHES, make_outcome())
        loaded = store.load(DIGEST, HASHES)
        assert loaded is not None
        assert loaded.passes[0].cycles == 100
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 0, "rejects": 0, "stores": 1,
            "evictions": 0}

    def test_absent_entry_is_a_miss(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        assert store.load(DIGEST, HASHES) is None
        assert store.stats.misses == 1
        assert store.stats.rejects == 0

    def test_entries_shared_across_store_instances(self, tmp_path):
        MemoStore(tmp_path, CONFIG).store(DIGEST, HASHES, make_outcome())
        again = MemoStore(tmp_path, CONFIG)
        assert again.load(DIGEST, HASHES) is not None


class TestRejection:
    """A bad entry is a counted reject and is dropped — never replayed."""

    def entry_path(self, store: MemoStore) -> object:
        return store.directory / f"{DIGEST}.pkl"

    def test_plan_hash_mismatch_rejected(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        store.store(DIGEST, HASHES, make_outcome())
        assert store.load(DIGEST, ("different",)) is None
        assert store.stats.rejects == 1
        assert not self.entry_path(store).exists()

    def test_hash_count_mismatch_rejected(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        store.store(DIGEST, HASHES, make_outcome())
        assert store.load(DIGEST, ("h0", "h1")) is None
        assert store.stats.rejects == 1

    def test_corrupted_entry_rejected(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        store.store(DIGEST, HASHES, make_outcome())
        self.entry_path(store).write_bytes(b"not a pickle at all")
        assert store.load(DIGEST, HASHES) is None
        assert store.stats.rejects == 1
        assert not self.entry_path(store).exists()

    def test_truncated_entry_rejected(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        store.store(DIGEST, HASHES, make_outcome())
        path = self.entry_path(store)
        path.write_bytes(path.read_bytes()[:10])
        assert store.load(DIGEST, HASHES) is None
        assert store.stats.rejects == 1

    def test_wrong_payload_type_rejected(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        self.entry_path(store).write_bytes(
            pickle.dumps(["not", "a", "dict"]))
        assert store.load(DIGEST, HASHES) is None
        assert store.stats.rejects == 1

    def test_header_digest_mismatch_rejected(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        store.store(DIGEST, HASHES, make_outcome())
        # An entry renamed onto the wrong digest must not replay.
        other = store.directory / ("b" * 64 + ".pkl")
        os.replace(self.entry_path(store), other)
        assert store.load("b" * 64, HASHES) is None
        assert store.stats.rejects == 1

    def test_reject_falls_through_to_restore(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        store.store(DIGEST, HASHES, make_outcome())
        self.entry_path(store).write_bytes(b"garbage")
        assert store.load(DIGEST, HASHES) is None
        store.store(DIGEST, HASHES, make_outcome(cycles=200))
        assert store.load(DIGEST, HASHES).passes[0].cycles == 200


class TestInvisibility:
    """Incompatible entries are invisible (a miss), never wrong."""

    def test_foreign_version_is_a_miss_not_a_reject(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        payload = {"version": MEMO_VERSION + 999,
                   "fingerprint": store.fingerprint, "digest": DIGEST,
                   "plan_hashes": HASHES, "outcome": make_outcome()}
        (store.directory / f"{DIGEST}.pkl").write_bytes(
            pickle.dumps(payload))
        assert store.load(DIGEST, HASHES) is None
        assert store.stats.misses == 1
        assert store.stats.rejects == 0

    def test_different_config_lives_in_different_partition(self, tmp_path):
        fast = MemoStore(tmp_path, CONFIG)
        slow = MemoStore(tmp_path, NeurocubeConfig.hmc_28nm())
        assert fast.fingerprint != slow.fingerprint
        fast.store(DIGEST, HASHES, make_outcome(cycles=100))
        assert slow.load(DIGEST, HASHES) is None
        assert slow.stats.misses == 1

    def test_host_only_fields_share_a_fingerprint(self):
        base = memo_fingerprint(CONFIG)
        assert memo_fingerprint(CONFIG.with_(sim_workers=8)) == base
        assert memo_fingerprint(CONFIG.with_(sim_skip_ahead=False)) == base

    def test_timing_fields_change_the_fingerprint(self):
        base = memo_fingerprint(CONFIG)
        assert memo_fingerprint(CONFIG.with_(n_mac=8)) != base
        assert memo_fingerprint(
            CONFIG.with_(noc_topology="fully_connected")) != base


class TestEviction:
    def test_lru_evicts_oldest_first(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        entry_bytes = None
        for index in range(3):
            digest = chr(ord("a") + index) * 64
            store.store(digest, HASHES, make_outcome())
            path = store.directory / f"{digest}.pkl"
            entry_bytes = path.stat().st_size
            os.utime(path, (1000.0 + index, 1000.0 + index))
        store.max_bytes = 2 * entry_bytes
        store.store("d" * 64, HASHES, make_outcome())
        os.utime(store.directory / ("d" * 64 + ".pkl"), (1003.0, 1003.0))
        store._evict()
        survivors = sorted(p.name[0] for p in store.root.glob("*/*.pkl"))
        assert survivors == ["c", "d"]
        assert store.stats.evictions == 2

    def test_hit_refreshes_recency(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        for index in range(2):
            digest = chr(ord("a") + index) * 64
            store.store(digest, HASHES, make_outcome())
            os.utime(store.directory / f"{digest}.pkl",
                     (1000.0 + index, 1000.0 + index))
        # Touch the older entry through a hit: its mtime moves forward.
        assert store.load("a" * 64, HASHES) is not None
        entry_bytes = (store.directory / ("a" * 64 + ".pkl")).stat().st_size
        store.max_bytes = entry_bytes
        store._evict()
        survivors = [p.name[0] for p in store.root.glob("*/*.pkl")]
        assert survivors == ["a"]

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = MemoStore(tmp_path, CONFIG)
        for index in range(4):
            store.store(chr(ord("a") + index) * 64, HASHES, make_outcome())
        assert store.entry_count() == 4
        assert store.stats.evictions == 0

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            MemoStore(tmp_path, CONFIG, max_bytes=0)


def _concurrent_writer(directory: str, worker: int) -> None:
    store = MemoStore(directory, NeurocubeConfig.hmc_15nm())
    for index in range(8):
        digest = f"{(worker + index) % 8:x}" * 64
        store.store(digest, HASHES, make_outcome(cycles=100))


class TestConcurrentWriters:
    def test_two_processes_same_dir_no_clobber(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        workers = [ctx.Process(target=_concurrent_writer,
                               args=(str(tmp_path), w)) for w in range(2)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        # Every entry both processes raced on is fully formed and loads.
        store = MemoStore(tmp_path, CONFIG)
        assert store.entry_count() == 8
        for value in range(8):
            loaded = store.load(f"{value:x}" * 64, HASHES)
            assert loaded is not None
            assert loaded.passes[0].cycles == 100
        assert store.stats.rejects == 0
        # No temp files left behind.
        assert not list(store.root.glob("*/*.tmp"))
