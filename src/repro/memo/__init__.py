"""Persistent memoization of timing-pass outcomes.

``repro.memo`` turns PR 3's in-run structural memoization into a
durable, content-addressed on-disk cache shared across runs and CI
jobs: :class:`~repro.memo.store.MemoStore` holds the entries (a run
context's :class:`~repro.core.context.MemoDir` opens one per config
for the experiment runner), and ``python -m repro.memo`` exposes
the fingerprint and counters for CI cache keys.  See
``docs/memo_store.md`` for the on-disk format and invalidation rules.
"""

from repro.memo.store import (
    MEMO_VERSION,
    MemoStats,
    MemoStore,
    entry_digest,
    memo_fingerprint,
)

__all__ = [
    "MEMO_VERSION",
    "MemoStats",
    "MemoStore",
    "entry_digest",
    "memo_fingerprint",
]
