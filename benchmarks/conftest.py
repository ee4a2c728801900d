"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the rows/series the paper reports (run with ``-s`` to see them);
assertions encode the shape checks recorded in EXPERIMENTS.md.
"""

import os

import pytest


@pytest.fixture
def record_sim_rate():
    """Record a ``LayerRun``'s simulation rate into the benchmark JSON.

    Attaches ``simulated_cycles`` and ``simulated_cycles_per_second`` to
    the benchmark's ``extra_info``, so emitted ``BENCH_*.json`` records
    carry the simulator's throughput alongside the host-time stats.
    Informational only: ``tools/bench_compare.py`` prints these but the
    regression gate reads the ``stats`` block exclusively.
    """
    def record(benchmark, run):
        benchmark.extra_info["simulated_cycles"] = int(run.cycles)
        benchmark.extra_info["simulated_cycles_per_second"] = float(
            run.simulated_cycles_per_second)
    return record


@pytest.fixture
def record_fault_counters():
    """Record a run's nonzero fault counters into the benchmark JSON.

    Takes anything carrying a ``fault_stats``
    (:class:`repro.faults.FaultStats` or None) — a ``LayerRun`` or a
    whole-network ``RunReport`` is folded by the caller first.  Attaches
    a ``fault_counters`` dict to ``extra_info``; ``bench_compare``
    prints it as an informational column, never as a gate.
    """
    def record(benchmark, fault_stats):
        if fault_stats is None:
            return
        counters = {name: value
                    for name, value in fault_stats.as_dict().items()
                    if value}
        benchmark.extra_info["fault_counters"] = counters
    return record


@pytest.fixture
def record_memo_counters():
    """Record a run's nonzero memo-store counters into the benchmark JSON.

    Takes a :class:`repro.memo.MemoStats` (or None).  Attaches a
    ``memo_counters`` dict to ``extra_info``; ``bench_compare`` prints
    it as an informational ``[memo: ...]`` column, never as a gate —
    the hit/reject invariants are asserted inside the benchmarks.
    """
    def record(benchmark, memo_stats):
        if memo_stats is None:
            return
        counters = {name: value
                    for name, value in memo_stats.as_dict().items()
                    if value}
        benchmark.extra_info["memo_counters"] = counters
    return record


@pytest.fixture
def speedup_gate():
    """Assert a multi-core wall-clock speedup where the host can show one.

    Records the host's ``usable_cores`` in ``extra_info`` and asserts
    ``speedup >= 2.0`` only with at least ``SPEEDUP_GATE_CORES`` usable
    cores: a smaller host cannot physically show the parallel speedup.
    ``bench_compare`` prints ``[speedup gate skipped: N cores]`` for
    the benchmarks whose gate did not evaluate.
    """
    # Imported here, not at module level: the neurobench harness tests
    # under benchmarks/e2e share this conftest and run without repro on
    # the import path.
    from repro.bench_compare import SPEEDUP_GATE_CORES

    def gate(benchmark, speedup):
        cores = len(os.sched_getaffinity(0))
        benchmark.extra_info["usable_cores"] = cores
        if cores >= SPEEDUP_GATE_CORES:
            assert speedup >= 2.0
    return gate
