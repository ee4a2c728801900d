"""Simulator-level fault injection: the bit-identity contracts.

The invariants under test are the tentpole acceptance criteria:

* a rate-0 injector is invisible — bit-identical outputs, cycles and
  statistics against a run with no injector at all;
* a seeded campaign is a pure function of (seed, config): identical
  faults across repeat runs, serial vs parallel, lock-step vs
  skip-ahead (the pinned counters double as the CI smoke numbers);
* the retry protocol recovers CRC-detected corruptions and drops within
  budget, bit-identically to the fault-free run when slack absorbs it;
* exhausted retry budgets degrade gracefully (loss ledger + watchdog
  force-fire + zero-filled outputs) instead of wedging the run;
* checkpoint/resume reproduces the uninterrupted run exactly, from any
  snapshot, in every execution mode.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.core import NeurocubeSimulator, RunContext, compile_inference
from repro.core.config import NeurocubeConfig
from repro.errors import SimulationError
from repro.faults import CheckpointSpec, FaultConfig
from repro.fixedpoint import quantize_float
from repro.nn import models

#: LayerRun statistics that must fold identically across engine modes.
STAT_FIELDS = ("cycles", "packets", "macs_fired", "pe_busy_cycles",
               "pe_idle_cycles", "inject_stall_cycles")

#: Aggressive drop campaign on the lateral-traffic workload: retry
#: budget 0, so losses and watchdog fires are guaranteed.  The counters
#: and cycle count are pinned — they are part of the determinism
#: contract (same seed + config => same faults, any execution mode).
LOSSY = FaultConfig(seed=2, noc_drop_rate=0.05, max_retries=0,
                    watchdog_cycles=80, retry_backoff=1)
LOSSY_CYCLES = 991
LOSSY_COUNTERS = {"link_drops": 26, "packets_lost": 26,
                  "watchdog_fires": 25}
LOSSY_DEGRADED = 51

#: Moderate corrupt+drop campaign the retry budget fully absorbs.
RECOVERABLE = FaultConfig(seed=11, noc_corrupt_rate=0.02,
                          noc_drop_rate=0.01, max_retries=2,
                          retry_backoff=2, watchdog_cycles=150)
RECOVERABLE_COUNTERS = {"link_corruptions": 12, "link_drops": 4,
                        "retries": 16}


@pytest.fixture(scope="module")
def config():
    return NeurocubeConfig()


@pytest.fixture(scope="module")
def conv_case(config):
    """3-map conv, duplicated weights (vault-local traffic only)."""
    net = models.single_conv_layer(12, 12, 3, in_maps=1, out_maps=3,
                                   seed=22)
    desc = compile_inference(net, config, True).descriptors[0]
    x = quantize_float(
        np.random.default_rng(7).standard_normal((1, 12, 12)),
        config.qformat)
    return net, desc, x


@pytest.fixture(scope="module")
def lateral_case(config):
    """2-map conv without duplication: ~40% of packets cross mesh
    links, so the NoC fault models actually fire."""
    net = models.single_conv_layer(10, 10, 3, in_maps=1, out_maps=2,
                                   seed=9)
    desc = compile_inference(net, config, False).descriptors[0]
    x = quantize_float(
        np.random.default_rng(3).standard_normal((1, 10, 10)),
        config.qformat)
    return net, desc, x


def run_case(config, case, **kwargs):
    net, desc, x = case
    return NeurocubeSimulator(config, **kwargs).run_descriptor(
        desc, net.layers[0], x)


def assert_identical(run_a, run_b):
    np.testing.assert_array_equal(run_a.output, run_b.output)
    for name in STAT_FIELDS:
        assert getattr(run_a, name) == getattr(run_b, name), name
    stats_a = (run_a.fault_stats.as_dict()
               if run_a.fault_stats is not None else None)
    stats_b = (run_b.fault_stats.as_dict()
               if run_b.fault_stats is not None else None)
    assert stats_a == stats_b
    assert len(run_a.degraded) == len(run_b.degraded)


def nonzero(stats) -> dict:
    return {k: v for k, v in stats.as_dict().items() if v}


class TestRateZeroIdentity:
    def test_rate_zero_injector_is_invisible(self, config, conv_case):
        """The acceptance gate: an all-zero-rate injector must be
        bit-identical to no injector at all."""
        plain = run_case(config, conv_case)
        idle = run_case(config, conv_case, faults=FaultConfig())
        np.testing.assert_array_equal(plain.output, idle.output)
        for name in STAT_FIELDS:
            assert getattr(plain, name) == getattr(idle, name), name
        assert plain.fault_stats is None
        assert idle.fault_stats is not None
        assert not idle.fault_stats.any_injected
        assert idle.degraded == ()

    def test_rate_zero_on_lateral_traffic_too(self, config, lateral_case):
        plain = run_case(config, lateral_case)
        idle = run_case(config, lateral_case, faults=FaultConfig())
        assert plain.cycles == idle.cycles
        np.testing.assert_array_equal(plain.output, idle.output)


class TestSeededDeterminism:
    def test_pinned_lossy_campaign(self, config, lateral_case):
        """The CI smoke numbers: seed 2 at 5% drop with no retry budget
        must always produce exactly these losses."""
        run = run_case(config, lateral_case, faults=LOSSY)
        assert run.cycles == LOSSY_CYCLES
        assert nonzero(run.fault_stats) == LOSSY_COUNTERS
        assert len(run.degraded) == LOSSY_DEGRADED
        assert ({d.kind for d in run.degraded}
                == {"packet_lost", "watchdog_fire"})

    def test_repeat_runs_identical(self, config, lateral_case):
        assert_identical(run_case(config, lateral_case, faults=LOSSY),
                         run_case(config, lateral_case, faults=LOSSY))

    def test_serial_matches_parallel(self, config, lateral_case,
                                     monkeypatch):
        serial = run_case(config, lateral_case, faults=LOSSY)
        monkeypatch.setenv("NEUROCUBE_SIM_WORKERS", "3")
        parallel = run_case(config, lateral_case, faults=LOSSY)
        assert_identical(serial, parallel)

    def test_lock_step_matches_skip_ahead(self, config, lateral_case):
        skip = run_case(config, lateral_case, faults=LOSSY)
        lock_config = dataclasses.replace(config, sim_skip_ahead=False)
        lock = run_case(lock_config, lateral_case, faults=LOSSY)
        assert_identical(skip, lock)

    def test_memoization_stands_down_bit_identically(self, config,
                                                     conv_case):
        """Maps carry per-pass salts, so memoized replay would be wrong
        under faults; the memoizer must stand down and the result must
        equal the explicitly unmemoized run."""
        faults = FaultConfig(seed=3, dram_bitflip_rate=1e-4,
                             vault_jitter_rate=1e-3)
        memo = run_case(config, conv_case, faults=faults)
        plain_config = dataclasses.replace(config, sim_memoize=False)
        plain = run_case(plain_config, conv_case, faults=faults)
        assert_identical(memo, plain)


class TestRetryProtocol:
    def test_recoverable_campaign_is_output_transparent(self, config,
                                                        lateral_case):
        """CRC-detected corruptions and dropped flits retransmit within
        budget: same outputs and cycles as the fault-free run (the NoC
        slack absorbs the retries), nothing degraded."""
        clean = run_case(config, lateral_case)
        run = run_case(config, lateral_case, faults=RECOVERABLE)
        assert nonzero(run.fault_stats) == RECOVERABLE_COUNTERS
        assert run.degraded == ()
        np.testing.assert_array_equal(run.output, clean.output)
        assert run.cycles == clean.cycles

    def test_exhausted_budget_degrades_not_wedges(self, config,
                                                  lateral_case):
        """Losses past the budget zero-fill the affected outputs and
        ride out on the degradation ledger."""
        clean = run_case(config, lateral_case)
        run = run_case(config, lateral_case, faults=LOSSY)
        assert run.output.shape == clean.output.shape
        assert run.fault_stats.packets_lost > 0
        assert run.fault_stats.watchdog_fires > 0
        details = [d.detail for d in run.degraded]
        assert any("lost" in detail for detail in details)

    def test_watchdog_off_stalls_with_fault_diagnostics(self, config,
                                                        lateral_case):
        """With the watchdog disabled a permanent loss wedges the pass;
        the deadlock report must name the pending fault state so a
        fault-induced stall is distinguishable from a plan bug."""
        faults = LOSSY.with_(watchdog_cycles=0)
        with pytest.raises(SimulationError) as err:
            run_case(config, lateral_case, faults=faults)
        message = str(err.value)
        assert "pending retry/timeout state" in message
        assert "lost:" in message
        assert "waiting=" in message


class TestCheckpointResume:
    def _checkpointed(self, config, case, directory, **kwargs):
        spec = CheckpointSpec(directory=str(directory), every=50)
        return run_case(config, case, faults=LOSSY, checkpoint=spec,
                        **kwargs)

    @staticmethod
    def _truncate(directory, keep_up_to: int):
        """Simulate a crash: drop every snapshot past ``keep_up_to``."""
        removed = 0
        for path in pathlib.Path(directory).glob("*.pkl"):
            cycle = int(path.name.split("@")[1].split(".")[0])
            if cycle > keep_up_to:
                path.unlink()
                removed += 1
        assert removed > 0, "truncation did not remove any snapshot"

    def test_periodic_saves_land_on_the_period(self, config,
                                               lateral_case, tmp_path):
        """Skip-ahead must clamp its jumps to checkpoint boundaries:
        every snapshot lands exactly on a multiple of ``every``."""
        run = self._checkpointed(config, lateral_case, tmp_path)
        saved = [int(p.name.split("@")[1].split(".")[0])
                 for p in tmp_path.glob("*.pkl")]
        assert saved, "no snapshots written"
        assert all(cycle % 50 == 0 for cycle in saved)
        # Checkpointing itself must not perturb the run.
        assert run.cycles == LOSSY_CYCLES
        assert nonzero(run.fault_stats) == LOSSY_COUNTERS

    def test_mid_run_resume_is_bit_identical(self, config, lateral_case,
                                             tmp_path):
        uninterrupted = run_case(config, lateral_case, faults=LOSSY)
        self._checkpointed(config, lateral_case, tmp_path)
        self._truncate(tmp_path, keep_up_to=150)
        resume = CheckpointSpec(directory=str(tmp_path), resume=True)
        resumed = run_case(config, lateral_case, faults=LOSSY,
                           checkpoint=resume)
        assert_identical(uninterrupted, resumed)
        assert len(resumed.degraded) == LOSSY_DEGRADED

    def test_parallel_resumes_serial_checkpoints(self, config,
                                                 lateral_case, tmp_path,
                                                 monkeypatch):
        """Labels derive from the pass's logical identity, so a parallel
        run can pick up a serial run's snapshots bit-identically."""
        serial = self._checkpointed(config, lateral_case, tmp_path)
        self._truncate(tmp_path, keep_up_to=200)
        monkeypatch.setenv("NEUROCUBE_SIM_WORKERS", "3")
        resume = CheckpointSpec(directory=str(tmp_path), resume=True)
        resumed = run_case(config, lateral_case, faults=LOSSY,
                           checkpoint=resume)
        assert_identical(serial, resumed)

    def test_lock_step_resumes_skip_ahead_checkpoints(self, config,
                                                      lateral_case,
                                                      tmp_path):
        skip = self._checkpointed(config, lateral_case, tmp_path)
        self._truncate(tmp_path, keep_up_to=100)
        lock_config = dataclasses.replace(config, sim_skip_ahead=False)
        resume = CheckpointSpec(directory=str(tmp_path), resume=True)
        resumed = run_case(lock_config, lateral_case, faults=LOSSY,
                           checkpoint=resume)
        assert_identical(skip, resumed)

    def test_resume_without_snapshots_starts_from_zero(self, config,
                                                       lateral_case,
                                                       tmp_path):
        resume = CheckpointSpec(directory=str(tmp_path), resume=True)
        run = run_case(config, lateral_case, faults=LOSSY,
                       checkpoint=resume)
        assert run.cycles == LOSSY_CYCLES

    def test_fault_free_checkpointing_also_identical(self, config,
                                                     conv_case,
                                                     tmp_path):
        """Checkpointing composes with the no-faults path too."""
        plain = run_case(config, conv_case)
        spec = CheckpointSpec(directory=str(tmp_path), every=100)
        saved = run_case(config, conv_case, checkpoint=spec)
        np.testing.assert_array_equal(plain.output, saved.output)
        assert plain.cycles == saved.cycles
        resume = CheckpointSpec(directory=str(tmp_path), resume=True)
        resumed = run_case(config, conv_case, checkpoint=resume)
        np.testing.assert_array_equal(plain.output, resumed.output)
        assert plain.cycles == resumed.cycles


class TestAmbientSession:
    def test_session_config_applies_and_captures(self, config,
                                                 lateral_case):
        with RunContext(faults=LOSSY) as session:
            run = run_case(config, lateral_case)
        assert nonzero(run.fault_stats) == LOSSY_COUNTERS
        assert len(session.runs) == 1
        assert nonzero(session.total_fault_stats()) == LOSSY_COUNTERS
        assert len(session.runs[0].degraded) == LOSSY_DEGRADED

    def test_explicit_config_beats_ambient(self, config, lateral_case):
        with RunContext(faults=LOSSY) as session:
            run = run_case(config, lateral_case, faults=FaultConfig())
        assert not run.fault_stats.any_injected
        assert len(session.runs) == 1
        assert not session.total_fault_stats().any_injected

    def test_no_session_no_faults(self, config, lateral_case):
        assert run_case(config, lateral_case).fault_stats is None
