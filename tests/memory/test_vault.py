"""Tests for the cycle-level vault channel."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.memory import ChannelTiming, MemorySystem, VaultChannel
from repro.memory.specs import HMC_INT


def timing(burst=8, gap=8, latency=0, rate=1.0):
    return ChannelTiming(io_clock_hz=5e9, word_bits=32,
                         words_per_cycle=rate, burst_length=burst,
                         tccd_gap_cycles=gap,
                         access_latency_cycles=latency)


class TestServiceTiming:
    def test_one_word_per_cycle_in_burst(self):
        vault = VaultChannel(timing(gap=0))
        vault.enqueue_reads(range(0, 16, 2))
        done = []
        for _ in range(8):
            done.extend(vault.step())
        assert len(done) == 8

    def test_gap_between_bursts(self):
        vault = VaultChannel(timing(burst=4, gap=4))
        vault.enqueue_reads(range(0, 32, 2))
        # 16 words: 4 bursts of 4 with 3 gaps -> 4*4 + 3*4 = 28 cycles.
        done = vault.drain()
        assert len(done) == 16
        assert vault.cycle == 28

    def test_latency_delays_completion(self):
        vault = VaultChannel(timing(latency=10))
        vault.enqueue_read(0)
        completions = [vault.step() for _ in range(12)]
        flat = [c for batch in completions for c in batch]
        assert flat[0].completed_cycle == 11
        assert flat[0].issued_cycle == 1

    def test_completions_in_issue_order(self):
        vault = VaultChannel(timing(latency=5))
        vault.enqueue_reads([10, 20, 30], tags=["a", "b", "c"])
        done = vault.drain()
        assert [r.tag for r in done] == ["a", "b", "c"]

    def test_fractional_rate_paces_issues(self):
        vault = VaultChannel(timing(gap=0, rate=0.25))
        vault.enqueue_reads(range(0, 8, 2))
        done = vault.drain()
        # 4 words at 0.25 words/cycle ~ 16 cycles.
        assert len(done) == 4
        assert 13 <= vault.cycle <= 17

    def test_idle_resets_burst_position(self):
        vault = VaultChannel(timing(burst=4, gap=100))
        vault.enqueue_reads(range(0, 6, 2))
        vault.drain()  # 3 words, no gap hit
        assert vault.cycle == 3


class TestData:
    def test_write_items(self):
        vault = VaultChannel(timing(), data=np.zeros(8, dtype=np.int64))
        vault.write_items(3, [5, 6])
        assert list(vault.data[3:5]) == [5, 6]

    def test_write_out_of_bounds(self):
        vault = VaultChannel(timing(), data=np.zeros(4, dtype=np.int64))
        with pytest.raises(SimulationError):
            vault.write_items(3, [1, 2])

    def test_negative_address_rejected(self):
        vault = VaultChannel(timing())
        with pytest.raises(ConfigurationError):
            vault.enqueue_read(-1)


class TestStats:
    def test_words_served_counted(self):
        vault = VaultChannel(timing())
        vault.enqueue_reads(range(0, 10, 2))
        vault.drain()
        assert vault.words_served == 5

    def test_stall_cycles_during_gap_with_pending(self):
        vault = VaultChannel(timing(burst=2, gap=3))
        vault.enqueue_reads(range(0, 8, 2))
        vault.drain()
        assert vault.stall_cycles > 0


class TestMemorySystem:
    def test_hmc_default(self):
        system = MemorySystem.hmc()
        assert len(system.vaults) == 16
        assert system.sustained_bandwidth == pytest.approx(160e9)

    def test_channel_count_bounds(self):
        with pytest.raises(ConfigurationError):
            MemorySystem(HMC_INT, channels=17)

    def test_access_energy(self):
        system = MemorySystem.hmc()
        assert system.access_energy(1e12) == pytest.approx(3.7)

    def test_step_all_channels(self):
        system = MemorySystem.hmc(channels=4)
        for vault in system.vaults:
            vault.enqueue_read(0)
        assert system.busy
        while system.busy:
            system.step()
        assert system.total_words_served == 4
