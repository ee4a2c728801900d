"""Benchmark: regenerate Table I (3D memory specifications)."""

import pytest

from repro.experiments import table1_memory_specs


def test_table1_memory_specs():
    result = table1_memory_specs.run()
    print()
    print(result.to_table())
    hmc = result.specs["HMC-Int"]
    assert hmc.max_channels == 16
    assert hmc.total_peak_bandwidth == pytest.approx(160e9)
    assert result.specs["DDR3"].peak_bandwidth > hmc.peak_bandwidth
