"""Benchmark: regenerate Table II + Fig. 16 (power, area, floorplan)."""

import pytest

from repro.experiments import table2_hardware


def test_table2_hardware():
    result = table2_hardware.run()
    print()
    print(result.to_table())
    for node in ("28nm", "15nm"):
        hardware = result.nodes[node]
        expected = hardware.expected
        assert hardware.compute_power_w == pytest.approx(
            expected["compute_power_w"], rel=0.01)
        assert hardware.system.hmc_logic_w == pytest.approx(
            expected["hmc_logic_w"], rel=0.01)
        assert hardware.system.dram_w == pytest.approx(
            expected["dram_w"], rel=0.01)
        assert hardware.compute_area_mm2 == pytest.approx(
            expected["compute_area_mm2"], rel=0.01)
        assert hardware.floorplan.fits_logic_die()
