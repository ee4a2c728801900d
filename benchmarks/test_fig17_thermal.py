"""Benchmark: regenerate Fig. 17 (3D thermal simulation).

Paper: 15nm max logic 349 K / DRAM 344 K under a passive sink, inside
the HMC 2.0 limits (383 / 378 K); 28nm thermally negligible.
"""

import pytest

from repro.experiments import fig17_thermal


def test_fig17_thermal():
    result = fig17_thermal.run()
    print()
    print(result.to_table())
    r15 = result.result_15nm
    assert r15.logic_max_k == pytest.approx(349.0, abs=10.0)
    assert r15.dram_max_k == pytest.approx(344.0, abs=10.0)
    assert r15.within_limits
    assert r15.logic_max_k > r15.dram_max_k
    assert result.result_28nm.logic_max_k < 320.0
