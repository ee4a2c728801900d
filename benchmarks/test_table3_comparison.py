"""Benchmark: regenerate Table III (platform comparison).

Paper: Neurocube reaches 31.92 (28nm) and 38.82 (15nm) GOPs/s/W — about
4x the GPU baselines — while remaining programmable.
"""

import pytest

from repro.experiments import table3_comparison


def test_table3_comparison():
    result = table3_comparison.run()
    print()
    print(result.to_table())
    assert result.efficiency("15nm") == pytest.approx(38.82, rel=0.15)
    assert result.efficiency("28nm") == pytest.approx(31.92, rel=0.15)
    assert 3.0 < result.gpu_efficiency_gain < 7.0
    # 15nm improves on 28nm efficiency (the paper's node trend).
    assert result.efficiency("15nm") > result.efficiency("28nm")
