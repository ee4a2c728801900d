"""Benchmark: regenerate Fig. 12 (scene-labeling inference) and the
§VI-3 frames/s figures.

Paper: 132.4 GOPs/s with duplication, 111.4 without; 292.14 frames/s at
15nm, 17.52 at 28nm.
"""

import pytest

from repro.experiments import fig12_inference


def test_fig12_inference():
    result = fig12_inference.run()
    print()
    print(result.to_table())
    assert result.duplicate.throughput_gops == pytest.approx(
        fig12_inference.PAPER_GOPS_DUPLICATE, rel=0.15)
    # Duplication wins by the paper's margin class.
    assert 0.6 < result.throughput_ratio < 0.95
    # 15nm over 28nm tracks the clock ratio (16.7x).
    assert result.node_speedup == pytest.approx(16.7, rel=0.05)
