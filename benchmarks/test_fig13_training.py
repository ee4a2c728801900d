"""Benchmark: regenerate Fig. 13 (training at 64x64 with duplication).

Paper: 126.8 GOPs/s, 48% duplication memory overhead, 4542.14 (15nm) and
272.52 (28nm) epoch-frames/s.
"""

from repro.experiments import fig13_training


def test_fig13_training():
    result = fig13_training.run()
    print()
    print(result.to_table())
    report = result.report_15nm
    # Training throughput is near-but-below inference throughput.
    assert result.training_vs_inference < 1.0
    assert report.throughput_gops > 30.0
    # Duplication costs tens of percent of memory (paper: 48%).
    assert 0.1 < report.memory_overhead < 0.9
    # The 28nm/15nm epoch-rate ratio tracks the clock ratio.
    ratio = (report.frames_per_second
             / result.report_28nm.frames_per_second)
    assert 15.0 < ratio < 18.0
