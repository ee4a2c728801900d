"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the rows/series the paper reports (run with ``-s`` to see them);
assertions encode the shape checks recorded in EXPERIMENTS.md.
"""

import os
import warnings

import pytest

#: Usable cores a host needs before a 2x parallel speedup is asserted.
SPEEDUP_GATE_CORES = 4


@pytest.fixture
def speedup_gate():
    """Assert a multi-core wall-clock speedup where the host can show one.

    Asserts ``speedup >= 2.0`` only with at least
    ``SPEEDUP_GATE_CORES`` usable cores: a smaller host cannot
    physically show the parallel speedup.  There it warns instead, so
    the pytest summary still shows that the gate did not evaluate.
    """
    def gate(speedup):
        cores = len(os.sched_getaffinity(0))
        if cores >= SPEEDUP_GATE_CORES:
            assert speedup >= 2.0
        else:
            warnings.warn(f"speedup gate skipped: {cores} cores",
                          stacklevel=2)
    return gate
