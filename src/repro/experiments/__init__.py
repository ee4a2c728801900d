"""Experiment harness: one module per paper table/figure.

Each experiment module exposes a ``run()`` returning a result object with
a ``to_table()`` string, and registers itself in
:mod:`repro.experiments.registry`.  The CLI
(``python -m repro.experiments.runner``) runs them by id.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
paper-vs-measured record these harnesses regenerate.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, register

# Importing the modules registers them.
from repro.experiments import (  # noqa: E402  (registration imports)
    ext_lstm,
    ext_scaling,
    ext_shard,
    ext_stream,
    fig01_memory_capacity,
    fig09_network_params,
    fig12_inference,
    fig13_training,
    fig14_nn_params,
    fig15_memory_noc,
    fig17_thermal,
    fig_resilience,
    table1_memory_specs,
    table2_hardware,
    table3_comparison,
)

__all__ = [
    "EXPERIMENTS",
    "register",
    "get_experiment",
    "ext_lstm",
    "ext_scaling",
    "ext_shard",
    "ext_stream",
    "fig01_memory_capacity",
    "fig09_network_params",
    "fig12_inference",
    "fig13_training",
    "fig14_nn_params",
    "fig15_memory_noc",
    "fig17_thermal",
    "fig_resilience",
    "table1_memory_specs",
    "table2_hardware",
    "table3_comparison",
]
