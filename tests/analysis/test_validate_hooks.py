"""Error-path coverage for plan construction and the validate hooks.

Satellite of the static-analysis PR: invalid ``PassPlan`` inputs must
raise ``ConfigurationError`` with actionable messages at construction,
and the ``validate=`` fail-fast hooks on the compiler and the simulator
must reject a plan nccheck objects to *before* any cycles run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import nccheck
from repro.core import compiler
from repro.core.config import NeurocubeConfig
from repro.core.context import RunContext
from repro.core.scheduler import PassPlan
from repro.core.simulator import NeurocubeSimulator
from repro.errors import ConfigurationError, PlanCheckError
from repro.experiments import runner
from repro.nn.layers import Dense
from repro.nn.network import Network


@pytest.fixture(scope="module")
def small_config() -> NeurocubeConfig:
    return NeurocubeConfig.hmc_15nm(n_channels=4, n_pe=4, n_mac=4)


@pytest.fixture(scope="module")
def small_network(small_config) -> Network:
    return Network([Dense(2 * small_config.n_pe)],
                   input_shape=(3 * small_config.n_channels,),
                   name="validate-hooks")


@pytest.fixture(scope="module")
def clean_plan(small_config, small_network):
    desc = compiler.compile_inference(
        small_network, small_config).descriptors[0]
    return nccheck._timing_plan(desc, small_config)


# -- PassPlan shape invariants at construction -----------------------------

def _plan_kwargs(n_channels: int = 2) -> dict:
    return dict(
        vault_emissions=[[] for _ in range(n_channels)],
        pe_groups=[[] for _ in range(n_channels)],
        vault_data=[np.zeros(4, dtype=np.int64)
                    for _ in range(n_channels)],
        out_addresses={},
        expected_writebacks=[0] * n_channels,
        lut=None,
        total_neurons=0,
        stream_items=0,
    )


def test_plan_accepts_consistent_shapes():
    PassPlan(**_plan_kwargs())  # must not raise


def test_plan_rejects_missing_emission_schedule():
    kwargs = _plan_kwargs()
    kwargs["vault_emissions"] = [[]]  # 1 schedule for 2 channels
    with pytest.raises(ConfigurationError) as excinfo:
        PassPlan(**kwargs)
    assert "emission" in str(excinfo.value)
    assert "every" in str(excinfo.value).lower()


def test_plan_rejects_writeback_count_mismatch():
    kwargs = _plan_kwargs()
    kwargs["expected_writebacks"] = [0, 0, 0]
    with pytest.raises(ConfigurationError) as excinfo:
        PassPlan(**kwargs)
    assert "write-back" in str(excinfo.value)


def test_plan_rejects_negative_writeback_count():
    kwargs = _plan_kwargs()
    kwargs["expected_writebacks"] = [1, -2]
    with pytest.raises(ConfigurationError) as excinfo:
        PassPlan(**kwargs)
    assert "channel 1" in str(excinfo.value)
    assert "non-negative" in str(excinfo.value)


def test_plan_rejects_negative_total_neurons():
    kwargs = _plan_kwargs()
    kwargs["total_neurons"] = -1
    with pytest.raises(ConfigurationError, match="total_neurons"):
        PassPlan(**kwargs)


def test_plan_rejects_negative_stream_items():
    kwargs = _plan_kwargs()
    kwargs["stream_items"] = -7
    with pytest.raises(ConfigurationError, match="stream_items"):
        PassPlan(**kwargs)


# -- compiler validate hook ------------------------------------------------

def test_compile_inference_validate_clean(small_config, small_network):
    program = compiler.compile_inference(small_network, small_config,
                                         validate=True)
    assert program.descriptors


def test_compile_training_validate_clean(small_config, small_network):
    program = compiler.compile_training(small_network, small_config,
                                        validate=True)
    assert program.training


def test_validate_hook_propagates_failure(small_config, small_network,
                                          monkeypatch):
    def boom(program, config, max_stream_items=0):
        raise PlanCheckError("seeded failure", violations=())

    monkeypatch.setattr(nccheck, "check_program", boom)
    with pytest.raises(PlanCheckError, match="seeded failure"):
        compiler.compile_inference(small_network, small_config,
                                   validate=True)
    # Off by default: the same compile without the flag never calls it.
    compiler.compile_inference(small_network, small_config)


def test_context_validate_toggles_hook(small_config, small_network,
                                       monkeypatch):
    calls = []
    monkeypatch.setattr(
        nccheck, "check_program",
        lambda program, config, max_stream_items=0: calls.append(1))
    with RunContext(validate=True):
        compiler.compile_inference(small_network, small_config)
        assert calls, "default-on validate hook did not run"
        # An explicit validate=False overrides the context default.
        calls.clear()
        compiler.compile_inference(small_network, small_config,
                                   validate=False)
        assert not calls


def test_runner_validate_does_not_outlive_main(small_config,
                                               small_network,
                                               monkeypatch, capsys):
    assert runner.main(["run", "table1", "--validate"]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(
        nccheck, "check_program",
        lambda program, config, max_stream_items=0: calls.append(1))
    compiler.compile_inference(small_network, small_config)
    assert not calls


def test_runner_exposes_validate_flag():
    args = runner.build_parser().parse_args(["run", "all", "--validate"])
    assert args.validate is True


def test_check_plan_flags_geometry_mismatch(small_config, clean_plan):
    """A plan scheduled for one cube fails fast against a smaller one.

    (Program-level verification re-lowers each descriptor for the
    config it is handed, so the mismatch only exists — and must be
    caught — at the plan level.)
    """
    tiny = NeurocubeConfig.hmc_15nm(n_channels=2, n_pe=2, n_mac=4)
    with pytest.raises(PlanCheckError) as excinfo:
        nccheck.check_plan(clean_plan, tiny, label="mismatched plan")
    codes = {v.code for v in excinfo.value.violations}
    assert "NC205" in codes  # routes to nodes the tiny mesh lacks


# -- simulator validate hook -----------------------------------------------

def test_run_pass_validate_rejects_bad_plan(small_config, clean_plan):
    mutated = replace(clean_plan,
                      total_neurons=clean_plan.total_neurons + 3)
    simulator = NeurocubeSimulator(small_config)
    with pytest.raises(PlanCheckError):
        simulator.run_pass(mutated, validate=True)


def test_run_pass_validate_accepts_clean_plan(small_config, clean_plan):
    simulator = NeurocubeSimulator(small_config)
    result = simulator.run_pass(clean_plan, validate=True)
    assert result.cycles > 0


# -- program-level sweep reporting -----------------------------------------

def test_verify_program_reports_all_descriptors(small_config,
                                                small_network):
    program = compiler.compile_training(small_network, small_config)
    reports = nccheck.verify_program(program, small_config)
    assert len(reports) == len(program.descriptors)
    assert all(r.checked and not r.violations for r in reports)


def test_verify_program_skips_oversized_descriptors_loudly(small_config,
                                                           small_network):
    program = compiler.compile_inference(small_network, small_config)
    reports = nccheck.verify_program(program, small_config,
                                     max_stream_items=1)
    assert all(not r.checked for r in reports)
    assert all("skipped" in r.note for r in reports)
    # Skips are visible in the JSON artifact too.
    report = nccheck.report_dict(reports)
    assert report["descriptors_skipped"] == len(reports)
