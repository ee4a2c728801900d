"""Benchmark: regenerate Fig. 9 (PNG programming parameters)."""

from repro.experiments import fig09_network_params


def test_fig09_programming():
    result = fig09_network_params.run()
    print()
    print(result.to_table())
    # §IV-C worked example: 73,476 neurons, 49 connections/map, stride 16.
    assert result.matches_paper_example
    assert len(result.descriptors) == 7
