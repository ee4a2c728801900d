"""Benchmark: regenerate Fig. 1 (memory requirement vs on-chip capacity)."""

from repro.experiments import fig01_memory_capacity


def test_fig01_memory_capacity():
    result = fig01_memory_capacity.run()
    print()
    print(result.to_table())
    scene_totals = [r["total_bytes"] for r in result.rows
                    if r["network"] == "scene_labeling"]
    # The paper's point: requirements grow with input size and quickly
    # exceed what 1 mm^2 of on-chip SRAM/eDRAM can hold.
    assert scene_totals == sorted(scene_totals)
    assert scene_totals[-1] > 10 * result.edram_capacity_bytes
