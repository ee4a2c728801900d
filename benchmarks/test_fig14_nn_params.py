"""Benchmark: regenerate Fig. 14 (kernel-size and hidden-width sweeps)."""

from repro.experiments import fig14_nn_params


def test_fig14_nn_params():
    result = fig14_nn_params.run()
    print()
    print(result.to_table())
    # (a) without duplication, larger kernels cost throughput.
    nodup = [p.throughput_gops for p in result.points("kernel", False)]
    assert nodup == sorted(nodup, reverse=True)
    # (b) with duplication throughput is flat but halo memory grows.
    dup = [p.throughput_gops for p in result.points("kernel", True)]
    assert max(dup) / min(dup) < 1.1
    overheads = [p.memory_overhead for p in result.points("kernel", True)]
    assert overheads == sorted(overheads)
    # (c) lateral traffic is high but constant in hidden width.
    lateral = {round(p.lateral_fraction, 3)
               for p in result.points("hidden", False)}
    assert len(lateral) == 1
    # (d) duplicated-input share of memory shrinks as weights grow.
    share = [p.memory_overhead for p in result.points("hidden", True)]
    assert share == sorted(share, reverse=True)
