"""Benchmark: regenerate Fig. 15 (HMC vs DDR3; mesh vs fully connected).

Includes a flit-accurate cross-check of the 15(a) claim on a scaled-down
layer: the cycle simulator must also rank HMC above DDR3.
"""


from repro.core import NeurocubeConfig, NeurocubeSimulator, compile_inference
from repro.experiments import fig15_memory_noc
from repro.nn import models


def test_fig15_memory_noc():
    result = fig15_memory_noc.run()
    print()
    print(result.to_table())
    # (a) DDR3's two channels lose badly despite the higher per-channel
    # peak bandwidth.
    assert result.ddr3.throughput_gops < 0.2 * result.hmc.throughput_gops
    # (a) same aggregate bandwidth, more slower channels: never worse.
    eq = [p.throughput_gops for p in result.channel_points
          if p.label.startswith("EqBW")]
    assert eq == sorted(eq)
    # (b) the fully connected NoC closes the FC-layer no-duplication gap.
    def point(topology, duplicate):
        return next(p.throughput_gops for p in result.topology_points
                    if p.topology == topology and p.workload == "fc4096"
                    and p.duplicate == duplicate)

    assert (point("fully_connected", False)
            > 2 * point("mesh", False))


def test_fig15a_cycle_level_crosscheck():
    """Flit-accurate HMC-vs-DDR3 on a small conv layer."""

    net = models.single_conv_layer(32, 32, 5, qformat=None)
    cycles = {}
    for name, config in (("hmc", NeurocubeConfig.hmc_15nm()),
                         ("ddr3", NeurocubeConfig.ddr3())):
        desc = compile_inference(net, config).descriptors[0]
        cycles[name] = NeurocubeSimulator(config).run_descriptor(
            desc).cycles
    print(f"\ncycle-level 32x32 conv5: HMC {cycles['hmc']} cycles, "
          f"DDR3 {cycles['ddr3']} cycles "
          f"({cycles['ddr3'] / cycles['hmc']:.1f}x slower)")
    assert cycles["ddr3"] > 2 * cycles["hmc"]
