"""The Neurocube core: the paper's primary contribution.

This package implements memory-centric neural computing (§IV-§V): the
programmable neurosequence generator (PNG) with its three-counter FSM and
Eq. 4/5 address generation, the processing element with temporal buffer,
OP-counter and 16-sub-bank cache, the host/global controller that programs
one layer at a time, a flit-accurate system simulator, and a calibrated
analytic performance model for paper-scale networks.
"""

from repro.core.config import NeurocubeConfig
from repro.core.layerdesc import LayerDescriptor, NeurocubeProgram, Phase
from repro.core.compiler import compile_inference, compile_training
from repro.core.context import MemoDir, RunContext
from repro.core.mac import MACUnit
from repro.core.png import AddressGenerator, PNGRegisters, NeurosequenceGenerator
from repro.core.host import (
    HostController,
    HostSchedule,
    registers_for_descriptor,
)
from repro.core.parallel import (
    MapOutcome,
    MapTask,
    ParallelPassExecutor,
    SubPassSpec,
)
from repro.core.pe import ProcessingElement
from repro.core.simulator import LayerRun, NeurocubeSimulator, PassResult
from repro.core.analytic import AnalyticModel
from repro.core.metrics import LayerStats, RunReport, StreamReport
from repro.core.calibration import CalibrationResult, calibrate
from repro.core.multicube import (
    MultiCubeConfig,
    MultiCubeModel,
    MultiCubeReport,
)
from repro.core.roofline import RooflineModel, RooflineReport
from repro.core.shard import (
    CubeLinkExchange,
    CubeSlice,
    ShardPlan,
    ShardRunReport,
    ShardedLayer,
    ShardedSimulator,
    shard_network,
)

__all__ = [
    "NeurocubeConfig",
    "LayerDescriptor",
    "NeurocubeProgram",
    "Phase",
    "compile_inference",
    "compile_training",
    "MemoDir",
    "RunContext",
    "MACUnit",
    "PNGRegisters",
    "AddressGenerator",
    "NeurosequenceGenerator",
    "ProcessingElement",
    "NeurocubeSimulator",
    "LayerRun",
    "ParallelPassExecutor",
    "MapTask",
    "MapOutcome",
    "PassResult",
    "SubPassSpec",
    "AnalyticModel",
    "LayerStats",
    "RunReport",
    "StreamReport",
    "CalibrationResult",
    "calibrate",
    "MultiCubeConfig",
    "MultiCubeModel",
    "MultiCubeReport",
    "HostController",
    "HostSchedule",
    "registers_for_descriptor",
    "RooflineModel",
    "RooflineReport",
    "CubeLinkExchange",
    "CubeSlice",
    "ShardPlan",
    "ShardRunReport",
    "ShardedLayer",
    "ShardedSimulator",
    "shard_network",
]
