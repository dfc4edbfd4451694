"""Hardware substrate: CPU/GPU platform models and DVFS mechanics.

Replaces the paper's measured Intel/ARM CPUs (via RAPL) and NVIDIA GPUs (via
pynvml) with calibrated analytical models — the same role the paper's own
multi-node analysis tool plays for configurations it did not measure.
"""

from .cpu import (
    CPU_PLATFORMS,
    NEOVERSE_N1,
    XEON_GOLD_6448Y,
    XEON_PLATINUM_8380,
    XEON_SILVER_4316,
    CPUPlatform,
    get_cpu,
)
from .dvfs import (
    DVFSOperatingPoint,
    frequency_for_target,
    operating_point,
)
from .gpu import (
    A6000_ADA,
    GPU_PLATFORMS,
    L4,
    GPUPlatform,
    get_gpu,
    tensor_parallel_speedup,
)
from .node import NodeCluster, RetrievalNode

__all__ = [
    "CPU_PLATFORMS",
    "NEOVERSE_N1",
    "XEON_GOLD_6448Y",
    "XEON_PLATINUM_8380",
    "XEON_SILVER_4316",
    "CPUPlatform",
    "get_cpu",
    "DVFSOperatingPoint",
    "frequency_for_target",
    "operating_point",
    "A6000_ADA",
    "GPU_PLATFORMS",
    "L4",
    "GPUPlatform",
    "get_gpu",
    "tensor_parallel_speedup",
    "NodeCluster",
    "RetrievalNode",
]
