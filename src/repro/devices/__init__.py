"""Simulated heterogeneous platform: devices, links, platforms, executors, energy."""

from .catalog import (
    PLATFORMS,
    cpu_gpu_platform,
    register_platform,
    edge_cluster_platform,
    edge_tpu_like,
    get_platform,
    gigabit_ethernet,
    lte,
    nvidia_p100,
    nvidia_p100_native,
    pcie_gen3,
    raspberry_gpu_platform,
    raspberry_pi_4,
    smartphone_cloud_platform,
    smartphone_soc,
    usb3,
    wifi_ac,
    xeon_8160_core,
)
from .batch import (
    BatchExecutionResult,
    ChainCostTables,
    GraphCostTables,
    execute_placements,
)
from .device import DeviceSpec
from .energy import EnergyBreakdown
from .grid import (
    GraphGridCostTables,
    GridCostTables,
    GridExecutionResult,
    execute_placements_grid,
)
from .host import HostExecutor
from .link import LinkSpec
from .platform import Platform
from .simulator import ExecutionRecord, SimulatedExecutor, TaskExecutionRecord
from .tables import CostTables, build_tables

__all__ = [
    "DeviceSpec",
    "LinkSpec",
    "Platform",
    "EnergyBreakdown",
    "SimulatedExecutor",
    "ExecutionRecord",
    "TaskExecutionRecord",
    "HostExecutor",
    "BatchExecutionResult",
    "ChainCostTables",
    "GraphCostTables",
    "execute_placements",
    "GridCostTables",
    "GraphGridCostTables",
    "GridExecutionResult",
    "execute_placements_grid",
    "CostTables",
    "build_tables",
    # catalog
    "xeon_8160_core",
    "nvidia_p100",
    "raspberry_pi_4",
    "smartphone_soc",
    "edge_tpu_like",
    "pcie_gen3",
    "usb3",
    "wifi_ac",
    "lte",
    "gigabit_ethernet",
    "cpu_gpu_platform",
    "raspberry_gpu_platform",
    "smartphone_cloud_platform",
    "edge_cluster_platform",
    "PLATFORMS",
    "get_platform",
    "register_platform",
]
