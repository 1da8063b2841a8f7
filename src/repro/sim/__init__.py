"""Trace-driven multicore timing simulator substrate."""

from repro.sim.config import SystemConfig
from repro.sim.trace import (
    KIND_BY_CODE,
    KIND_CODES,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_SW_PREFETCH,
    AccessKind,
    Trace,
    TraceBuilder,
)
from repro.sim.stats import CoreStats, SystemStats
from repro.sim.system import System, SimulationResult, build_system, run_workload

__all__ = [
    "AccessKind",
    "CoreStats",
    "KIND_BY_CODE",
    "KIND_CODES",
    "OP_COMPUTE",
    "OP_LOAD",
    "OP_STORE",
    "OP_SW_PREFETCH",
    "SimulationResult",
    "System",
    "SystemConfig",
    "SystemStats",
    "Trace",
    "TraceBuilder",
    "build_system",
    "run_workload",
]
