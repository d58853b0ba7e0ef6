"""Simulation: offline replay drivers, run metrics, and the process pool.

Online runs go through :class:`repro.stream.engine.StreamEngine`.
"""

from repro.simulation.engine import (
    run_offline,
    run_sequential_capacitated,
)
from repro.simulation.metrics import (
    OfflineRunStats,
    ResilienceRunStats,
)
from repro.simulation.parallel import (
    default_workers,
    parallel_map,
    set_default_workers,
)

__all__ = [
    "run_offline",
    "run_sequential_capacitated",
    "default_workers",
    "parallel_map",
    "set_default_workers",
    "OfflineRunStats",
    "ResilienceRunStats",
]
