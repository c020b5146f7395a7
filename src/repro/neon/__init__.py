"""Mini-Neon programming-model substrate: runtime, trace, dependency graphs."""

from .executor import WavePool, default_workers
from .graph import (ConflictPair, build_dependency_graph, graph_stats,
                    iter_conflict_pairs, schedule_records, schedule_waves,
                    stream_assignment)
from .runtime import FieldRef, KernelRecord, Runtime

__all__ = ["ConflictPair", "build_dependency_graph", "graph_stats",
           "iter_conflict_pairs", "schedule_records", "schedule_waves",
           "stream_assignment", "FieldRef", "KernelRecord", "Runtime",
           "WavePool", "default_workers"]
