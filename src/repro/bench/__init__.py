"""Benchmark harness: workloads, measurement, trace extrapolation,
perf-trajectory history (``BENCH_HISTORY.jsonl``: the ledger series of
``benchmarks/ledger`` and the figure benchmarks' lines) and its
regression gate (``python -m repro history --check``)."""

from .harness import Measurement, full_scale_mlups, measure
from .model import level_factors, scale_trace
from .workloads import (TABLE1_DISTRIBUTIONS, TABLE1_SIZES, Workload,
                        airplane_geometry, airplane_tunnel, lid_cavity, sphere_tunnel)

__all__ = ["Measurement", "full_scale_mlups", "measure",
           "level_factors", "scale_trace",
           "TABLE1_DISTRIBUTIONS", "TABLE1_SIZES", "Workload",
           "airplane_geometry", "airplane_tunnel", "lid_cavity", "sphere_tunnel"]
