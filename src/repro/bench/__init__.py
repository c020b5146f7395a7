"""Benchmark harness: workloads, measurement, trace extrapolation and
the record of ledger comparisons (``BENCH_HISTORY.jsonl``: one line per
side of every parent/change comparison made with ``benchmarks/ledger``,
printed as pairs by ``python -m repro history``)."""

from .harness import Measurement, full_scale_mlups, measure
from .model import level_factors, scale_trace
from .workloads import (TABLE1_DISTRIBUTIONS, TABLE1_SIZES, Workload,
                        airplane_geometry, airplane_tunnel, lid_cavity, sphere_tunnel)

__all__ = ["Measurement", "full_scale_mlups", "measure",
           "level_factors", "scale_trace",
           "TABLE1_DISTRIBUTIONS", "TABLE1_SIZES", "Workload",
           "airplane_geometry", "airplane_tunnel", "lid_cavity", "sphere_tunnel"]
