"""GPU hardware model: device specs, roofline cost model, memory footprint."""

from .costmodel import (FLOPS_PER_CELL, KernelCost, TraceCost, cost_trace,
                        device_records, kernel_time_us, predicted_mlups)
from .device import (A100_40GB, A100_80GB, CPU_XEON_32C, V100_32GB, DeviceSpec,
                     get_device)
from .memory import (DeviceOOMError, MemoryReport, grid_memory_report, mc_level_counts,
                     refined_memory_bytes, uniform_aa_max_cube, uniform_memory_bytes)

__all__ = [
    "FLOPS_PER_CELL", "KernelCost", "TraceCost", "cost_trace", "device_records",
    "kernel_time_us", "predicted_mlups",
    "A100_40GB", "A100_80GB", "CPU_XEON_32C", "V100_32GB", "DeviceSpec",
    "get_device",
    "DeviceOOMError", "MemoryReport", "grid_memory_report", "mc_level_counts",
    "refined_memory_bytes", "uniform_aa_max_cube", "uniform_memory_bytes",
]
