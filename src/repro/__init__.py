"""repro — GPU-optimized grid refinement for the lattice Boltzmann method.

A full reproduction of Mahmoud, Salehipour & Meneghin, *Optimized GPU
Implementation of Grid Refinement in Lattice Boltzmann Method* (IPDPS
2024): the volume-based multi-resolution LBM algorithm, the block-sparse
grid stack, the mini-Neon kernel runtime, every kernel-fusion variant of
the paper's Figure 4, and an A100 performance/memory model that stands in
for the GPU hardware.

Quickstart::

    from repro import SimConfig, Simulation, RefinementSpec, wall_refinement

    spec = RefinementSpec(base_shape=(24, 24, 24),
                          refine_regions=wall_refinement((24, 24, 24), 2, [4.0]))
    sim = Simulation.from_config(spec, SimConfig(lattice="D3Q19",
                                                 viscosity=0.05))
    sim.run(100)
"""

from .core import (ABLATION_CONFIGS, BGK, D2Q9, D3Q19, D3Q27, FUSED_FULL, KBC, TRT,
                   drag_coefficient, kinetic_energy, legalize_regions, regrid,
                   solid_force, vorticity_indicator,
                   MODIFIED_BASELINE, ORIGINAL_BASELINE, Engine, FlowScales,
                   FusionConfig, Lattice, NonUniformStepper, RunResult, SimConfig,
                   Simulation, get_config, get_lattice, mlups, omega_at_level,
                   omega_from_viscosity)
from .backend import (Backend, CompiledBackend, InterpretedBackend,
                      PlanAdmissionError, StepPlan,
                      available_backends, make_backend, resolve_backend)
from .grid import (AirplaneProxy, BlockSparseGrid, Box, DomainBC, Ellipsoid, FaceBC,
                   MultiGrid, RefinementSpec, Shape, Sphere, build_multigrid,
                   shell_refinement, voxelize, wall_refinement)
from .neon import Runtime, build_dependency_graph, graph_stats

__version__ = "1.0.0"

__all__ = [
    "ABLATION_CONFIGS", "BGK", "D2Q9", "D3Q19", "D3Q27", "FUSED_FULL", "KBC", "TRT",
    "MODIFIED_BASELINE", "ORIGINAL_BASELINE", "Engine", "FlowScales",
    "FusionConfig", "Lattice", "NonUniformStepper", "RunResult", "SimConfig",
    "Simulation",
    "get_config", "get_lattice", "mlups", "omega_at_level", "omega_from_viscosity",
    "AirplaneProxy", "BlockSparseGrid", "Box", "DomainBC", "Ellipsoid", "FaceBC",
    "MultiGrid", "RefinementSpec", "Shape", "Sphere", "build_multigrid",
    "shell_refinement", "voxelize", "wall_refinement",
    "legalize_regions", "regrid", "vorticity_indicator",
    "drag_coefficient", "kinetic_energy", "solid_force",
    "Runtime", "build_dependency_graph", "graph_stats",
    "Backend", "CompiledBackend", "InterpretedBackend",
    "PlanAdmissionError", "StepPlan", "available_backends", "make_backend",
    "resolve_backend",
    "__version__",
]
