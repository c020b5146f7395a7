"""Workload builders for the paper's experiments (Section VI).

Each builder returns a :class:`Workload` bundling the refinement spec,
lattice/collision choice and the relaxation parameter, ready to hand to
:class:`~repro.core.simulation.Simulation`.  Paper-scale domains do not
fit a CPU-functional run, so builders take a ``scale`` factor; the
benchmarks run the scaled domain functionally and extrapolate the kernel
trace to full size with :mod:`repro.bench.model`.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE, FusionConfig
from ..grid.geometry import (AirplaneProxy, Shape, Sphere, enforce_shell_separation,
                             shell_refinement, voxelize, wall_refinement)
from ..grid.multigrid import DomainBC, FaceBC, RefinementSpec

__all__ = ["Workload", "lid_cavity", "sphere_tunnel", "cylinder_channel",
           "airplane_tunnel",
           "TABLE1_SIZES", "TABLE1_DISTRIBUTIONS", "ALL_CONFIGS",
           "SMALL_WORKLOADS"]

#: Every fusion configuration the gates and sweeps cover: the original
#: (Fig. 4a) baseline plus the Fig. 9 ablation.
ALL_CONFIGS: tuple[FusionConfig, ...] = (ORIGINAL_BASELINE,) + ABLATION_CONFIGS

#: Named lid cavities small enough for functional runs; a name is one
#: domain in every command (``repro analysis``, ``report``,
#: ``resilience``, the drift sweep).  ``cavity2d`` is the Fig. 2 golden
#: setup: 29 (baseline-4b) / 10 (ours-4f) kernels per coarse step.
SMALL_WORKLOADS: dict[str, dict] = {
    "cavity2d": dict(base=(24, 24), num_levels=3, lattice="D2Q9",
                     widths=[7.0, 2.0]),
    "cavity2d-2lvl": dict(base=(20, 20), num_levels=2, lattice="D2Q9"),
    "cavity3d-2lvl": dict(base=(10, 10, 10), num_levels=2, lattice="D3Q19"),
    "cavity3d-3lvl": dict(base=(12, 12, 12), num_levels=3, lattice="D3Q19"),
}

#: The finest-level domain sizes of Table I.
TABLE1_SIZES = ((272, 192, 272), (544, 384, 544), (816, 576, 816))
#: Active-voxel distributions of Table I, finest level first (x 10^6).
TABLE1_DISTRIBUTIONS = ((0.602e6, 0.296e6, 0.175e6),
                        (4.81e6, 2.37e6, 1.40e6),
                        (16.25e6, 8.0e6, 4.74e6))


@dataclass
class Workload:
    """A fully specified simulation setup."""

    name: str
    spec: RefinementSpec
    lattice: str
    collision: str
    viscosity: float
    char_velocity: float
    reynolds: float
    description: str = ""
    obstacle: Shape | None = None

    def finest_shape(self) -> tuple[int, ...]:
        return self.spec.level_shape(self.spec.num_levels - 1)

    def sim_config(self, **overrides):
        """The workload's physics as a :class:`~repro.core.config.SimConfig`.

        ``overrides`` (fusion, threaded, backend, ...) are folded in, so
        ``Simulation.from_config(wl.spec, wl.sim_config(fusion=cfg))`` is
        the one-line way to instantiate any benchmark setup.
        """
        from ..core.config import SimConfig
        return SimConfig(lattice=self.lattice, collision=self.collision,
                         viscosity=self.viscosity, **overrides)


def lid_cavity(base: tuple[int, ...] = (24, 24, 24), num_levels: int = 3,
               reynolds: float = 100.0, lid_speed: float = 0.06,
               lattice: str = "D3Q19", collision: str = "bgk",
               widths: list[float] | None = None,
               block_size: int = 4) -> Workload:
    """Lid-driven cavity with wall-hugging refinement (Figs. 6-7).

    The lid (top face of the last axis) moves along +x; all other faces
    are resting no-slip walls.  ``reynolds = lid_speed * edge / nu`` with
    the edge length measured in coarse cells.
    """
    d = len(base)
    if widths is None:
        # geometric shells: each level halves the band width
        w0 = max(2.5, min(base) / 5.0)
        widths = enforce_shell_separation([w0 / (2 ** k)
                                           for k in range(num_levels - 1)])
    regions = wall_refinement(base, num_levels, widths) if num_levels > 1 else []
    lid_axis = f"{'xyz'[d - 1]}+"
    vel = tuple([lid_speed] + [0.0] * (d - 1))
    bc = DomainBC({lid_axis: FaceBC("moving", velocity=vel)})
    nu = lid_speed * base[0] / reynolds
    return Workload(
        name=f"cavity-{'x'.join(map(str, base))}-L{num_levels}",
        spec=RefinementSpec(base_shape=base, refine_regions=regions, bc=bc,
                            block_size=block_size),
        lattice=lattice, collision=collision, viscosity=nu,
        char_velocity=lid_speed, reynolds=reynolds,
        description="lid-driven cavity, halfway bounce-back walls + moving lid")


def sphere_tunnel(finest_shape: tuple[int, int, int] = TABLE1_SIZES[0],
                  scale: float = 1.0, num_levels: int = 3,
                  reynolds: float = 4000.0, inlet_speed: float = 0.05,
                  lattice: str = "D3Q27", collision: str = "kbc",
                  block_size: int = 4) -> Workload:
    """Virtual wind tunnel with a sphere (Table I, Figs. 8-9).

    ``finest_shape`` is the tunnel size expressed at the finest level, as
    in Table I; ``scale`` shrinks it for functional runs.  Inlet at x-,
    outflow at x+, no-slip side walls; sphere no-slip by halfway
    bounce-back.  ``reynolds = inlet_speed * R / nu`` (paper, Fig. 8).
    """
    fine_factor = 2 ** (num_levels - 1)
    base = tuple(max(int(round(s * scale)) // fine_factor, 8) for s in finest_shape)
    # Sphere a third of the way downstream, sized relative to the tunnel
    # cross-section; shells sized to keep interfaces legally separated.
    cx = base[0] / 3.0
    cy, cz = base[1] / 2.0, base[2] / 2.0
    radius = 0.11 * min(base[1], base[2])
    sphere = Sphere((cx, cy, cz), radius)
    widths = enforce_shell_separation([radius * 2.2 / (2 ** k)
                                       for k in range(num_levels - 1)])
    regions = shell_refinement(sphere, base, num_levels, widths) if num_levels > 1 else []
    solid = voxelize(sphere, tuple(s * fine_factor for s in base), num_levels - 1)
    bc = DomainBC({"x-": FaceBC("inlet", velocity=(inlet_speed, 0.0, 0.0)),
                   "x+": FaceBC("outflow")})
    nu = inlet_speed * radius * fine_factor / reynolds  # R in coarse units -> finest
    nu = max(nu, 1e-4)
    return Workload(
        name=f"sphere-{'x'.join(map(str, finest_shape))}-s{scale:g}",
        spec=RefinementSpec(base_shape=base, refine_regions=regions, solid=solid,
                            bc=bc, block_size=block_size),
        lattice=lattice, collision=collision, viscosity=nu,
        char_velocity=inlet_speed, reynolds=reynolds,
        description="flow over a sphere in a virtual wind tunnel",
        obstacle=sphere)


def cylinder_channel(reynolds: float = 20.0, blockage: float = 0.25,
                     num_levels: int = 3) -> Workload:
    """Flow past a circular cylinder in a 2-D channel, the usual validation
    case of LBM codes with refinement; D2Q9 BGK.

    The cylinder, ``D = 8`` coarse cells across, sits on the channel's
    centre line a quarter of the way downstream; the channel is
    ``D / blockage`` high and four times as long.  Uniform inlet at
    ``U = 0.05`` at x-, outflow at x+, free-slip sides, so the domain is
    mirror symmetric about the centre line.  Shells of width
    ``1.2 D / 2^k`` refine around the body.  ``reynolds = U D / nu`` with
    ``D`` and ``nu`` in coarse units.
    """
    diameter, inlet_speed = 8, 0.05
    fine_factor = 2 ** (num_levels - 1)
    height = int(round(diameter / blockage))
    base = (4 * height, height)
    cylinder = Sphere((base[0] / 4.0, base[1] / 2.0), diameter / 2.0)
    widths = enforce_shell_separation([1.2 * diameter / 2 ** k
                                       for k in range(num_levels - 1)])
    regions = shell_refinement(cylinder, base, num_levels, widths) if num_levels > 1 else []
    solid = voxelize(cylinder, tuple(s * fine_factor for s in base), num_levels - 1)
    bc = DomainBC({"x-": FaceBC("inlet", velocity=(inlet_speed, 0.0)),
                   "x+": FaceBC("outflow"), "y-": FaceBC("slip"), "y+": FaceBC("slip")})
    return Workload(
        name=f"cylinder-re{reynolds:g}-b{blockage:g}-L{num_levels}",
        spec=RefinementSpec(base_shape=base, refine_regions=regions, solid=solid,
                            bc=bc, block_size=4),
        lattice="D2Q9", collision="bgk",
        viscosity=inlet_speed * diameter / reynolds,
        char_velocity=inlet_speed, reynolds=reynolds,
        description="flow past a cylinder in a slip-walled channel",
        obstacle=cylinder)


def airplane_geometry(finest_shape: tuple[int, int, int] = (1596, 840, 840),
                      scale: float = 1.0, num_levels: int = 4):
    """Geometry of the Fig.-1 workload without building any grid masks.

    Returns ``(base_shape, airplane_proxy, shell_widths)`` — all the
    analytic memory/capability experiments need.  Use this (not
    :func:`airplane_tunnel`) at ``scale=1.0``: voxelising the full
    1596x840x840 domain would need tens of GB of host memory.
    """
    fine_factor = 2 ** (num_levels - 1)
    base = tuple(max(int(round(s * scale)) // fine_factor, 10) for s in finest_shape)
    length = 0.45 * base[0]
    plane = AirplaneProxy((base[0] / 2.2, base[1] / 2.0, base[2] / 2.0), length)
    widths = enforce_shell_separation([length * 0.18 / (2.7 ** k)
                                       for k in range(num_levels - 1)])
    return base, plane, widths


def airplane_tunnel(finest_shape: tuple[int, int, int] = (1596, 840, 840),
                    scale: float = 1.0, num_levels: int = 4,
                    inlet_speed: float = 0.05, reynolds: float = 1e5,
                    lattice: str = "D3Q27", collision: str = "kbc",
                    block_size: int = 4) -> Workload:
    """The Fig.-1 capability experiment: an aircraft in a 1596x840x840 tunnel.

    The paper's aircraft mesh is proprietary; :class:`AirplaneProxy`
    substitutes a primitive-composed airframe with the same role — a
    slender body that concentrates fine voxels in a small fraction of the
    tunnel (see DESIGN.md).  Use ``scale`` << 1 for functional runs; the
    memory benchmark evaluates the full size analytically.
    """
    # Thin shells hugging the airframe: this is what makes the Fig.-1
    # domain fit a 40 GB card (~18 GB at full scale, see the memory bench).
    fine_factor = 2 ** (num_levels - 1)
    base, plane, widths = airplane_geometry(finest_shape, scale, num_levels)
    length = 0.45 * base[0]
    regions = shell_refinement(plane, base, num_levels, widths) if num_levels > 1 else []
    solid = voxelize(plane, tuple(s * fine_factor for s in base), num_levels - 1)
    bc = DomainBC({"x-": FaceBC("inlet", velocity=(inlet_speed, 0.0, 0.0)),
                   "x+": FaceBC("outflow")})
    chord = length * fine_factor
    nu = max(inlet_speed * chord / reynolds, 1e-4)
    return Workload(
        name=f"airplane-{'x'.join(map(str, finest_shape))}-s{scale:g}",
        spec=RefinementSpec(base_shape=base, refine_regions=regions, solid=solid,
                            bc=bc, block_size=block_size),
        lattice=lattice, collision=collision, viscosity=nu,
        char_velocity=inlet_speed, reynolds=reynolds,
        description="airflow over an airplane proxy in a virtual wind tunnel",
        obstacle=plane)
