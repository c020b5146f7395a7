"""Implicit geometry used to set up domains, obstacles and refinement regions.

Shapes are signed predicates over *continuous* coordinates; voxelisation
samples cell centres at a requested resolution level.  The helpers at the
bottom build the nested refinement regions used by the paper's experiments
(shells of finer resolution hugging an obstacle or the domain walls).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Shape", "Sphere", "Box", "Ellipsoid", "Union", "AirplaneProxy",
    "cell_centers", "voxelize", "distance_field",
    "shell_refinement", "wall_refinement", "enforce_shell_separation",
]


class Shape:
    """Base class: subclasses implement a vectorised signed distance."""

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance of points ``(N, d)``: negative inside."""
        raise NotImplementedError

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.sdf(pts) < 0.0

    def __or__(self, other: "Shape") -> "Union":
        return Union((self, other))


@dataclass(frozen=True)
class Sphere(Shape):
    """Ball of the given radius (works in any dimension)."""

    center: tuple[float, ...]
    radius: float

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=np.float64)
        return np.linalg.norm(pts - c, axis=1) - self.radius


@dataclass(frozen=True)
class Box(Shape):
    """Axis-aligned box given by its two opposite corners."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        q = np.abs(pts - center) - half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        return outside + inside


@dataclass(frozen=True)
class Ellipsoid(Shape):
    """Axis-aligned ellipsoid (approximate SDF, exact sign)."""

    center: tuple[float, ...]
    radii: tuple[float, ...]

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=np.float64)
        r = np.asarray(self.radii, dtype=np.float64)
        k = np.linalg.norm((pts - c) / r, axis=1)
        return (k - 1.0) * r.min()


@dataclass(frozen=True)
class Union(Shape):
    """Boolean union of shapes."""

    parts: tuple[Shape, ...]

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        d = self.parts[0].sdf(pts)
        for p in self.parts[1:]:
            np.minimum(d, p.sdf(pts), out=d)
        return d


@dataclass(frozen=True)
class AirplaneProxy(Shape):
    """A stand-in for the paper's aircraft model (Fig. 1).

    The real mesh is not available, so we compose an ellipsoidal fuselage,
    swept main wings and a tail fin from primitive shapes.  The proxy
    matches what the capability experiment needs: a slender body whose
    refinement shells concentrate the fine voxels in a small fraction of
    the virtual wind tunnel.  Dimensions are relative to ``length``.
    """

    center: tuple[float, float, float]
    length: float
    _shape: Shape = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        cx, cy, cz = self.center
        ln = self.length
        fuselage = Ellipsoid((cx, cy, cz), (0.50 * ln, 0.055 * ln, 0.055 * ln))
        wings = Ellipsoid((cx, cy, cz), (0.09 * ln, 0.42 * ln, 0.012 * ln))
        tail_h = Ellipsoid((cx + 0.42 * ln, cy, cz), (0.06 * ln, 0.15 * ln, 0.010 * ln))
        tail_v = Ellipsoid((cx + 0.42 * ln, cy, cz + 0.08 * ln),
                           (0.06 * ln, 0.010 * ln, 0.10 * ln))
        object.__setattr__(self, "_shape", Union((fuselage, wings, tail_h, tail_v)))

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        return self._shape.sdf(pts)


# -- voxelisation ----------------------------------------------------------

#: Bytes of cell-centre coordinates one shape evaluation is handed.
_SLAB_BYTES = 4 << 20


def cell_centers(shape: tuple[int, ...], level: int,
                 rows: slice = slice(None)) -> np.ndarray:
    """Cell-centre coordinates of a level-``level`` grid, in *coarse* units.

    A level-L cell has size ``2^-L``; centres sit at ``(i + 0.5) * 2^-L``.
    Returns an array of shape ``shape + (d,)``, cut to ``rows`` along axis 0.
    """
    h = 2.0 ** (-level)
    axes = [(np.arange(n) + 0.5) * h for n in shape]
    mesh = np.meshgrid(axes[0][rows], *axes[1:], indexing="ij")
    return np.stack(mesh, axis=-1)


def _sample(fn, grid_shape: tuple[int, ...], level: int, dtype) -> np.ndarray:
    """``fn(points)`` at every cell centre, one slab along axis 0 at a time.

    A whole box of centres is ``8 d`` bytes per cell and an SDF makes several
    temporaries that size; a point's value does not depend on its slab.
    """
    d = len(grid_shape)
    out = np.empty(grid_shape, dtype=dtype)
    step = max(1, _SLAB_BYTES // (8 * d * max(1, out[:1].size)))
    for lo in range(0, grid_shape[0], step):
        pts = cell_centers(grid_shape, level, slice(lo, lo + step))
        out[lo:lo + step] = fn(pts.reshape(-1, d)).reshape(pts.shape[:-1])
    return out


def voxelize(shape_obj: Shape, grid_shape: tuple[int, ...], level: int) -> np.ndarray:
    """Boolean mask of level-``level`` cells whose centre lies inside the shape."""
    return _sample(shape_obj.contains, grid_shape, level, bool)


def distance_field(shape_obj: Shape, grid_shape: tuple[int, ...], level: int) -> np.ndarray:
    """Signed distance (coarse units) sampled at cell centres."""
    return _sample(shape_obj.sdf, grid_shape, level, np.float64)


# -- refinement-region builders ---------------------------------------------

def enforce_shell_separation(widths: list[float]) -> list[float]:
    """Clamp decreasing shell widths to legal interface spacing.

    ``build_multigrid`` requires (a) at least one unrefined parent cell
    between successive interfaces and (b) the coarse-ghost layer's
    children to stay unrefined — together roughly three level-(k+1) cells
    of clearance between the interfaces at ``widths[k]`` and
    ``widths[k+1]``.  Widths are widened from the innermost shell
    outwards until the clearance holds, which keeps tiny scaled-down
    workload instances valid.
    """
    w = [float(v) for v in widths]
    for k in range(len(w) - 1, -1, -1):
        # smallest useful shell: ~1.5 cells of the level being created
        w[k] = max(w[k], 1.5 * 2.0 ** -k)
        if k + 1 < len(w):
            # interface clearance: a level-k diagonal neighbour offset
            # (sqrt(3) cells) plus the child-centre offset (sqrt(3)/4),
            # with margin for sampling jitter.
            w[k] = max(w[k], w[k + 1] + 2.75 * 2.0 ** -k)
    return w

def shell_refinement(obstacle: Shape, base_shape: tuple[int, ...],
                     num_levels: int, widths: list[float]) -> list[np.ndarray]:
    """Nested refinement regions as distance shells around an obstacle.

    ``widths[k]`` is the distance (coarse units) within which resolution is
    at least level ``k + 1``; widths must be strictly decreasing so regions
    nest.  Returns the ``refine_regions`` list for
    :class:`repro.grid.multigrid.RefinementSpec`: entry ``k`` lives at
    level-``k`` resolution and flags the level-``k`` cells to subdivide.
    """
    if len(widths) != num_levels - 1:
        raise ValueError(f"need {num_levels - 1} widths, got {len(widths)}")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly decreasing so shells nest")
    regions = []
    for lvl, w in enumerate(widths):  # region at level `lvl` resolution
        shp = tuple(n * 2 ** lvl for n in base_shape)
        dist = distance_field(obstacle, shp, lvl)
        regions.append(dist < w)
    return regions


def wall_refinement(base_shape: tuple[int, ...], num_levels: int,
                    widths: list[float]) -> list[np.ndarray]:
    """Refinement shells hugging all domain walls (lid-driven cavity, Fig. 6).

    ``widths[k]`` is the distance from any wall (coarse units) within which
    resolution is at least level ``k + 1``.
    """
    if len(widths) != num_levels - 1:
        raise ValueError(f"need {num_levels - 1} widths, got {len(widths)}")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly decreasing so shells nest")
    regions = []
    for lvl, w in enumerate(widths):
        shp = tuple(n * 2 ** lvl for n in base_shape)
        centers = cell_centers(shp, lvl)
        dims = np.asarray(base_shape, dtype=np.float64)
        dist_lo = centers.min(axis=-1)
        dist_hi = (dims - centers).min(axis=-1)
        wall_dist = np.minimum(dist_lo, dist_hi)
        regions.append(wall_dist < w)
    return regions
