"""Surface-area measures and curvature densities.

A polytope carries its surface-area measure as finitely many atoms (facet
normal, facet area); smooth bodies carry a positive density sampled on a
spherical grid.  The split is explicit in the types so downstream integrals
are exact sums for polytopes and quadrature sums for smooth bodies, never a
silent smoothing of one into the other.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import (
    ConvexBody,
    _Polytope,
    has_curvature,
)
from .errors import DomainError, UnsupportedError
from .grids import SphericalGrid, default_grid

_POSITIVITY_RATIO = 1e-12
_MAX_SPAN = 27.7              # ~ log(1e12): max allowed decade span of h values


@dataclass(eq=False, frozen=True)
class DiscreteSurfaceMeasure:
    """Atoms (unit normal, mass); mass is the facet area."""

    normals: np.ndarray   # (m, n)
    masses: np.ndarray    # (m,)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def to_json(self) -> dict:
        atoms = [list(u) + [m] for u, m in zip(self.normals.tolist(), self.masses.tolist())]
        return {"type": "discrete", "atoms": atoms}


@dataclass(eq=False, frozen=True)
class DensitySurfaceMeasure:
    """Curvature-function density sampled on a spherical grid."""

    grid: SphericalGrid
    values: np.ndarray    # (N,) strictly positive

    @property
    def total_mass(self) -> float:
        return self.grid.integrate(self.values)

    def to_json(self) -> dict:
        return {"type": "density", "grid_id": self.grid.grid_id, "values": self.values.tolist()}


def curvature_values(K: ConvexBody, grid: SphericalGrid) -> np.ndarray:
    """Sample the curvature function f_K on the grid; fails for bodies
    without one or when positivity degenerates numerically."""
    if not has_curvature(K):
        raise DomainError(f"{type(K).__name__} has no curvature function")
    vals = np.asarray(K.curvature_values(grid.nodes), dtype=float)
    if np.min(vals) <= _POSITIVITY_RATIO * np.max(vals):
        raise DomainError("curvature function is not strictly positive on the grid")
    return vals


def _log_values(x, what):
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError(f"{what} must be finite and strictly positive")
    logs = np.log(x)
    if logs.max() - logs.min() > _MAX_SPAN:
        raise DomainError(f"{what} spans more than 12 decades; rejecting as degenerate")
    return logs


def _read_only(x):
    x.flags.writeable = False
    return x


def _grid_samples(K: ConvexBody, grid: SphericalGrid, support=True):
    """(f_K, log h_K) on the grid.  Each is sampled and checked once per body
    and grid (the key is the grid object, which the body keeps alive) and
    kept read-only on the body.  Curvature positivity is checked first; with
    support=False, log h_K is neither sampled nor checked and is None.  A
    sample that fails is not kept, so it fails again on the next call."""
    f = K._derived(("curvature", grid), lambda: _read_only(curvature_values(K, grid)))
    if not support:
        return f, None
    return f, K._derived(("log support", grid), lambda: _read_only(
        _log_values(K.support(grid.nodes), "support values")))


def surface_measure(K: ConvexBody, grid: SphericalGrid | None = None):
    """S(K, .): discrete atoms for polytopes, density for smooth bodies."""
    if isinstance(K, _Polytope):
        normals, _, areas = K.facet_data()
        return DiscreteSurfaceMeasure(normals=normals, masses=areas)
    if has_curvature(K):
        if grid is None:
            grid = default_grid(K.dim)
        return DensitySurfaceMeasure(grid=grid, values=_grid_samples(K, grid, support=False)[0])
    raise UnsupportedError(f"no surface-area measure for {type(K).__name__}")


def lp_curvature(K: ConvexBody, p: float, u):
    """f_p(K, u) = h(u)^(1-p) * f(u); defined for every real p."""
    if not has_curvature(K):
        raise DomainError(f"{type(K).__name__} has no curvature function")
    h = K.support(u)
    f = K.curvature_values(u)
    return h ** (1.0 - p) * f
