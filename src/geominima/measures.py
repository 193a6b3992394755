"""Surface-area measures and curvature densities.

This module is the one place that discretizes S(K, .).  A polytope carries
it as finitely many atoms (facet normal, facet area); a smooth body carries
it as its curvature density times the weights of a spherical grid.  Either
way every integral against S(K, .) is the same sum over (direction, mass),
exact for polytopes and a quadrature for smooth bodies.
"""

from dataclasses import dataclass, field

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
class SurfaceMeasure:
    """S(K, .) as masses at finitely many unit directions, with log h_K there.

    A polytope's masses are its facet areas and ``grid`` is None; a smooth
    body's masses are the grid weights times f_K at the grid nodes.  The
    directions belong to ``owner``, the grid or the polytope K."""

    directions: np.ndarray   # (m, n)
    masses: np.ndarray       # (m,)
    log_support: np.ndarray  # (m,)
    owner: object = field(repr=False)
    grid: SphericalGrid | None = None

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def log_support_of(self, Q: ConvexBody) -> np.ndarray:
        """log h_Q at the directions, kept on Q (``_log_support``)."""
        return _log_support(Q, self.directions, self.owner)

    def to_json(self) -> dict:
        if self.grid is None:
            atoms = [list(u) + [m] for u, m in zip(self.directions.tolist(), self.masses.tolist())]
            return {"type": "discrete", "atoms": atoms}
        return {"type": "density", "grid_id": self.grid.grid_id,
                "values": (self.masses / self.grid.weights).tolist()}


def _curvature_function(K: ConvexBody):
    if not has_curvature(K):
        raise DomainError(f"{type(K).__name__} has no curvature function")
    return K.curvature_values


def curvature_values(K: ConvexBody, grid: SphericalGrid) -> np.ndarray:
    """Sample the curvature function f_K on the grid; fails for bodies
    without one or when positivity degenerates numerically."""
    vals = np.asarray(_curvature_function(K)(grid.nodes), dtype=float)
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


def _log_support(Q: ConvexBody, u: np.ndarray, owner) -> np.ndarray:
    """log h_Q at the directions u of ``owner`` (a grid, or a polytope K at
    its facet normals), for any body Q.  It is taken and checked once per
    body and owner and kept read-only on the body, which holds the owner
    weakly.  A sample that fails is not kept, so it fails again."""
    return Q._derived(
        "log support", lambda: _read_only(_log_values(Q.support(u), "support values")), owner)


def _grid_samples(K: ConvexBody, grid: SphericalGrid | None = None):
    """(grid, f_K, log h_K) on the grid, the default grid of K's dimension
    when none is given.  f_K is kept like ``_log_support``.  Curvature
    positivity is checked first, so a body without a curvature function
    samples no support value."""
    if grid is None:
        grid = default_grid(K.dim)
    f = K._derived("curvature", lambda: _read_only(curvature_values(K, grid)), grid)
    return grid, f, _log_support(K, grid.nodes, grid)


def surface_measure(K: ConvexBody, grid: SphericalGrid | None = None) -> SurfaceMeasure:
    """S(K, .): the facet atoms of a polytope (``grid`` is not used), or the
    curvature density of a smooth body on the grid.  A body with neither
    raises UnsupportedError."""
    if isinstance(K, _Polytope):
        normals, offsets, areas = K.facet_data()
        return SurfaceMeasure(normals, areas, _log_values(offsets, "support values"), K)
    if not has_curvature(K):
        raise UnsupportedError(f"no surface-area measure for {type(K).__name__}")
    grid, f, log_h = _grid_samples(K, grid)
    return SurfaceMeasure(grid.nodes, grid.weights * f, log_h, grid, grid)


def lp_curvature(K: ConvexBody, p: float, u):
    """f_p(K, u) = h(u)^(1-p) * f(u); defined for every real p."""
    f = _curvature_function(K)(u)
    return K.support(u) ** (1.0 - p) * f
