"""Quadrature grids on the unit sphere S^{n-1}.

Three node families, chosen by dimension:

* n = 2: uniform trapezoid rule in the angle.  Integrates trigonometric
  polynomials of degree < N exactly, spectrally accurate for smooth
  periodic integrands.
* n = 3: product of Gauss-Legendre nodes in the polar cosine and a uniform
  azimuthal rule.  Exact for spherical polynomials up to the Gauss degree.
* n >= 4: quasi-random normalized-Gaussian directions with equal weights.

Total weight always equals the surface measure n * omega_n of the sphere.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError


def unit_ball_volume(n: int) -> float:
    """Volume omega_n of the unit Euclidean ball in n dimensions."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sphere_area(n: int) -> float:
    """Surface measure of S^{n-1}, equal to n * omega_n."""
    return n * unit_ball_volume(n)


@dataclass(eq=False, frozen=True)
class SphericalGrid:
    """Immutable set of quadrature nodes and weights on the sphere.

    ``thetas`` carries the node angles of the uniform circle grid, which
    planar star bodies interpolate on and perturb in.
    """

    dim: int
    nodes: np.ndarray       # (N, dim) unit vectors
    weights: np.ndarray     # (N,) positive, sums to n * omega_n
    kind: str = "custom"
    thetas: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def grid_id(self) -> str:
        return f"{self.kind}:{self.dim}d:{self.n_nodes}"

    def integrate(self, values) -> float:
        """Quadrature sum of sampled integrand values."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def circle_interp(u, thetas, values):
    """Periodic piecewise-linear interpolation, to the directions u (rows),
    of samples taken at the uniform circle angles ``thetas``."""
    phi = np.mod(np.arctan2(u[:, 1], u[:, 0]), 2.0 * math.pi)
    return np.interp(phi, np.append(thetas, 2.0 * math.pi), np.append(values, values[0]))


def _trapezoid_circle(resolution: int) -> SphericalGrid:
    thetas = 2.0 * math.pi * np.arange(resolution) / resolution
    nodes = np.column_stack([np.cos(thetas), np.sin(thetas)])
    weights = np.full(resolution, 2.0 * math.pi / resolution)
    return SphericalGrid(2, nodes, weights, kind="trapezoid", thetas=thetas)


def _gauss_sphere(resolution: int) -> SphericalGrid:
    m = max(4, int(round(math.sqrt(resolution / 2.0))))
    x, gw = np.polynomial.legendre.leggauss(m)
    phis = 2.0 * math.pi * np.arange(2 * m) / (2 * m)
    sin_t = np.sqrt(1.0 - x ** 2)
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    nodes = np.empty((m * 2 * m, 3))
    nodes[:, 0] = np.outer(sin_t, cos_p).ravel()
    nodes[:, 1] = np.outer(sin_t, sin_p).ravel()
    nodes[:, 2] = np.repeat(x, 2 * m)
    weights = np.repeat(gw * (2.0 * math.pi / (2 * m)), 2 * m)
    return SphericalGrid(3, nodes, weights, kind="gauss-legendre")


def _quasi_gaussian_sphere(n: int, resolution: int) -> SphericalGrid:
    from scipy.stats import norm, qmc

    sampler = qmc.Halton(d=n, scramble=False)
    pts = sampler.random(resolution + 1)[1:]  # first Halton point is 0
    gauss = norm.ppf(pts)
    norms = np.linalg.norm(gauss, axis=1)
    nodes = gauss / norms[:, None]
    weights = np.full(resolution, sphere_area(n) / resolution)
    return SphericalGrid(n, nodes, weights, kind="quasi-gaussian")


@lru_cache(maxsize=32)
def make_grid(n: int, resolution: int) -> SphericalGrid:
    """Build the standard grid for dimension ``n`` at roughly ``resolution``
    nodes.  Results are cached; grids are immutable and safe to share."""
    if n < 2:
        raise InputError(f"sphere dimension must be at least 2, got {n}")
    if resolution < 8:
        raise InputError(f"grid resolution must be at least 8, got {resolution}")
    if n == 2:
        return _trapezoid_circle(resolution)
    if n == 3:
        return _gauss_sphere(resolution)
    return _quasi_gaussian_sphere(n, resolution)


DEFAULT_RESOLUTION = 4096


def default_grid(n: int, resolution: int | None = None) -> SphericalGrid:
    return make_grid(n, resolution if resolution is not None else DEFAULT_RESOLUTION)
