"""Scalar functionals: p-mixed volumes, p-surface areas, volume products,
affine surface areas, curvature images, and membership tests.

Fractional powers are combined in log space throughout, so exponents far
from zero and widely spread support values do not overflow.  Every integral
against S(K, .) is a sum over ``measures.surface_measure``: exact for a
polytope, a quadrature for a smooth body.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, Ellipsoid, ball, is_centered_ellipsoid
from .errors import DomainError, InputError, UnsupportedError
from .grids import SphericalGrid, circle_interp, unit_ball_volume
from .measures import _grid_samples, _log_values, surface_measure

EXCLUDED_ORDER_TOL = 1e-6     # band around p = -n where functionals blow up


def _finite_order(p: float):
    if not math.isfinite(p):
        raise InputError(f"order p = {p} is not a finite number")


def _guard_order(p: float, n: int):
    _finite_order(p)
    if abs(p + n) < EXCLUDED_ORDER_TOL:
        raise DomainError(f"order p = {p} is excluded (too close to -n = {-n})")


def logsumexp(a):
    """Minimal single-array log-sum-exp; avoids per-call dispatch overhead."""
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + math.log(np.sum(np.exp(a - m))))


def log_objective(n: int, p: float, log_vp: float, log_polar_volume: float) -> float:
    """log of n V_p(K, Q)^{n/(n+p)} |Q polar|^{p/(n+p)} from log V_p(K, Q)
    and log |Q polar|; the variational form passes a star body L = Q polar."""
    return math.log(n) + (n / (n + p)) * log_vp + (p / (n + p)) * log_polar_volume


@dataclass(eq=False, frozen=True)
class StarBody:
    """Star-shaped set about the origin, known through positive radial
    samples on a spherical grid."""

    grid: SphericalGrid
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (self.grid.n_nodes,):
            raise InputError("radial samples must match the grid")
        if np.any(rho <= 0) or np.any(~np.isfinite(rho)):
            raise InputError("radial function must be positive and finite")

    def volume(self) -> float:
        return self.grid.integrate(self.rho ** self.grid.dim) / self.grid.dim

    def radial_at(self, u):
        """Radial values at arbitrary directions.

        Exact at grid nodes; in the plane, off-node directions are
        interpolated periodically.  In higher dimensions the directions must
        coincide with grid nodes."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if self.grid.dim == 2 and self.grid.thetas is not None:
            return circle_interp(u, self.grid.thetas, self.rho)
        dots = u @ self.grid.nodes.T
        idx = np.argmax(dots, axis=1)
        if np.any(dots[np.arange(len(idx)), idx] < 1.0 - 1e-9):
            raise InputError("directions do not match the star body's grid nodes")
        return self.rho[idx]


def log_n_mixed_volume_p(K: ConvexBody, Q: ConvexBody, p: float,
                         grid: SphericalGrid | None = None) -> float:
    """log of n * V_p(K, Q), from the integral of h_Q^p h_K^{1-p} dS(K, .)."""
    _finite_order(p)
    sm = surface_measure(K, grid)
    log_hq = sm.log_support_of(Q)
    return float(logsumexp(p * log_hq + (1.0 - p) * sm.log_support + np.log(sm.masses)))


def mixed_volume_p(K: ConvexBody, Q: ConvexBody, p: float,
                   grid: SphericalGrid | None = None) -> float:
    """V_p(K, Q); exact atom sum for polytope K, quadrature otherwise.
    V_p(K, K) equals the volume of K for every p."""
    return math.exp(log_n_mixed_volume_p(K, Q, p, grid)) / K.dim


def mixed_volume_p_star(K: ConvexBody, L: StarBody, p: float,
                        grid: SphericalGrid | None = None) -> float:
    """V_p(K, L*) = (1/n) integral of rho_L^{-p} h_K^{1-p} dS(K, .).

    Consistent with ``mixed_volume_p`` when L samples a convex body, via
    rho_L * h_{L polar} = 1."""
    _finite_order(p)
    sm = surface_measure(K, L.grid if grid is None else grid)
    if sm.grid is None:
        rho = L.radial_at(sm.directions)
    elif sm.grid.grid_id != L.grid.grid_id:
        raise InputError("star body grid does not match the evaluation grid")
    else:
        rho = L.rho
    log_rho = _log_values(rho, "radial values")
    val = logsumexp(-p * log_rho + (1.0 - p) * sm.log_support + np.log(sm.masses))
    return math.exp(val) / K.dim


def p_surface_area(K: ConvexBody, p: float, grid: SphericalGrid | None = None) -> float:
    """S_p(K) = n V_p(K, B); S_1 is the ordinary surface area."""
    return K.dim * mixed_volume_p(K, ball(K.dim), p, grid)


def mahler(K: ConvexBody) -> float:
    """Volume product |K| |K*|; invariant under invertible linear maps."""
    return K.volume() * K.polar().volume()


def _log_asp(K, p, grid):
    n = K.dim
    _guard_order(p, n)
    grid, f, log_h = _grid_samples(K, grid)
    log_fp = (1.0 - p) * log_h + np.log(f)
    return grid, float(logsumexp((n / (n + p)) * log_fp + np.log(grid.weights))), log_fp


def affine_surface_area_p(K: ConvexBody, p: float,
                          grid: SphericalGrid | None = None) -> float:
    """Integral of f_p(K, .)^{n/(n+p)} over the sphere; equals n|K| at p = 0."""
    _, log_as, _ = _log_asp(K, p, grid)
    return math.exp(log_as)


@dataclass(eq=False, frozen=True)
class VariationalResult:
    """Outcome of the variational form: attained value, the optimizing star
    body, and objective values at random trial bodies (for spot-checking
    that the optimizer is a true inf/sup)."""

    value: float
    optimizer: StarBody
    trial_values: np.ndarray


def affine_surface_area_p_variational(K: ConvexBody, p: float,
                                      grid: SphericalGrid | None = None,
                                      trials: int = 0, seed: int = 0) -> VariationalResult:
    """Optimize n V_p(K, L*)^{n/(n+p)} |L|^{p/(n+p)} over star bodies L.

    The optimizer has the closed form rho = f_p^{1/(n+p)}; the attained
    value coincides with the integral form.  ``trials`` extra random star
    bodies are evaluated so callers can verify the bound direction."""
    n = K.dim
    grid, _, log_fp = _log_asp(K, p, grid)
    rho0 = np.exp(log_fp / (n + p))
    L0 = StarBody(grid, rho0)
    value = _star_objective(K, L0, p, grid)
    rng = np.random.default_rng(seed)
    trial_values = []
    for _ in range(trials):
        kmax = 4
        pert = np.zeros(grid.n_nodes)
        if grid.dim == 2:
            for k in range(1, kmax + 1):
                pert += rng.normal(0, 0.3 / k) * np.cos(k * grid.thetas)
                pert += rng.normal(0, 0.3 / k) * np.sin(k * grid.thetas)
        else:
            direction = rng.standard_normal(grid.dim)
            direction /= np.linalg.norm(direction)
            pert = 0.3 * rng.normal() * (grid.nodes @ direction)
        L = StarBody(grid, rho0 * np.exp(pert))
        trial_values.append(_star_objective(K, L, p, grid))
    return VariationalResult(value=value, optimizer=L0, trial_values=np.array(trial_values))


def _star_objective(K, L, p, grid):
    log_vp = math.log(mixed_volume_p_star(K, L, p, grid))
    return math.exp(log_objective(K.dim, p, log_vp, math.log(L.volume())))


def curvature_image(K: ConvexBody, p: float, grid: SphericalGrid | None = None) -> StarBody:
    """The star body whose radial (n+p)-th power is proportional to f_p(K, .),
    normalized so that f_p = (omega_n / |image|) rho^{n+p} holds."""
    n = K.dim
    if abs(p) < 1e-12:
        raise DomainError("curvature image degenerates at p = 0")
    grid, _, log_fp = _log_asp(K, p, grid)
    rho0 = np.exp(log_fp / (n + p))
    v0 = StarBody(grid, rho0).volume()
    scale = (v0 / unit_ball_volume(n)) ** (1.0 / p)
    return StarBody(grid, scale * rho0)


InVpResult = namedtuple("InVpResult", ["member", "witness_support", "witness"])


def _is_support_function(g, grid, tol):
    """Whether the samples g on the uniform circle grid are a support
    function: min(g + g'') >= -tol max g, with g'' the spectral second
    derivative.  Any other grid raises UnsupportedError."""
    if grid.dim != 2 or grid.kind != "trapezoid":
        raise UnsupportedError("convexity test needs a planar body on the uniform circle grid")
    freqs = np.fft.rfftfreq(g.shape[0], d=1.0 / g.shape[0])
    g2 = np.fft.irfft(np.fft.rfft(g) * -(freqs ** 2), g.shape[0])
    return bool(np.min(g + g2) >= -tol * np.max(g))


def in_vp(K: ConvexBody, p: float, grid: SphericalGrid | None = None,
          tol: float = 1e-8) -> InVpResult:
    """Test whether g = f_p(K, .)^{-1/(n+p)} is a support function, i.e.
    whether the curvature image is convex.  Returns a witness body when the
    answer comes in closed form (centered ellipsoids); any other body needs
    the uniform circle grid."""
    n = K.dim
    _guard_order(p, n)
    if is_centered_ellipsoid(K):
        scale = abs(np.linalg.det(K.matrix)) ** (-2.0 / (n + p))
        witness = Ellipsoid(scale * K.matrix)
        sup = witness.support(grid.nodes) if grid is not None else None
        return InVpResult(True, sup, witness)
    grid, _, log_fp = _log_asp(K, p, grid)
    g = np.exp(-log_fp / (n + p))
    return InVpResult(_is_support_function(g, grid, tol), g, None)


def star_body_is_convex(L: StarBody, tol: float = 1e-8) -> bool:
    """A planar star body is convex exactly when 1/rho is a support function."""
    return _is_support_function(1.0 / L.rho, L.grid, tol)


HolderCheck = namedtuple("HolderCheck", ["margin", "lhs", "rhs"])


def holder_cyclic_check(K: ConvexBody, Q: ConvexBody, r: float, s: float, t: float,
                        grid: SphericalGrid | None = None) -> HolderCheck:
    """Margin (rhs - lhs) of the three-exponent interpolation bound
    n V_r <= (n V_s)^{(t-r)/(t-s)} (n V_t)^{(r-s)/(t-s)}.

    Requires r strictly between s and t; exact when K is a polytope."""
    lam = (t - r) / (t - s)
    if not 0.0 < lam < 1.0:
        raise InputError("need 0 < (t-r)/(t-s) < 1 (r strictly between s and t)")
    log_lhs = log_n_mixed_volume_p(K, Q, r, grid)
    log_rhs = lam * log_n_mixed_volume_p(K, Q, s, grid) \
        + (1.0 - lam) * log_n_mixed_volume_p(K, Q, t, grid)
    lhs, rhs = math.exp(log_lhs), math.exp(log_rhs)
    return HolderCheck(margin=rhs - lhs, lhs=lhs, rhs=rhs)
