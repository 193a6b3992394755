"""Estimation of the geominimal surface-area functional.

The quantity estimated is, for a body K and order p (p != -n),

    inf or sup over convex Q of  n * V_p(K, Q)^{n/(n+p)} * |Q polar|^{p/(n+p)}

with the infimum for p >= 0 and the supremum for p < 0.  The optimization
runs over the fixed candidates K and the unit ball B and over structured
candidate families (ellipsoids through a log-Cholesky chart and, for
polytope K, positive offsets over its own normal fan), by multistart
Nelder-Mead on log-scale objectives.  The objective is invariant under
Q -> tQ, so B stands for all its dilates.  Every returned value is certified
one-sided: an upper bound of the infimum for p >= 0, a lower bound of the
supremum for p < 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, QhullError

from .bodies import (
    ConvexBody,
    Ellipsoid,
    HPolytope,
    ShiftedBall,
    _Polytope,
    ball,
    is_centered_ellipsoid,
)
from .errors import DomainError, InputError
from .functionals import (
    _guard_order,
    _integration_pieces,
    _log_values,
    log_objective,
    logsumexp,
)
from .grids import SphericalGrid, default_grid, unit_ball_volume

GROWTH_LIMIT = 1e12          # objective growth treated as a diverging supremum
_TIE_TOL = 1e-12
_MAX_SUPPORT_FAMILY_FACETS = 12
_CHART_BOUND = 8.0           # log-parameter box; e^8 : 1 is far beyond desk scale


class _Evaluator:
    """Caches the surface-measure pieces of K so the objective is a single
    vectorized pass per candidate."""

    def __init__(self, K, p, grid):
        self.K = K
        self.n = K.dim
        self.p = p
        self.u, self.log_hk, self.log_mass = _integration_pieces(K, grid)
        self._base = (1.0 - p) * self.log_hk + self.log_mass

    def log_n_vp(self, log_hq):
        return float(logsumexp(self.p * log_hq + self._base))

    def log_objective(self, log_hq, log_polar_volume):
        log_vp = self.log_n_vp(log_hq) - math.log(self.n)
        return log_objective(self.n, self.p, log_vp, log_polar_volume)

    def log_objective_body(self, Q):
        hq = Q.support(self.u)
        return self.log_objective(_log_values(hq, "support values"), math.log(Q.polar().volume()))


def gp_objective(K: ConvexBody, Q: ConvexBody, p: float,
                 grid: SphericalGrid | None = None) -> float:
    """n * V_p(K, Q)^{n/(n+p)} * |Q polar|^{p/(n+p)}, combined in log space.
    At Q = K this reduces to n |K|^{n/(n+p)} |K polar|^{p/(n+p)}."""
    _guard_order(p, K.dim)
    ev = _Evaluator(K, p, grid)
    return math.exp(ev.log_objective_body(Q))


class EllipsoidFamily:
    """Candidates Q = L * B with L lower triangular, positive diagonal.
    Parameters are the log-diagonal followed by the raw lower entries."""

    name = "ellipsoid"

    def __init__(self, dim):
        self.dim = dim
        self.n_params = dim * (dim + 1) // 2
        self._diag_idx = np.arange(dim)
        rows, cols = np.tril_indices(dim, k=-1)
        self._rows, self._cols = rows, cols

    def matrix(self, x):
        L = np.zeros((self.dim, self.dim))
        L[self._diag_idx, self._diag_idx] = np.exp(x[: self.dim])
        L[self._rows, self._cols] = x[self.dim:]
        return L

    def initial_points(self, K, restarts, rng):
        points = [np.zeros(self.n_params)]
        if is_centered_ellipsoid(K):
            L = np.linalg.cholesky(K.matrix @ K.matrix.T)
            x = np.concatenate([np.log(np.diag(L)), L[self._rows, self._cols]])
            points.append(x)
        while len(points) < restarts:
            points.append(rng.normal(0.0, 0.5, self.n_params))
        return points[:restarts]

    def evaluate(self, x, u):
        """(log support at the directions u, log polar volume)."""
        L = self.matrix(x)
        w = u @ L
        log_hq = 0.5 * np.log(np.einsum("ij,ij->i", w, w))
        log_pv = math.log(unit_ball_volume(self.dim)) - float(np.sum(x[: self.dim]))
        return log_hq, log_pv

    def build(self, x):
        return Ellipsoid(self.matrix(x))


class PolytopeSupportFamily:
    """Candidates over the normal fan of a polytope K: same facet normals,
    log-parameterized positive offsets."""

    name = "polytope-support"

    def __init__(self, K):
        if not isinstance(K, _Polytope):
            raise InputError("support family requires a polytope")
        normals, offsets, _ = K.facet_data()
        self.normals = normals
        self.h0 = offsets
        self.dim = K.dim
        self.n_params = normals.shape[0]

    def initial_points(self, K, restarts, rng):
        points = [np.zeros(self.n_params)]
        while len(points) < restarts:
            points.append(rng.normal(0.0, 0.3, self.n_params))
        return points[:restarts]

    def build(self, x):
        return HPolytope(self.normals, self.h0 * np.exp(x))

    def evaluate(self, x, u):
        """One dual hull yields both the vertices of Q (facet planes of
        conv{u_i/h_i}) and the polar volume (the hull's own measure)."""
        h = self.h0 * np.exp(x)
        try:
            hull = ConvexHull(self.normals / h[:, None])
        except QhullError as exc:
            raise DomainError(f"degenerate candidate: {exc}") from exc
        b = -hull.equations[:, -1]
        if np.any(b <= 1e-12):
            raise DomainError("candidate is unbounded")
        verts = hull.equations[:, :-1] / b[:, None]
        hq = np.max(u @ verts.T, axis=1)
        return np.log(hq), math.log(hull.volume)


@dataclass(eq=False)
class GpEstimate:
    """One-sided estimate of the geominimal functional.

    ``direction`` is "upper" for p >= 0 (the value upper-bounds the
    infimum) and "lower" for p < 0 (the value lower-bounds the supremum).
    ``objective_at_K`` and ``objective_at_B`` are the fixed candidates that
    cap the estimate by construction."""

    p: float
    value: float
    direction: str
    witness: ConvexBody
    objective_at_K: float
    objective_at_B: float
    restarts_used: int
    trace: list = field(default_factory=list)
    suspected_unbounded: bool = False

    def to_json(self) -> dict:
        out = {
            "p": self.p,
            "value": self.value,
            "direction": self.direction,
            "witness": self.witness.to_json(),
            "objective_at_K": self.objective_at_K,
            "objective_at_B": self.objective_at_B,
            "restarts_used": self.restarts_used,
        }
        if self.suspected_unbounded:
            out["suspected_unbounded"] = True
        return out


def estimate_gp(K: ConvexBody, p: float, restarts: int = 8, seed: int = 0,
                grid: SphericalGrid | None = None, maxiter: int = 400) -> GpEstimate:
    """Optimize the objective over the candidate families plus the fixed
    candidates K and B.  The objective is invariant under Q -> tQ, so no
    dilate of B adds a candidate.  Deterministic for a fixed seed; restart
    seeds are derived by counter so results do not depend on evaluation
    order."""
    n = K.dim
    _guard_order(p, n)
    if restarts < 0:
        raise InputError(f"restarts must be non-negative, got {restarts}")
    if isinstance(K, _Polytope) and n not in (2, 3):
        raise DomainError("polytope estimation requires dimension 2 or 3")

    if abs(p) < 1e-12:
        value = n * K.volume()
        return GpEstimate(p=p, value=value, direction="upper", witness=K,
                          objective_at_K=value, objective_at_B=value,
                          restarts_used=0, trace=[{"note": "p = 0 collapses the objective"}])

    ev = _Evaluator(K, p, grid)
    sign = 1.0 if p > 0 else -1.0
    direction = "upper" if p > 0 else "lower"

    unit = ball(n)
    log_jk = ev.log_objective_body(K)
    log_jb = ev.log_objective_body(unit)
    families = [EllipsoidFamily(n)]
    if isinstance(K, _Polytope):
        families.append(PolytopeSupportFamily(K))

    trace = []
    suspected = False
    log_growth_cap = log_jk + math.log(GROWTH_LIMIT)

    best_family = []   # (log_j, family, params) per completed restart
    for fam_idx, fam in enumerate(families):
        if isinstance(fam, PolytopeSupportFamily) and fam.n_params > _MAX_SUPPORT_FAMILY_FACETS:
            trace.append({"family": fam.name, "skipped": "not applicable"})
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, fam_idx]))
        starts = fam.initial_points(K, restarts, rng)
        for ridx, x0 in enumerate(starts):
            state = {"grew": False}

            def objective(x):
                if np.max(np.abs(x)) > _CHART_BOUND:
                    return np.inf
                with np.errstate(all="ignore"):
                    try:
                        log_hq, log_pv = fam.evaluate(x, ev.u)
                        lj = ev.log_objective(log_hq, log_pv)
                    except (DomainError, InputError, FloatingPointError):
                        return np.inf
                if not np.isfinite(lj):
                    return np.inf
                if sign < 0 and lj > log_growth_cap:
                    state["grew"] = True
                return sign * lj

            res = minimize(objective, x0, method="Nelder-Mead",
                           options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-9})
            trace.append({"family": fam.name, "restart": ridx,
                          "fun": float(res.fun), "nit": int(res.nit), "nfev": int(res.nfev)})
            if state["grew"]:
                suspected = True
            if np.isfinite(res.fun):
                best_family.append((sign * res.fun, fam, np.asarray(res.x)))

    best_log, best_body = min((log_jk, K), (log_jb, unit), key=lambda c: sign * c[0])
    for log_j, fam, x in best_family:
        if sign * log_j < sign * best_log - _TIE_TOL:
            best_log, best_body = log_j, fam.build(x)

    return GpEstimate(
        p=p,
        value=math.exp(best_log),
        direction=direction,
        witness=best_body,
        objective_at_K=math.exp(log_jk),
        objective_at_B=math.exp(log_jb),
        restarts_used=restarts,
        trace=trace,
        suspected_unbounded=suspected,
    )


def gp_ball_shifted(z0, r: float, p: float, resolution: int = 4096) -> float:
    """Objective value at Q = B for the shifted ball z0 + r*B.

    For p in (0, 1) this upper-bounds the target functional and lies
    strictly below n omega_n r^{n(n-p)/(n+p)} whenever z0 != 0; for p in
    (-n, 0) the bound and the inequality reverse."""
    z0 = np.asarray(z0, dtype=float)
    n = z0.shape[0]
    if not (-n < p < 1) or abs(p) < 1e-12:
        raise InputError("order must lie in (-n, 0) or (0, 1)")
    if np.linalg.norm(z0) >= r:
        raise InputError("|z0| must be smaller than the radius")
    return gp_objective(ShiftedBall(z0, r), ball(n), p, default_grid(n, resolution))


def lutwak_gp_from_tilde(value: float, p: float, n: int) -> float:
    """Convert the extended functional to the classical normalization via
    value^{n+p} = (n omega_n)^p * converted^n, valid for p >= 1."""
    if p < 1.0 - 1e-12:
        raise InputError("conversion is defined only for p >= 1")
    if value <= 0:
        raise InputError("value must be positive")
    log_g = ((n + p) * math.log(value) - p * math.log(n * unit_ball_volume(n))) / n
    return math.exp(log_g)
