"""Estimation of the geominimal surface-area functional.

The quantity estimated is, for a body K and order p (p != -n),

    inf or sup over convex Q of  n * V_p(K, Q)^{n/(n+p)} * |Q polar|^{p/(n+p)}

with the infimum for p >= 0 and the supremum for p < 0.  The optimization
runs over the fixed candidates K and the unit ball B and over one family,
by multistart local search on log-scale objectives: the normal fan of a
polytope K at p > 0 with at most _MAX_SUPPORT_FAMILY_FACETS facets, which
no Q beats (V_p(K, Q) sees h_Q only at the facet normals u_i, and the fan
body {x : <x, u_i> <= h_Q(u_i)} contains Q), else ellipsoids.  B stands for
all its dilates.  Every returned value is certified one-sided: an upper
bound of the infimum for p >= 0, a lower bound of the supremum for p < 0.

Each restart is a bounded L-BFGS-B run on the exact gradient of the log
objective, descending for p > 0 and ascending for p < 0.  In the ellipsoid
chart the log objective is a log-sum-exp of p log|L^T u| plus -sum(x_diag)
for the polar volume.  In the polytope family h_Q(u_j) is linear in the
offsets of the facets that meet at the vertex attaining it, and log|Q polar|
is a sum of cone volumes over the dual hull.

For polytope K and p < 0 the supremum is +infinity and the witness is a thin
centered ellipsoid (_thin_ellipsoid).  On a grid a smooth K's measure is atomic
too, so its family witnesses count only where a grid with four times the nodes
gives the same objective to the quadrature tolerance.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, QhullError

from .bodies import (
    ConvexBody,
    Ellipsoid,
    HPolytope,
    ShiftedBall,
    _count,
    _Polytope,
    ball,
)
from .errors import DomainError, InputError
from .functionals import _finite_order, _guard_order, log_objective, logsumexp
from .grids import SphericalGrid, default_grid, make_grid, unit_ball_volume
from .measures import surface_measure

_TIE_TOL = 1e-12
_MAX_SUPPORT_FAMILY_FACETS = 12
_CHART_BOUND = 8.0           # log-parameter box; e^8 : 1 is far beyond desk scale
_DESCENT_OPTIONS = {"ftol": 1e-15, "gtol": 1e-10}   # L-BFGS-B stopping rule
_WITNESS_TOL = 1e-6          # log-objective agreement on the finer grid (quadrature tolerance)


class _Evaluator:
    """Caches the surface measure of K, folded with the order, so the
    objective is a single vectorized pass per candidate.  ``grid`` is the
    measure's grid, None for a polytope."""

    def __init__(self, K, p, grid):
        self.K = K
        self.n = K.dim
        self.p = p
        self._sm = sm = surface_measure(K, grid)
        self.u, self.grid = sm.directions, sm.grid
        self._base = (1.0 - p) * sm.log_support + np.log(sm.masses)

    def log_objective(self, log_hq, log_polar_volume):
        log_vp = logsumexp(self.p * log_hq + self._base) - math.log(self.n)
        return log_objective(self.n, self.p, log_vp, log_polar_volume)

    def log_objective_and_weights(self, log_hq, log_polar_volume):
        """The log objective and the softmax weights of its V_p sum, which are
        the derivatives of log(n V_p) in p log h_Q at each direction."""
        a = self.p * log_hq + self._base
        lse = logsumexp(a)
        log_vp = lse - math.log(self.n)
        return log_objective(self.n, self.p, log_vp, log_polar_volume), np.exp(a - lse)

    def log_objective_body(self, Q):
        return self.log_objective(self._sm.log_support_of(Q),
                                  math.log(Q.polar().volume()))


def gp_objective(K: ConvexBody, Q: ConvexBody, p: float,
                 grid: SphericalGrid | None = None) -> float:
    """n * V_p(K, Q)^{n/(n+p)} * |Q polar|^{p/(n+p)}, combined in log space.
    At Q = K this reduces to n |K|^{n/(n+p)} |K polar|^{p/(n+p)}."""
    _guard_order(p, K.dim)
    return math.exp(_Evaluator(K, p, grid).log_objective_body(Q))


class EllipsoidFamily:
    """Candidates Q = L * B with L lower triangular, positive diagonal.
    Parameters are the log-diagonal followed by the raw lower entries."""

    name = "ellipsoid"
    stream = 0      # the restart seeds are SeedSequence([seed, stream])
    spread = 0.5    # the scale of the random starts

    def __init__(self, dim):
        self.dim = dim
        self.n_params = dim * (dim + 1) // 2
        self._diag_idx = np.arange(dim)
        self._rows, self._cols = np.tril_indices(dim, k=-1)

    def matrix(self, x):
        L = np.zeros((self.dim, self.dim))
        L[self._diag_idx, self._diag_idx] = np.exp(x[: self.dim])
        L[self._rows, self._cols] = x[self.dim:]
        return L

    def evaluate(self, x, u):
        """(log support at the directions u, log polar volume)."""
        L = self.matrix(x)
        w = u @ L
        log_hq = 0.5 * np.log(np.einsum("ij,ij->i", w, w))
        log_pv = math.log(unit_ball_volume(self.dim)) - float(np.sum(x[: self.dim]))
        return log_hq, log_pv

    def log_objective_and_gradient(self, x, ev):
        """The log objective at x and its gradient in x.  With w_i = L^T u_i,
        s_i = |w_i|^2 and softmax weights pi, d lj / dL is
        (n p / (n+p)) sum_i pi_i u_i w_i^T / s_i; the log-diagonal adds the
        factor e^{x_d} and the polar term -p / (n+p)."""
        n, p = self.dim, ev.p
        L = self.matrix(x)
        w = ev.u @ L
        s = np.einsum("ij,ij->i", w, w)
        log_pv = math.log(unit_ball_volume(n)) - float(np.sum(x[:n]))
        lj, pi = ev.log_objective_and_weights(0.5 * np.log(s), log_pv)
        G = (n * p / (n + p)) * ((ev.u * (pi / s)[:, None]).T @ w)
        grad = np.concatenate([G[self._diag_idx, self._diag_idx] * np.exp(x[:n]) - p / (n + p),
                               G[self._rows, self._cols]])
        return lj, grad

    def build(self, x):
        return Ellipsoid(self.matrix(x))


class PolytopeSupportFamily:
    """Candidates over the normal fan of a polytope K: same facet normals,
    log-parameterized positive offsets."""

    name = "polytope-support"
    stream = 1
    spread = 0.3

    def __init__(self, K):
        if not isinstance(K, _Polytope):
            raise InputError("support family requires a polytope")
        self.normals, self.h0, _ = K.facet_data()
        self.dim = K.dim
        self.n_params = self.normals.shape[0]

    def build(self, x):
        return HPolytope(self.normals, self.h0 * np.exp(x))

    def _supports(self, x, u):
        """h_Q at each direction u_j, the dual hull of u_i / h_i (Q polar) and,
        per direction, the hull facet (vertex of Q) that attains h_Q(u_j)."""
        h = self.h0 * np.exp(x)
        try:
            hull = ConvexHull(self.normals / h[:, None])
        except QhullError as exc:
            raise DomainError(f"degenerate candidate: {exc}") from exc
        b = -hull.equations[:, -1]
        if np.any(b <= 1e-12):
            raise DomainError("candidate is unbounded")
        verts = hull.equations[:, :-1] / b[:, None]
        scores = u @ verts.T
        attained = np.argmax(scores, axis=1)
        return scores[np.arange(len(u)), attained], hull, attained

    def evaluate(self, x, u):
        """One dual hull yields both the vertices of Q (facet planes of
        conv{u_i/h_i}) and the polar volume (the hull's own measure)."""
        hq, hull, _ = self._supports(x, u)
        return np.log(hq), math.log(hull.volume)

    def log_objective_and_gradient(self, x, ev):
        """The log objective at x and its gradient in x.  The vertex v of Q
        that attains h_Q(u_j) solves <u_i, v> = h_i over the vertices i of
        its dual-hull facet S, so d h_Q(u_j) / d h_S = N_S^{-T} u_j.  Scaling
        vertex j of the dual hull scales the determinants of its cone
        simplices s, so d log|Q polar| / dx_j = -sum of vol_s / vol."""
        n, p = self.dim, ev.p
        hq, hull, attained = self._supports(x, ev.u)
        vol = hull.volume
        lj, pi = ev.log_objective_and_weights(np.log(hq), math.log(vol))
        S = hull.simplices[attained]
        dual = np.linalg.solve(np.swapaxes(self.normals[S], 1, 2), ev.u[:, :, None])[:, :, 0]
        h = self.h0 * np.exp(x)
        d_log_vp = np.bincount(S.ravel(), weights=((p * pi / hq)[:, None] * dual * h[S]).ravel(),
                               minlength=self.n_params)
        cone_vols = np.abs(np.linalg.det(hull.points[hull.simplices])) / math.factorial(n)
        d_log_pv = -np.bincount(hull.simplices.ravel(), weights=np.repeat(cone_vols, n),
                                minlength=self.n_params) / vol
        return lj, (n * d_log_vp + p * d_log_pv) / (n + p)


@dataclass(eq=False)
class GpEstimate:
    """One-sided estimate of the geominimal functional.

    ``direction`` is "upper" for p >= 0 (the value upper-bounds the
    infimum) and "lower" for p < 0 (the value lower-bounds the supremum).
    ``objective_at_K`` and ``objective_at_B`` are the fixed candidates that
    cap the estimate by construction.  ``suspected_unbounded`` is set, by
    construction, exactly for polytope K at p < 0: that supremum is infinite."""

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
    """Optimize the objective over K, B and one family: the normal fan of a
    polytope at p > 0, whose body for any Q has the same V_p and contains Q;
    ellipsoids for a smooth K and, past _MAX_SUPPORT_FAMILY_FACETS facets,
    for a polytope.  Deterministic for a fixed seed: each family has its own
    seed stream.  A polytope at p < 0 gets a thin centered ellipsoid with no
    search, admissible also where Q must be origin-symmetric.

    A quadric K = c + A B is searched in its normal form A^{-1} K, the unit
    ball or a shifted unit ball, and the result is mapped back by A
    (_from_normal_form); B stays a fixed candidate in K's own frame."""
    n = K.dim
    _guard_order(p, n)
    _count(restarts, "restarts")
    _count(seed, "seed")
    _count(maxiter, "maxiter")
    if isinstance(K, _Polytope) and n not in (2, 3):
        raise DomainError("polytope estimation requires dimension 2 or 3")

    if abs(p) < 1e-12:
        value = n * K.volume()
        return GpEstimate(p=p, value=value, direction="upper", witness=K,
                          objective_at_K=value, objective_at_B=value,
                          restarts_used=0, trace=[{"note": "p = 0 collapses the objective"}])

    Kn = _normal_form(K) if isinstance(K, Ellipsoid) else K
    est = _search(Kn, p, restarts, seed, grid, maxiter)
    return est if Kn is K else _from_normal_form(K, Kn, est, grid)


def _normal_form(K: Ellipsoid) -> Ellipsoid:
    """A^{-1} K for the quadric K = c + A B: ``ball(n)`` when c = 0, else the
    unit ball about A^{-1} c, kept on K, so its samples serve every order;
    K itself when A is the identity."""
    n = K.dim
    if np.array_equal(K.matrix, np.eye(n)):
        return K
    if not K.center.any():
        return ball(n)
    return K._derived("normal form", lambda: Ellipsoid(np.eye(n), K._q))


def _from_normal_form(K: Ellipsoid, Kn: Ellipsoid, est: GpEstimate, grid) -> GpEstimate:
    """The estimate of K = A Kn from ``est``, the estimate of its normal form
    Kn.  J(AK, AQ) = |det A|^{(n-p)/(n+p)} J(K, Q) scales the value and the
    objective at K, and maps the witness by A.  B stays a fixed candidate,
    evaluated in K's own frame on the grid, the quadrature p_surface_area(K)
    uses; A^{-1} B in the normal frame is another quadrature of it."""
    n, p = K.dim, est.p
    scale = K._det ** ((n - p) / (n + p))
    witness = K if est.witness is Kn else est.witness.linear_map(K.matrix)
    unit = ball(n)
    at_b = math.exp(_Evaluator(K, p, grid).log_objective_body(unit))
    value, witness = min((scale * est.value, witness), (at_b, unit),
                         key=lambda c: c[0] if p > 0 else -c[0])
    return replace(est, value=value, witness=witness, objective_at_B=at_b,
                   objective_at_K=scale * est.objective_at_K)


def _search(K, p, restarts, seed, grid, maxiter):
    """estimate_gp's search on K at p != 0; the caller checks the arguments."""
    n = K.dim
    ev = _Evaluator(K, p, grid)
    sign = 1.0 if p > 0 else -1.0

    unit = ball(n)
    log_jk = ev.log_objective_body(K)
    log_jb = ev.log_objective_body(unit)
    best_log, best_body = min((log_jk, K), (log_jb, unit), key=lambda c: sign * c[0])
    fixed = {"p": p, "direction": "upper" if p > 0 else "lower",
             "objective_at_K": math.exp(log_jk), "objective_at_B": math.exp(log_jb)}

    if isinstance(K, _Polytope) and p < 0:
        Q = _thin_ellipsoid(ev)
        best_log, best_body = max((best_log, best_body), (ev.log_objective_body(Q), Q),
                                  key=lambda c: c[0])
        return GpEstimate(value=math.exp(best_log), witness=best_body, restarts_used=0,
                          trace=[{"note": "polytope at p < 0: the supremum is infinite"}],
                          suspected_unbounded=True, **fixed)

    fam, trace = EllipsoidFamily(n), []
    if isinstance(K, _Polytope) and len(K.facet_data()[0]) > _MAX_SUPPORT_FAMILY_FACETS:
        trace.append({"family": PolytopeSupportFamily.name, "skipped": "not applicable"})
    elif isinstance(K, _Polytope):
        fam = PolytopeSupportFamily(K)
    rng = np.random.default_rng(np.random.SeedSequence([seed, fam.stream]))
    starts = [rng.normal(0.0, fam.spread, fam.n_params) if i else np.zeros(fam.n_params)
              for i in range(restarts)]

    fine = None
    for ridx, x0 in enumerate(starts):
        res = _descend(fam, ev, x0, maxiter, sign)
        Q, log_j = _witness(ev, lambda: fam.build(res.x))
        trace.append({"family": fam.name, "restart": ridx,
                      "fun": float(log_j), "nit": int(res.nit), "nfev": int(res.nfev)})
        if not np.isfinite(log_j) or sign * log_j >= sign * best_log - _TIE_TOL:
            continue
        # a polytope's atoms are exact; a smooth K's grid is checked on a finer one
        if ev.grid is not None:
            fine = fine or _Evaluator(K, p, make_grid(n, 4 * ev.grid.n_nodes))
            log_fine = _witness(fine, lambda: Q)[1]
            if not abs(log_fine - log_j) <= _WITNESS_TOL:
                trace.append({"family": fam.name, "rejected": ridx,
                              "fun": float(log_j), "fine_fun": float(log_fine)})
                continue
        best_log, best_body = log_j, Q

    return GpEstimate(value=math.exp(best_log), witness=best_body, restarts_used=len(starts),
                      trace=trace, **fixed)


def _thin_ellipsoid(ev, eps=1e-6):
    """Q = (I - (1 - eps) v v^T) B for polytope K at p < 0, with |Q polar| =
    omega_n / eps.  For -n < p < 0 the short axis v is the facet normal u_j
    with the largest atom a_j h_K(u_j)^{1-p}; h_Q(u_j) = eps, and the
    objective grows like eps^{p(n-1)/(n+p)}.  For p < -n, v is the node of a
    512-node grid farthest from every facet normal and its opposite; h_Q
    stays bounded below at the normals, and it grows like eps^{-p/(n+p)}."""
    if ev.p > -ev.n:
        v = ev.u[np.argmax(ev._base)]
    else:
        nodes = default_grid(ev.n, 512).nodes
        v = nodes[np.argmin(np.max(np.abs(nodes @ ev.u.T), axis=1))]
    return Ellipsoid(np.eye(ev.n) - (1.0 - eps) * np.outer(v, v))


def _witness(ev, make):
    """The body make(), which an estimate reports as its witness, and its log
    objective under ev; (None, inf) where there is none.  A restart makes its
    body once.  The objective can differ from the chart value in the last
    bits, or, where facets of a polytope candidate nearly meet in one vertex,
    by the merge of its nearly coplanar dual faces."""
    with np.errstate(all="ignore"):
        try:
            Q = make()
            lj = ev.log_objective_body(Q)
        except (DomainError, InputError, FloatingPointError):
            return None, np.inf
    return Q, (lj if np.isfinite(lj) else np.inf)


def _descend(fam, ev, x0, maxiter, sign):
    """One L-BFGS-B restart on sign times the family's exact-gradient log
    objective, inside the chart box: a descent for sign 1, an ascent for -1."""
    def fun_and_grad(x):
        with np.errstate(all="ignore"):
            try:
                lj, grad = fam.log_objective_and_gradient(x, ev)
            except (DomainError, InputError, FloatingPointError, np.linalg.LinAlgError):
                return np.inf, np.zeros_like(x)
        if not (np.isfinite(lj) and np.all(np.isfinite(grad))):
            return np.inf, np.zeros_like(x)
        return sign * lj, sign * grad

    return minimize(fun_and_grad, x0, jac=True, method="L-BFGS-B",
                    bounds=[(-_CHART_BOUND, _CHART_BOUND)] * len(x0),
                    options={"maxiter": maxiter, **_DESCENT_OPTIONS})


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
    _finite_order(p)
    if p < 1.0 - 1e-12:
        raise InputError("conversion is defined only for p >= 1")
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"value must be a positive finite number, got {value!r}")
    if _count(n, "dimension") < 1:
        raise InputError("dimension must be at least 1")
    log_g = ((n + p) * math.log(value) - p * math.log(n * unit_ball_volume(n))) / n
    return math.exp(log_g)
