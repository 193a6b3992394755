"""Inequality verification harness.

Each inequality satisfied by the geominimal functional is instantiated as a
check over canonical and seeded random bodies.  Checks are three-valued:
``pass`` when the inequality
is established at the stated tolerance, ``fail`` only when the violation is
logically sound given the estimator's bound direction, and ``inconclusive``
when a one-sided estimate cannot decide the claim.  An upper-bound estimate
can prove an upper inequality and can never refute it; symmetrically for
lower bounds.  For balls and ellipsoids an estimate that meets its closed
form is tight, so those instances are tested two-sided and must hit equality
cases.

Reports are deterministic for a fixed seed: byte-identical JSON, no wall
clock anywhere in the output.
"""

import csv
import io
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bodies import (
    ConvexBody,
    Ellipsoid,
    FourierBody2D,
    HPolytope,
    ShiftedBall,
    VPolytope,
    _FourierPolar,
    _grid_trig,
    _Polytope,
    _count,
    ball,
    body_from_json,
    body_to_json,
    is_centered_ellipsoid,
    random_body,
)
from .errors import DomainError, GeominimaError, InputError, UnsupportedError
from .functionals import holder_cyclic_check, log_objective, mahler, p_surface_area
from .geominimal import (
    _from_normal_form,
    _normal_form,
    estimate_gp,
    gp_ball_shifted,
    gp_objective,
)
from .grids import default_grid, unit_ball_volume

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

_DEFAULT_TOLERANCES = {"exact": 1e-9, "quadrature": 1e-6, "estimator": 1e-4}


@dataclass(eq=False)
class CheckResult:
    check_id: str
    instance: dict
    lhs: float
    rhs: float
    margin: float
    verdict: str
    tolerance: float
    note: str = ""

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class HarnessConfig:
    """Suite configuration.

    ``bm_constant`` is the inverse-Santalo constant used by the negative
    order checks; it is a configuration choice (default 0.5, deliberately
    conservative) and pass thresholds for those checks are meaningful only
    relative to it.
    """

    seed: int = 0
    dims: tuple = (2, 3)
    p_grid: tuple = (-4.0, -3.0, -1.0, 0.5, 1.0, 2.0)
    n_random: int = 2
    mahler_count: int = 200
    bm_constant: float = 0.5
    tolerances: dict = field(default_factory=dict)
    restarts: int = 2
    grid_resolution: int = 2048
    checks: tuple = field(default_factory=lambda: tuple(_CHECKS))

    def __post_init__(self):
        for name in ("seed", "n_random", "mahler_count", "grid_resolution", "restarts"):
            setattr(self, name, _count(getattr(self, name), name))
        self.dims, self.p_grid, self.checks = (
            tuple(self.dims), tuple(self.p_grid), tuple(self.checks))
        if not self.dims:
            raise InputError("dims must not be empty")
        # given tolerances override the defaults key by key
        self.tolerances = {**_DEFAULT_TOLERANCES, **self.tolerances}
        for key, value in self.tolerances.items():
            if key not in _DEFAULT_TOLERANCES:
                raise InputError(f"unknown tolerance {key!r}")
            if not (isinstance(value, (int, float)) and value > 0):
                raise InputError(f"tolerance {key!r} must be a positive number")
        if not 0.0 < self.bm_constant <= 1.0:
            raise InputError("bm_constant must lie in (0, 1]")
        if any(d not in (2, 3) for d in self.dims):
            raise InputError("dims must be a subset of {2, 3}")
        if self.grid_resolution < 8:
            raise InputError("grid_resolution must be at least 8")
        if not all(math.isfinite(p) for p in self.p_grid):
            raise InputError("p grid orders must be finite numbers")
        for d in self.dims:
            if not self.orders_for(d):
                raise InputError(f"p grid leaves no admissible orders for n = {d}")
        unknown = set(self.checks) - set(_CHECKS)
        if unknown:
            raise InputError(f"unknown checks: {sorted(unknown)}")

    def orders_for(self, n: int):
        # random/regular grids keep a guard band away from the excluded order
        return tuple(p for p in self.p_grid if abs(p + n) >= 0.25)

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "HarnessConfig":
        return cls(**data)


# ---------------------------------------------------------------------------
# canonical instances
# ---------------------------------------------------------------------------

def canonical_bodies(dim: int) -> dict:
    """Fixed, versioned list so margins stay comparable across runs."""
    if dim == 2:
        return {
            "ball2": ball(2),
            "square": HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1]),
            "cross2": VPolytope([[1, 0], [0, 1], [-1, 0], [0, -1]]),
            "triangle": VPolytope([[-1, -1], [2, -1], [-1, 2]]),
            "ellipse-2-1": Ellipsoid([[2.0, 0.0], [0.0, 1.0]]),
            "ellipse-rot": Ellipsoid([[1.2, 0.9], [-0.9, 1.2]]),
            "shifted-ball2": ShiftedBall([0.3, 0.0], 1.0),
        }
    if dim == 3:
        return {
            "ball3": ball(3),
            "cube": HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
            "octahedron": VPolytope(np.vstack([np.eye(3), -np.eye(3)])),
            "ellipsoid-3": Ellipsoid(np.diag([2.0, 1.0, 0.75])),
            "shifted-ball3": ShiftedBall([0.2, -0.1, 0.1], 1.0),
        }
    raise InputError("canonical bodies exist for dimensions 2 and 3 only")


def _random_instances(config: HarnessConfig, dim: int):
    kinds = ["polytope-hull", "ellipsoid", "shifted-ball"]
    if dim == 2:
        kinds.append("fourier2d")
    out = {}
    for kind_idx, kind in enumerate(kinds):
        for i in range(config.n_random):
            seq = np.random.SeedSequence([config.seed, dim, kind_idx, i])
            out[f"random-{kind}-{dim}d-{i}"] = random_body(
                kind, dim, rng=np.random.default_rng(seq))
    return out


def suite_bodies(config: HarnessConfig, dim: int) -> dict:
    bodies = dict(canonical_bodies(dim))
    bodies.update(_random_instances(config, dim))
    return bodies


# ---------------------------------------------------------------------------
# estimate cache with volume-product fallback for Fourier polars
# ---------------------------------------------------------------------------

def _unsigned_zeros(x):
    """x, a JSON value, with every -0.0 in it read as 0.0."""
    if isinstance(x, dict):
        return {key: _unsigned_zeros(value) for key, value in x.items()}
    if isinstance(x, list):
        return [_unsigned_zeros(value) for value in x]
    return x + 0.0 if isinstance(x, float) else x


def _body_key(K: ConvexBody):
    """Content key: a polytope's sorted vertex rows, a Fourier polar's parent,
    else its JSON.  -0.0 and 0.0 are one value, so the polar of the square
    and the cross polytope share a key.  A body with no JSON form is its own
    key; the cache keeps it, so no id is reused."""
    if isinstance(K, _Polytope):
        return K.dim, (np.unique(K.vertices, axis=0) + 0.0).tobytes()
    if isinstance(K, _FourierPolar):
        return "polar", _body_key(K.body)
    try:
        return json.dumps(_unsigned_zeros(K.to_json()), sort_keys=True)
    except (UnsupportedError, GeominimaError):
        return K


@dataclass(eq=False, frozen=True)
class _GpRecord:
    value: float
    tight: bool          # ellipsoid estimate that meets its closed form
    kind: str            # "estimate" or "volume-cap"
    cap_self: float      # objective at Q = K


class _GpCache:
    """Caches one-sided values of the geominimal functional per (body, p).

    A quadric's value comes from the estimate of its normal form, kept per
    (normal form, p), so all centered ellipsoids of one dimension share one
    search of the unit ball per order.  Bodies the optimizer cannot handle
    (Fourier polars, which have no surface measure) fall back to the
    objective at Q = K, computed from volumes alone, which is a valid bound
    on the same side.  In the default suites these polars are the only
    bodies that take the fallback.
    """

    def __init__(self, config: HarnessConfig):
        self.config = config
        self._store = {}
        self._normal = {}

    def bound(self, K: ConvexBody, p: float) -> _GpRecord:
        key = (_body_key(K), float(p))
        if key not in self._store:
            self._store[key] = self._compute(K, p)
        return self._store[key]

    def _estimate(self, K, p):
        grid = default_grid(K.dim, self.config.grid_resolution)

        def estimate(body):
            return estimate_gp(body, p, restarts=self.config.restarts,
                               seed=self.config.seed, maxiter=250, grid=grid)

        if not isinstance(K, Ellipsoid):
            return estimate(K)
        Kn = _normal_form(K)
        key = (_body_key(Kn), float(p))
        if key not in self._normal:
            self._normal[key] = Kn, estimate(Kn)
        Kn, est = self._normal[key]
        return est if Kn is K else _from_normal_form(K, Kn, est, grid)

    def _compute(self, K, p):
        try:
            est = self._estimate(K, p)
        except (UnsupportedError, DomainError, InputError):
            cap = math.exp(log_objective(K.dim, p, math.log(K.volume()),
                                         math.log(K.polar().volume())))
            return _GpRecord(cap, False, "volume-cap", cap)
        # an ellipsoid estimate is tight only when it meets its closed form
        tight = False
        if is_centered_ellipsoid(K):
            exact = gp_ellipsoid_exact(np.linalg.det(K.matrix), K.dim, p)
            tight = abs(est.value - exact) <= self.config.tolerances["estimator"] * exact
        return _GpRecord(est.value, tight, "estimate", est.objective_at_K)


def gp_ellipsoid_exact(det: float, n: int, p: float) -> float:
    """Closed form for ellipsoids: n omega_n |det|^{(n-p)/(n+p)}."""
    return n * unit_ball_volume(n) * abs(det) ** ((n - p) / (n + p))


# ---------------------------------------------------------------------------
# verdict helpers
# ---------------------------------------------------------------------------

def _one_sided(claim_upper: bool, bound_is_upper: bool, lhs, rhs, tol, tight):
    """Verdict for 'lhs <= rhs' (claim_upper) or 'lhs >= rhs' given that lhs
    is a one-sided bound of the true value.

    Proving needs the bound on the claim's side; refuting needs it on the
    opposite side (or a tight estimate)."""
    slack = tol * max(abs(lhs), abs(rhs), 1e-300)
    if claim_upper:
        margin = rhs - lhs
        satisfied = lhs <= rhs + slack
        provable = bound_is_upper
    else:
        margin = lhs - rhs
        satisfied = lhs >= rhs - slack
        provable = not bound_is_upper
    if satisfied:
        verdict = PASS if (provable or tight) else INCONCLUSIVE
    else:
        verdict = FAIL if (tight or not provable) else INCONCLUSIVE
    return margin, verdict


def _instance(body=None, name="", **params) -> dict:
    inst = {"params": params}
    if name:
        inst["name"] = name
    if body is not None:
        try:
            inst["body"] = body_to_json(body)
        except (UnsupportedError, GeominimaError):
            inst["body"] = {"unserializable": type(body).__name__}
    return inst


_CENTERED_TOL = 1e-12
"""A centroid c with |c| <= _CENTERED_TOL * |K|^(1/n) is the origin up to
rounding.  In units of |K|^(1/n), the bodies of the default suites at seeds
0, 5 and 21 that are centered by construction have |c| <= 1.6e-16, and the
others |c| >= 1.4e-3."""


def _center_at_centroid(K: ConvexBody):
    """K moved to put its centroid at the origin, or K itself when its
    centroid is the origin up to rounding (``_CENTERED_TOL``); the same
    object on every call."""
    def center():
        c = K.centroid()
        tol = _CENTERED_TOL * K.volume() ** (1.0 / K.dim)
        return K if np.linalg.norm(c) <= tol else K.translate(c)
    return K._derived("centered", center)


def _support_bounds(K: ConvexBody):
    """(lower, upper) with lower <= min support <= max support <= upper.

    Exact for polytopes (facet offsets span the support minimum, vertex
    norms the maximum) and quadrics (singular values plus center norm);
    dense sampling with a cushion for trigonometric bodies."""
    if isinstance(K, _Polytope):
        _, offsets, _ = K.facet_data()
        return float(np.min(offsets)), float(np.max(np.linalg.norm(K.vertices, axis=1)))
    if isinstance(K, Ellipsoid):
        sv = np.linalg.svd(K.matrix, compute_uv=False)
        c = float(np.linalg.norm(K.center))
        return float(sv[-1]) - c, float(sv[0]) + c
    if isinstance(K, FourierBody2D):
        h = _grid_trig(K.a, K.b, 8192, 0)[0]
        return 0.995 * float(np.min(h)), 1.005 * float(np.max(h))
    grid = default_grid(K.dim, 1024)
    h = K.support(grid.nodes)
    return 0.95 * float(np.min(h)), 1.05 * float(np.max(h))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_homogeneity(K: ConvexBody, T, p: float, config: HarnessConfig,
                      cache=None, name="") -> CheckResult:
    """Degree of homogeneity under invertible linear maps:
    value(TK) = |det T|^{(n-p)/(n+p)} value(K).  On a centered ellipsoid it
    holds by construction: K and TK share the normal form B, and both values
    scale the one estimate of B, unless B, a fixed candidate in each body's
    own frame, beats it on one side.  Other bodies check the objective
    identity at Q = B."""
    cache = cache or _GpCache(config)
    n = K.dim
    T = np.asarray(T, dtype=float)
    factor = abs(np.linalg.det(T)) ** ((n - p) / (n + p))
    if is_centered_ellipsoid(K):
        rec_t, rec = cache.bound(K.linear_map(T), p), cache.bound(K, p)
        lhs, rhs = rec_t.value, factor * rec.value
        tol = config.tolerances["estimator"]
        tight = rec_t.tight and rec.tight
        note = "tight ellipsoid estimates on both sides"
    else:
        # matched-candidate transform identity at the unit-ball probe
        grid = default_grid(n, config.grid_resolution)
        Q = ball(n)
        lhs = gp_objective(K.linear_map(T), Q.linear_map(T), p, grid)
        rhs = factor * gp_objective(K, Q, p, grid)
        tol = config.tolerances["exact"]
        tight = True     # both sides are exact objective values
        note = "objective transform identity at the unit-ball candidate"
    margin = rhs - lhs
    if abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs)):
        verdict = PASS
    else:
        # a gap between estimates that miss their closed form refutes nothing
        verdict = FAIL if tight else INCONCLUSIVE
    return CheckResult("homogeneity", _instance(K, name, p=p, det=float(np.linalg.det(T))),
                       lhs, rhs, margin, verdict, tol, note)


def check_translation_balls(z0, p: float, config: HarnessConfig) -> CheckResult:
    """Strict failure of translation invariance for shifted balls: the
    objective at Q = B sits strictly below n omega_n for p in (0,1) and
    strictly above for p in (-n, 0)."""
    z0 = np.asarray(z0, dtype=float)
    n = z0.shape[0]
    base = n * unit_ball_volume(n)
    value = gp_ball_shifted(z0, 1.0, p, resolution=config.grid_resolution)
    strict = 1e-8
    shifted = np.linalg.norm(z0) > 0
    margin = base - value if p > 0 else value - base
    if shifted:
        verdict = PASS if margin > strict else FAIL
    else:
        verdict = PASS if abs(margin) <= 1e-9 * base else FAIL
    return CheckResult("translation_balls",
                       _instance(None, "", z0=z0.tolist(), p=p),
                       value, base, margin, verdict, strict,
                       "strict Jensen gap at Q = B")


def check_volume_product_bound(K: ConvexBody, p: float, config: HarnessConfig,
                               cache=None, name="") -> list:
    """The estimate never beats the objective at Q = K (volume-product cap),
    and the two-sided product never beats n^2 |K||K polar|.  Both hold by
    construction; violations indicate bugs."""
    cache = cache or _GpCache(config)
    n = K.dim
    rec = cache.bound(K, p)
    cap = rec.cap_self
    tol = 1e-12
    results = []
    margin = cap - rec.value if p >= 0 else rec.value - cap
    verdict = PASS if margin >= -tol * abs(cap) else FAIL
    results.append(CheckResult("volume_product_bound", _instance(K, name, p=p),
                               rec.value, cap, margin, verdict, tol,
                               "estimate capped by the objective at Q = K"))

    Kp = K.polar()
    lhs = rec.value * cache.bound(Kp, p).value
    rhs = n * n * K.volume() * Kp.volume()
    margin2 = rhs - lhs if p >= 0 else lhs - rhs
    verdict2 = PASS if margin2 >= -config.tolerances["quadrature"] * abs(rhs) else FAIL
    results.append(CheckResult("volume_product_pair", _instance(K, name, p=p),
                               lhs, rhs, margin2, verdict2, config.tolerances["quadrature"],
                               "paired product against n^2 |K||K polar|"))
    return results


def check_santalo_style(K: ConvexBody, p: float, config: HarnessConfig,
                        cache=None, name="") -> CheckResult:
    """Product bound for centered bodies: value(K) * value(K polar) bounded by
    (n omega_n)^2 from above (p >= 0) or by c^n (n omega_n)^2 from below
    (p < 0).  The negative side also verifies the exact volume-product leg
    M(K) >= c^n omega_n^2, which is two-sided in exact arithmetic."""
    cache = cache or _GpCache(config)
    n = K.dim
    try:
        Kc = _center_at_centroid(K)
    except (UnsupportedError, DomainError) as exc:
        return CheckResult("santalo_style", _instance(K, name, p=p),
                           math.nan, math.nan, math.nan, INCONCLUSIVE,
                           config.tolerances["estimator"], f"skipped: {exc}")
    Kp = Kc.polar()
    rec_k = cache.bound(Kc, p)
    rec_kp = cache.bound(Kp, p)
    lhs = rec_k.value * rec_kp.value
    tight = rec_k.tight and rec_kp.tight
    omega = unit_ball_volume(n)
    tol = config.tolerances["estimator"]
    if p >= 0:
        rhs = (n * omega) ** 2
        margin, verdict = _one_sided(True, True, lhs, rhs, tol, tight)
        note = "upper-bound product against the ball value squared"
    else:
        rhs = config.bm_constant ** n * (n * omega) ** 2
        mk = Kc.volume() * Kp.volume()
        exact_rhs = config.bm_constant ** n * omega ** 2
        if mk < exact_rhs * (1 - config.tolerances["quadrature"]):
            return CheckResult("santalo_style", _instance(K, name, p=p),
                               mk, exact_rhs, mk - exact_rhs, FAIL,
                               config.tolerances["quadrature"],
                               "exact volume-product leg violates the configured constant")
        margin, verdict = _one_sided(False, False, lhs, rhs, tol, tight)
        if verdict == INCONCLUSIVE:
            # the exact leg already proves the claim through the product cap
            margin = mk - exact_rhs
            verdict = PASS
        note = "lower-bound product with exact volume-product leg"
    return CheckResult("santalo_style", _instance(K, name, p=p),
                       lhs, rhs, margin, verdict, tol, note)


def check_isoperimetric(K: ConvexBody, p: float, config: HarnessConfig,
                        cache=None, name="", centered=True) -> CheckResult:
    """Volume-normalized extremality of ellipsoids.

    Centered variant (all p != -n): for p >= 0 the value is at most the
    smaller of the volume and polar-volume powers; for -n < p < 0 at least
    the volume power; for p < -n at least the polar power and at least the
    constant-weighted volume power.  The uncentered variant covers
    p in (-n, 1), p != 0, with the volume power only."""
    cache = cache or _GpCache(config)
    n = K.dim
    omega = unit_ball_volume(n)
    try:
        Kc = _center_at_centroid(K) if centered else K
    except (UnsupportedError, DomainError) as exc:
        return CheckResult("isoperimetric", _instance(K, name, p=p),
                           math.nan, math.nan, math.nan, INCONCLUSIVE,
                           config.tolerances["estimator"], f"skipped: {exc}")
    if not centered and not (-n < p < 1 and abs(p) > 1e-12):
        raise InputError("uncentered variant needs p in (-n, 1), p != 0")
    rec = cache.bound(Kc, p)
    value, tight = rec.value, rec.tight
    lhs = value / (n * omega)
    vol_ratio = Kc.volume() / omega
    tol = config.tolerances["estimator"]
    if p >= 0:
        rhs = vol_ratio ** ((n - p) / (n + p))
        if centered:
            polar_ratio = Kc.polar().volume() / omega
            rhs = min(rhs, polar_ratio ** ((p - n) / (n + p)))
        margin, verdict = _one_sided(True, True, lhs, rhs, tol, tight)
    elif p > -n:
        rhs = vol_ratio ** ((n - p) / (n + p))
        margin, verdict = _one_sided(False, False, lhs, rhs, tol, tight)
    else:
        polar_ratio = Kc.polar().volume() / omega
        rhs1 = polar_ratio ** ((p - n) / (n + p))
        rhs2 = config.bm_constant ** (n * p / (n + p)) * vol_ratio ** ((n - p) / (n + p))
        rhs = max(rhs1, rhs2)
        m1, v1 = _one_sided(False, False, lhs, rhs1, tol, tight)
        m2, v2 = _one_sided(False, False, lhs, rhs2, tol, tight)
        margin = min(m1, m2)
        order = {FAIL: 0, INCONCLUSIVE: 1, PASS: 2}
        verdict = min((v1, v2), key=order.get)
    variant = "centered" if centered else "uncentered"
    return CheckResult("isoperimetric", _instance(K, name, p=p, variant=variant),
                       lhs, rhs, margin, verdict, tol,
                       f"{variant} volume-normalized bound")


def check_containment(E: Ellipsoid, K: ConvexBody, p: float, config: HarnessConfig,
                      cache=None, name="") -> CheckResult:
    """Monotonicity against a sandwiching origin-symmetric ellipsoid, with
    the comparison side depending on the order regime."""
    cache = cache or _GpCache(config)
    n = K.dim
    if not is_centered_ellipsoid(E):
        raise InputError("the reference body must be an origin-symmetric ellipsoid")
    grid = default_grid(n, config.grid_resolution)
    h_k = K.support(grid.nodes)
    h_e = E.support(grid.nodes)
    k_in_e = bool(np.all(h_k <= h_e * (1 + 1e-9)))
    e_in_k = bool(np.all(h_e <= h_k * (1 + 1e-9)))
    if 0 < p < n:
        need, upper = k_in_e, True
    elif p > n:
        need, upper = e_in_k, True
    elif -n < p < 0:
        need, upper = e_in_k, False
    elif p < -n:
        need, upper = k_in_e, False
    else:
        raise InputError("order must avoid 0, n and -n for the containment check")
    if not need:
        raise InputError("required containment does not hold for this instance")
    rec = cache.bound(K, p)
    value, tight = rec.value, rec.tight
    rhs = gp_ellipsoid_exact(np.linalg.det(E.matrix), n, p)
    tol = config.tolerances["estimator"]
    margin, verdict = _one_sided(upper, upper, value, rhs, tol, tight)
    return CheckResult("containment", _instance(K, name, p=p,
                                                ellipsoid_det=float(np.linalg.det(E.matrix))),
                       value, rhs, margin, verdict, tol,
                       "containment comparison against the exact ellipsoid value")


def check_p_surface_comparison(K: ConvexBody, p: float, config: HarnessConfig,
                               cache=None, name="") -> CheckResult:
    """Comparison with the p-surface area through the objective at Q = B:
    exact by construction since the unit ball is a fixed candidate, also for
    a quadric estimated in normal form, whose B is evaluated in its own
    frame on the grid p_surface_area uses."""
    cache = cache or _GpCache(config)
    n = K.dim
    omega = unit_ball_volume(n)
    grid = default_grid(n, config.grid_resolution)
    rec = cache.bound(K, p)
    lhs = rec.value / (n * omega)
    sp = p_surface_area(K, p, grid)
    rhs = (sp / (n * omega)) ** (n / (n + p))
    tol = 1e-12
    margin = rhs - lhs if p >= 0 else lhs - rhs
    verdict = PASS if margin >= -tol * max(abs(rhs), 1.0) else FAIL
    return CheckResult("p_surface", _instance(K, name, p=p),
                       lhs, rhs, margin, verdict, tol,
                       "capped by the objective at Q = B")


def _cyclic_exponents(n, r, s, t):
    alpha = (r - s) * (n + t) / ((t - s) * (n + r))
    beta = (t - r) * (n + s) / ((t - s) * (n + r))
    return alpha, beta


def check_cyclic_and_monotone(K: ConvexBody, params: dict, config: HarnessConfig,
                              name="") -> CheckResult:
    """Exact tier of the three-exponent chains.

    kind = 'cyclic' verifies value(r) against value(t)^alpha value(s)^beta on
    balls/ellipsoids through closed forms; kind = 'monotone' verifies the
    normalized power chain; kind = 'holder' delegates to the exact mixed
    volume bound on arbitrary body pairs."""
    n = K.dim
    kind = params["kind"]
    tol = config.tolerances["exact"]
    if kind == "holder":
        Q = params["Q"]
        r, s, t = params["r"], params["s"], params["t"]
        res = holder_cyclic_check(K, Q, r, s, t)
        verdict = PASS if res.margin >= -1e-9 * res.rhs else FAIL
        return CheckResult("cyclic_holder", _instance(K, name, r=r, s=s, t=t),
                           res.lhs, res.rhs, res.margin, verdict, 1e-9,
                           "exact interpolation bound on mixed volumes")
    if not is_centered_ellipsoid(K):
        raise InputError("exact-tier chains need a ball or ellipsoid")
    det = abs(np.linalg.det(K.matrix))
    if kind == "cyclic":
        r, s, t = params["r"], params["s"], params["t"]
        if (-n < t < 0 < r < s) or (-n < s < 0 < r < t) \
           or (-n < t < r < s < 0) or (-n < s < r < t < 0):
            upper = True
        elif (t < r < -n < s < 0) or (s < r < -n < t < 0):
            upper = False
        else:
            raise InputError("orders match no chain regime")
        alpha, beta = _cyclic_exponents(n, r, s, t)
        lhs = gp_ellipsoid_exact(det, n, r)
        rhs = math.exp(alpha * math.log(gp_ellipsoid_exact(det, n, t))
                       + beta * math.log(gp_ellipsoid_exact(det, n, s)))
        margin = (rhs - lhs) if upper else (lhs - rhs)
        verdict = PASS if margin >= -tol * abs(rhs) else FAIL
        return CheckResult("cyclic_exact", _instance(K, name, r=r, s=s, t=t),
                           lhs, rhs, margin, verdict, tol, "closed-form ellipsoid chain")
    if kind == "monotone":
        q, p = params["q"], params["p"]
        if abs(q) < 1e-12 or abs(p) < 1e-12 or abs(q + n) < 1e-6 or abs(p + n) < 1e-6:
            raise InputError("orders must avoid 0 and -n")
        if (-n < q < p) or (q < p < -n):
            upper = True
        elif q < -n < p:
            upper = False
        else:
            raise InputError("orders match no monotonicity regime")
        vol = K.volume()
        lhs = (gp_ellipsoid_exact(det, n, q) / (n * vol)) ** ((n + q) / q)
        rhs = (gp_ellipsoid_exact(det, n, p) / (n * vol)) ** ((n + p) / p)
        margin = (rhs - lhs) if upper else (lhs - rhs)
        verdict = PASS if margin >= -tol * abs(rhs) else FAIL
        return CheckResult("monotone_exact", _instance(K, name, q=q, p=p),
                           lhs, rhs, margin, verdict, tol,
                           "closed-form normalized power chain")
    raise InputError(f"unknown chain kind {kind!r}")


def check_blaschke_santalo(K: ConvexBody, config: HarnessConfig, name="") -> CheckResult:
    """Body-level volume product bound for centered bodies, independent of
    the estimator."""
    n = K.dim
    omega = unit_ball_volume(n)
    Kc = _center_at_centroid(K)
    mk = mahler(Kc)
    rhs = omega ** 2
    tol = 1e-8
    margin = rhs - mk
    verdict = PASS if mk <= rhs + tol else FAIL
    if is_centered_ellipsoid(K) and abs(mk - rhs) > 1e-6 * rhs:
        verdict = FAIL
    return CheckResult("blaschke_santalo", _instance(K, name),
                       mk, rhs, margin, verdict, tol,
                       "volume product of the centered body")


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Report:
    config: dict
    results: list
    summary: dict
    failures: list

    @property
    def exit_status(self) -> int:
        return 1 if any(r.verdict == FAIL for r in self.results) else 0

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "summary": self.summary,
            "results": [r.to_json() for r in self.results],
            "failures": self.failures,
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), indent=2).encode()

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check_id", "instance_id", "lhs", "rhs", "margin", "verdict"])
        for i, r in enumerate(self.results):
            writer.writerow([r.check_id, f"{r.check_id}:{i:04d}",
                             repr(r.lhs), repr(r.rhs), repr(r.margin), r.verdict])
        return buf.getvalue()


def _summarize(results):
    summary = {}
    for r in results:
        entry = summary.setdefault(r.check_id, {
            "pass": 0, "fail": 0, "inconclusive": 0, "worst_margin": math.inf})
        entry[r.verdict] += 1
        if np.isfinite(r.margin):
            entry["worst_margin"] = min(entry["worst_margin"], r.margin)
    for entry in summary.values():
        if not np.isfinite(entry["worst_margin"]):
            entry["worst_margin"] = None
    return summary


# ---------------------------------------------------------------------------
# check table
# ---------------------------------------------------------------------------

def _homogeneity_map(config: HarnessConfig, dim: int):
    """The invertible map of the homogeneity check, drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, dim]))
    return rng.standard_normal((dim, dim)) + dim * np.eye(dim)


def _containment_ellipsoid(K: ConvexBody, p: float):
    """Origin ball around K when p lies in (0, n) or below -n, inside K when
    p > n or -n < p < 0; the regime fixes which containment is needed."""
    n = K.dim
    lo, hi = _support_bounds(K)
    scale = hi * 1.05 if (0 < p < n or p < -n) else lo * 0.95
    return Ellipsoid(np.eye(n) * scale)


def _run_chain(K, params, config, cache, name):
    if params["kind"] == "holder":
        params = {**params, "Q": Ellipsoid(np.diag([1.5] + [0.8] * (K.dim - 1)))}
    return check_cyclic_and_monotone(K, params, config, name)


def _homogeneity_instances(config, dim, bodies):
    for name, K in bodies.items():
        if is_centered_ellipsoid(K) or isinstance(K, _Polytope):
            for p in config.orders_for(dim)[:3]:
                yield name, K, {"p": p}


def _shift_instances(config, dim, bodies):
    for mag in (0.1, 0.5, 0.9):
        z0 = [mag] + [0.0] * (dim - 1)
        for p in (0.25, 0.5, 0.75, -0.5, -1.0, -1.5):
            if -dim < p < 1 and abs(p) > 1e-12:
                yield "", None, {"z0": z0, "p": p}


def _body_orders(config, dim, bodies):
    for name, K in bodies.items():
        for p in config.orders_for(dim):
            yield name, K, {"p": p}


def _containment_instances(config, dim, bodies):
    for name, K, params in _body_orders(config, dim, bodies):
        if params["p"] not in (0, dim, -dim):
            yield name, K, params


def _chain_instances(config, dim, bodies):
    last = (-3.5, -2.0, -3.8) if dim == 3 else (-2.5, -1.0, -2.8)
    for det in (0.25, 1.0, 4.0):
        E = Ellipsoid(np.diag([det] + [1.0] * (dim - 1)))
        for r, s, t in ((1.0, 2.0, -1.0), (-0.5, -0.25, -1.0), last):
            yield "", E, {"kind": "cyclic", "r": r, "s": s, "t": t}
        for q, p in ((0.5, 1.0), (-1.0, 0.5), (-1.5, -0.5),
                     (-dim - 2.0, -dim - 1.0), (-dim - 1.0, 1.0)):
            yield "", E, {"kind": "monotone", "q": q, "p": p}
    polys = [(name, K) for name, K in bodies.items() if isinstance(K, _Polytope)]
    for name, K in polys[:2]:
        for r, s, t in ((1.0, 0.0, 2.0), (1.0, 2.0, -1.0), (0.5, -0.5, 1.5)):
            yield name, K, {"kind": "holder", "r": r, "s": s, "t": t}


def _mahler_instances(config, dim, bodies):
    for name, K in bodies.items():
        yield name, K, {}
    kinds = ["polytope-hull", "ellipsoid"] + (["fourier2d"] if dim == 2 else [])
    for i in range(config.mahler_count):
        kind = kinds[i % len(kinds)]
        seq = np.random.SeedSequence([config.seed, dim, 7, i])
        yield f"mahler-{kind}-{i}", random_body(kind, dim, rng=np.random.default_rng(seq)), {}


# One entry per config check name, in report order:
# - emits: check id -> the run params its reported instance leaves out;
# - instances(config, dim, bodies): (name, body, params) in report order;
# - run(body, params, config, cache, name): a CheckResult or a list of them.
# The runners look the check functions up when called, so a rebound module
# attribute is honoured.
_Check = namedtuple("_Check", "emits instances run")

_CHECKS = {
    "homogeneity": _Check(
        {"homogeneity": {}}, _homogeneity_instances,
        lambda K, pr, cfg, cache, name: check_homogeneity(
            K, _homogeneity_map(cfg, K.dim), pr["p"], cfg, cache, name)),
    "translation_balls": _Check(
        {"translation_balls": {}}, _shift_instances,
        lambda K, pr, cfg, cache, name: check_translation_balls(pr["z0"], pr["p"], cfg)),
    "volume_product": _Check(
        {"volume_product_bound": {}, "volume_product_pair": {}}, _body_orders,
        lambda K, pr, cfg, cache, name: check_volume_product_bound(
            K, pr["p"], cfg, cache, name)),
    "santalo_style": _Check(
        {"santalo_style": {}}, _body_orders,
        lambda K, pr, cfg, cache, name: check_santalo_style(K, pr["p"], cfg, cache, name)),
    "isoperimetric": _Check(
        {"isoperimetric": {}}, _body_orders,
        lambda K, pr, cfg, cache, name: check_isoperimetric(
            K, pr["p"], cfg, cache, name, centered=pr.get("variant") != "uncentered")),
    "containment": _Check(
        {"containment": {}}, _containment_instances,
        lambda K, pr, cfg, cache, name: check_containment(
            _containment_ellipsoid(K, pr["p"]), K, pr["p"], cfg, cache, name)),
    "p_surface": _Check(
        {"p_surface": {}}, _body_orders,
        lambda K, pr, cfg, cache, name: check_p_surface_comparison(
            K, pr["p"], cfg, cache, name)),
    "cyclic_monotone": _Check(
        {"cyclic_exact": {"kind": "cyclic"}, "monotone_exact": {"kind": "monotone"},
         "cyclic_holder": {"kind": "holder"}}, _chain_instances, _run_chain),
    "blaschke_santalo": _Check(
        {"blaschke_santalo": {}}, _mahler_instances,
        lambda K, pr, cfg, cache, name: check_blaschke_santalo(K, cfg, name)),
}


def _run(check: _Check, K, params, config, cache, name) -> list:
    out = check.run(K, params, config, cache, name)
    return out if isinstance(out, list) else [out]


def run_suite(config: HarnessConfig) -> Report:
    """Run the enabled checks over canonical plus random bodies.

    Deterministic for a fixed seed; the failure list carries serialized
    instances for replay."""
    cache = _GpCache(config)
    # checks over the same instances run instance by instance, so their
    # results interleave per (body, order)
    groups = {}
    for key, check in _CHECKS.items():
        if key in config.checks:
            groups.setdefault(check.instances, []).append(check)
    results = []
    for dim in config.dims:
        bodies = suite_bodies(config, dim)
        for instances, group in groups.items():
            for name, K, params in instances(config, dim, bodies):
                for check in group:
                    results.extend(_run(check, K, params, config, cache, name))
    failures = [r.to_json() for r in results if r.verdict == FAIL]
    return Report(config=config.to_dict(), results=results,
                  summary=_summarize(results), failures=failures)


def replay_instance(serialized: dict, config: HarnessConfig) -> CheckResult:
    """Re-run a single serialized check instance; margins must reproduce."""
    check_id = serialized["check_id"]
    check = next((c for c in _CHECKS.values() if check_id in c.emits), None)
    if check is None:
        raise InputError(f"unknown check {check_id!r}")
    inst = serialized["instance"]
    body = body_from_json(inst["body"]) if "body" in inst else None
    params = {**inst["params"], **check.emits[check_id]}
    results = _run(check, body, params, config, _GpCache(config), inst.get("name", ""))
    return next(r for r in results if r.check_id == check_id)
