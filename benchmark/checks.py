"""Output checks made apart from the program.

Every reference value here comes from a closed form, from scipy called
directly, or from a property the method must have; nothing is imported from
``geominima``.  Each ``check_*`` function returns a list of messages, empty
when the output is right.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.special import elliprg, logsumexp

EXACT_TOL = 1e-9    # finite sums: polytopes, coefficient integrals, closed forms
QUAD_TOL = 1e-6     # values the program takes from spherical quadrature
SAME_TOL = 1e-12    # one output derived from others by a fixed formula


def omega(n):
    """Volume of the unit n-ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _close(label, got, want, tol, errs):
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= tol * max(abs(want), 1e-300)):
        errs.append(f"{label}: got {got!r}, expected {want!r} (rel tol {tol:g})")


def _close_log(label, got, log_want, tol, errs):
    if not (isinstance(got, (int, float)) and got > 0 and math.isfinite(got)
            and abs(math.log(got) - log_want) <= tol):
        errs.append(f"{label}: got {got!r}, expected exp({log_want!r}) (log tol {tol:g})")


# ---------------------------------------------------------------------------
# reference geometry
# ---------------------------------------------------------------------------

class PolytopeRef:
    """Facet data of a polytope body file from scipy hulls: one row per hull
    simplex (coplanar simplices share normal and offset, so sums over
    simplices equal sums over facets)."""

    def __init__(self, rep):
        if rep["type"] == "v-polytope":
            points = np.asarray(rep["vertices"], dtype=float)
        else:
            normals = np.asarray(rep["normals"], dtype=float)
            offsets = np.asarray(rep["offsets"], dtype=float)
            points = HalfspaceIntersection(np.column_stack([normals, -offsets]),
                                           np.zeros(normals.shape[1])).intersections
        self.hull = ConvexHull(points)
        self.dim = points.shape[1]
        self.vertices = points[self.hull.vertices]
        self.normals = self.hull.equations[:, :-1]
        self.offsets = -self.hull.equations[:, -1]
        simplices = points[self.hull.simplices]
        if self.dim == 2:
            self.areas = np.linalg.norm(simplices[:, 1] - simplices[:, 0], axis=1)
        else:
            self.areas = 0.5 * np.linalg.norm(
                np.cross(simplices[:, 1] - simplices[:, 0], simplices[:, 2] - simplices[:, 0]),
                axis=1)

    @property
    def volume(self):
        return self.hull.volume

    @property
    def polar_volume(self):
        return vertex_polar_volume(self.vertices)

    def sp(self, p):
        """p-surface area: sum of h^(1-p) times facet area (h_B = 1)."""
        return float(np.sum(self.offsets ** (1.0 - p) * self.areas))

    def log_objective(self, p, log_hq, log_polar_q):
        """log of n V_p(K, Q)^(n/(n+p)) |Q polar|^(p/(n+p)) from facet sums."""
        n = self.dim
        log_nvp = logsumexp(p * log_hq + (1.0 - p) * np.log(self.offsets) + np.log(self.areas))
        return math.log(n) + (n / (n + p)) * (log_nvp - math.log(n)) \
            + (p / (n + p)) * log_polar_q


def vertex_polar_volume(vertices):
    """|{y : <v, y> <= 1 for all vertices v}|."""
    n = vertices.shape[1]
    hs = HalfspaceIntersection(np.column_stack([vertices, -np.ones(len(vertices))]), np.zeros(n))
    return ConvexHull(hs.intersections).volume


def witness_support_and_polar(witness, u):
    """(log h_Q at the directions u, log |Q polar|) for a witness body."""
    rep = witness["repr"]
    n = witness["dim"]
    if rep["type"] == "ellipsoid":
        A = np.asarray(rep["matrix"], dtype=float)
        h = np.linalg.norm(u @ A, axis=1)
        return np.log(h), math.log(omega(n)) - math.log(abs(np.linalg.det(A)))
    if rep["type"] == "shifted-ball":
        center = np.asarray(rep["center"], dtype=float)
        r = float(rep["radius"])
        return np.log(r + u @ center), math.log(shifted_ball_polar_volume(center, r))
    if rep["type"] == "h-polytope":
        normals = np.asarray(rep["normals"], dtype=float)
        offsets = np.asarray(rep["offsets"], dtype=float)
        verts = HalfspaceIntersection(np.column_stack([normals, -offsets]),
                                      np.zeros(n)).intersections
        h = np.max(u @ verts.T, axis=1)
        return np.log(h), math.log(ConvexHull(normals / offsets[:, None]).volume)
    if rep["type"] == "v-polytope":
        verts = np.asarray(rep["vertices"], dtype=float)
        h = np.max(u @ verts.T, axis=1)
        return np.log(h), math.log(vertex_polar_volume(verts))
    raise ValueError(f"no reference for witness type {rep['type']!r}")


def sphere_grid(n):
    """Reference quadrature on S^(n-1), finer than the program's 4096-node
    grids: trapezoid with 8192 nodes on the circle, 128 x 256 Gauss-Legendre
    product nodes on the 2-sphere."""
    if n == 2:
        t = 2.0 * math.pi * np.arange(8192) / 8192
        return np.column_stack([np.cos(t), np.sin(t)]), np.full(8192, 2.0 * math.pi / 8192)
    x, gw = np.polynomial.legendre.leggauss(128)
    phi = 2.0 * math.pi * np.arange(256) / 256
    s = np.sqrt(1.0 - x ** 2)
    u = np.column_stack([np.outer(s, np.cos(phi)).ravel(), np.outer(s, np.sin(phi)).ravel(),
                         np.repeat(x, 256)])
    return u, np.repeat(gw * 2.0 * math.pi / 256, 256)


def smooth_log_objective(body, p, log_hq_at, log_polar_q):
    """log of n V_p(K, Q)^(n/(n+p)) |Q polar|^(p/(n+p)) for an ellipsoid or
    shifted ball K, with dS_K = f_K dsigma from its closed-form curvature
    function on the reference grid; ``log_hq_at(u)`` is log h_Q at rows u."""
    n = body["dim"]
    rep = body["repr"]
    u, w = sphere_grid(n)
    if rep["type"] == "ellipsoid":
        A = np.asarray(rep["matrix"], dtype=float)
        h = np.linalg.norm(u @ A, axis=1)
        f = np.linalg.det(A) ** 2 / h ** (n + 1)
    else:
        r = float(rep["radius"])
        h = r + u @ np.asarray(rep["center"], dtype=float)
        f = np.full(len(h), r ** (n - 1))
    log_nvp = logsumexp(p * log_hq_at(u) + (1.0 - p) * np.log(h) + np.log(w * f))
    return math.log(n) + (n / (n + p)) * (log_nvp - math.log(n)) + (p / (n + p)) * log_polar_q


def ellipsoid_gp(det, n, p):
    """Closed form n omega_n |det A|^((n-p)/(n+p)) for A B (also its as_p)."""
    return n * omega(n) * abs(det) ** ((n - p) / (n + p))


def ellipsoid_surface_area(A):
    a, b, c = np.linalg.svd(A, compute_uv=False)
    return 4.0 * math.pi * a * b * c * float(elliprg(a ** -2, b ** -2, c ** -2))


def shifted_ball_polar_volume(center, r):
    n = len(center)
    return omega(n) * r / (r * r - float(np.dot(center, center))) ** ((n + 1) / 2.0)


def _circle_quad(f):
    return quad(f, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13, limit=400)[0]


def shifted_ball2_sp(center, r, p):
    """Planar shifted ball: integral of h^(1-p) r over the circle."""
    c = float(np.linalg.norm(center))
    return _circle_quad(lambda t: (r + c * math.cos(t)) ** (1.0 - p) * r)


def shifted_ball2_asp(center, r, p):
    c = float(np.linalg.norm(center))
    return _circle_quad(lambda t: ((r + c * math.cos(t)) ** (1.0 - p) * r) ** (2.0 / (2.0 + p)))


class FourierRef:
    """Planar body from its support coefficients, sampled on a fine grid;
    the integrands are trigonometric or smooth, so the trapezoid rule is
    spectrally accurate."""

    N = 8192

    def __init__(self, rep):
        a = np.asarray(rep["a"], dtype=float)
        b = np.asarray(rep.get("b", np.zeros_like(a)), dtype=float)
        self.a0 = float(a[0])
        t = 2.0 * math.pi * np.arange(self.N) / self.N
        k = np.arange(len(a))
        ct, st = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
        self.h = ct @ a + st @ b
        self.curv = self.h - ct @ (k ** 2 * a) - st @ (k ** 2 * b)   # h + h''
        self.w = 2.0 * math.pi / self.N

    @property
    def volume(self):
        return 0.5 * self.w * float(np.sum(self.h * self.curv))

    @property
    def polar_volume(self):
        return 0.5 * self.w * float(np.sum(self.h ** -2.0))

    def sp(self, p):
        return self.w * float(np.sum(self.h ** (1.0 - p) * self.curv))

    def asp(self, p):
        return self.w * float(np.sum((self.h ** (1.0 - p) * self.curv) ** (2.0 / (2.0 + p))))

    def fp(self, p):
        return self.h ** (1.0 - p) * self.curv


def planar_in_vp(fp, p, decisive=1e-6):
    """Whether g = f_p^(-1/(2+p)) satisfies g + g'' >= 0, from a
    fourth-order periodic finite difference; None when the margin is too
    small to decide."""
    g = fp ** (-1.0 / (2.0 + p))
    step = 2.0 * math.pi / len(g)
    g2 = (-np.roll(g, 2) + 16 * np.roll(g, 1) - 30 * g + 16 * np.roll(g, -1)
          - np.roll(g, -2)) / (12 * step * step)
    margin = float(np.min(g + g2)) / float(np.max(g))
    if margin > decisive:
        return True
    if margin < -decisive:
        return False
    return None


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def error_entries(out):
    """Quantities the CLI reported as {"error": ...}; each makes the op fail."""
    return [q for q, v in out.items() if isinstance(v, dict) and "error" in v]


def check_compute(body, quantities, orders, out):
    errs = []
    rep = body["repr"]
    n = body["dim"]
    kind = rep["type"]
    missing = [q for q in quantities if q not in out]
    if missing:
        return [f"missing quantities {missing}"]
    keys = [str(float(p)) for p in orders]

    vol, pvol = out["volume"], out["polar_volume"]
    _close("mahler = volume * polar_volume", out["mahler"], vol * pvol, SAME_TOL, errs)
    for key in keys:
        _close(f"vp[{key}] = sp[{key}] / n", out["vp"][key], out["sp"][key] / n, SAME_TOL, errs)
    if "0.0" in keys:
        tol = EXACT_TOL if kind.endswith("polytope") else QUAD_TOL
        _close("sp[0] = n |K|", out["sp"]["0.0"], n * vol, tol, errs)
        if "asp" in out:
            _close("asp[0] = n |K|", out["asp"]["0.0"], n * vol, QUAD_TOL, errs)

    if kind in ("v-polytope", "h-polytope"):
        ref = PolytopeRef(rep)
        _close("volume (scipy hull)", vol, ref.volume, EXACT_TOL, errs)
        _close("polar_volume (scipy hull)", pvol, ref.polar_volume, EXACT_TOL, errs)
        _close("sp[1] = hull surface area", out["sp"]["1.0"], ref.hull.area, EXACT_TOL, errs)
        for p, key in zip(orders, keys):
            _close(f"sp[{key}] (facet sum)", out["sp"][key], ref.sp(p), EXACT_TOL, errs)
    elif kind == "ellipsoid":
        A = np.asarray(rep["matrix"], dtype=float)
        det = abs(np.linalg.det(A))
        _close("volume = omega |det A|", vol, omega(n) * det, EXACT_TOL, errs)
        _close("polar_volume = omega / |det A|", pvol, omega(n) / det, EXACT_TOL, errs)
        if n == 3:
            _close("sp[1] = ellipsoid surface area", out["sp"]["1.0"],
                   ellipsoid_surface_area(A), QUAD_TOL, errs)
        for p, key in zip(orders, keys):
            _close(f"asp[{key}] closed form", out["asp"][key], ellipsoid_gp(det, n, p),
                   QUAD_TOL, errs)
            if out["in_vp"][key] is not True:
                errs.append(f"in_vp[{key}]: ellipsoids always belong, got {out['in_vp'][key]!r}")
    elif kind == "shifted-ball":
        center = np.asarray(rep["center"], dtype=float)
        r = float(rep["radius"])
        _close("volume = omega r^n", vol, omega(n) * r ** n, EXACT_TOL, errs)
        _close("polar_volume closed form", pvol, shifted_ball_polar_volume(center, r),
               EXACT_TOL, errs)
        if n != 2:
            raise ValueError("shifted-ball references are planar")
        _close("sp[1] = 2 pi r", out["sp"]["1.0"], 2.0 * math.pi * r, QUAD_TOL, errs)
        h = r + sphere_grid(2)[0] @ center
        for p, key in zip(orders, keys):
            _close(f"sp[{key}] (quad)", out["sp"][key], shifted_ball2_sp(center, r, p),
                   QUAD_TOL, errs)
            _close(f"asp[{key}] (quad)", out["asp"][key], shifted_ball2_asp(center, r, p),
                   QUAD_TOL, errs)
            _check_in_vp(key, out["in_vp"][key], planar_in_vp(h ** (1.0 - p) * r, p), errs)
    elif kind == "fourier2d":
        ref = FourierRef(rep)
        _close("volume = 1/2 int h(h+h'')", vol, ref.volume, EXACT_TOL, errs)
        _close("polar_volume = 1/2 int h^-2", pvol, ref.polar_volume, EXACT_TOL, errs)
        _close("sp[1] = 2 pi a0", out["sp"]["1.0"], 2.0 * math.pi * ref.a0, EXACT_TOL, errs)
        for p, key in zip(orders, keys):
            _close(f"sp[{key}] (coefficients)", out["sp"][key], ref.sp(p), EXACT_TOL, errs)
            _close(f"asp[{key}] (coefficients)", out["asp"][key], ref.asp(p), EXACT_TOL, errs)
            _check_in_vp(key, out["in_vp"][key], planar_in_vp(ref.fp(p), p), errs)
    else:
        raise ValueError(f"no reference for body type {kind!r}")
    return errs


def _check_in_vp(key, got, want, errs):
    if want is not None and got is not want:
        errs.append(f"in_vp[{key}]: got {got!r}, finite-difference test says {want!r}")


def check_estimate(body, p, out):
    errs = []
    rep = body["repr"]
    n = body["dim"]
    kind = rep["type"]
    if out.get("p") != p:
        errs.append(f"p: got {out.get('p')!r}, asked {p!r}")
    want_dir = "upper" if p >= 0 else "lower"
    if out.get("direction") != want_dir:
        errs.append(f"direction: got {out.get('direction')!r} for p = {p}, expected {want_dir}")
    value, at_k, at_b = out["value"], out["objective_at_K"], out["objective_at_B"]
    slack = 1e-12
    if p > 0 and not value <= min(at_k, at_b) * (1 + slack):
        errs.append(f"upper estimate {value!r} above a fixed candidate ({at_k!r}, {at_b!r})")
    if p < 0 and not value >= max(at_k, at_b) * (1 - slack):
        errs.append(f"lower estimate {value!r} below a fixed candidate ({at_k!r}, {at_b!r})")

    if kind in ("v-polytope", "h-polytope"):
        ref = PolytopeRef(rep)
        u = ref.normals
        log_hq, log_pq = witness_support_and_polar(out["witness"], u)
        _close_log("value = objective at the witness (scipy facets)", value,
                   ref.log_objective(p, log_hq, log_pq), EXACT_TOL, errs)
        _close_log("objective_at_K (scipy facets)", at_k,
                   ref.log_objective(p, np.log(ref.offsets), math.log(ref.polar_volume)),
                   EXACT_TOL, errs)
        _close_log("objective_at_B (scipy facets)", at_b,
                   ref.log_objective(p, np.zeros(len(u)), math.log(omega(n))), EXACT_TOL, errs)
        return errs
    if kind == "ellipsoid":
        det = abs(np.linalg.det(np.asarray(rep["matrix"], dtype=float)))
        log_k = math.log(ellipsoid_gp(det, n, p))
        _close_log("value = n omega |det A|^((n-p)/(n+p))", value, log_k, QUAD_TOL, errs)
    elif kind == "shifted-ball":
        center = np.asarray(rep["center"], dtype=float)
        r = float(rep["radius"])
        log_k = math.log(n) + (n / (n + p)) * math.log(omega(n) * r ** n) \
            + (p / (n + p)) * math.log(shifted_ball_polar_volume(center, r))
    else:
        raise ValueError(f"no reference for body type {kind!r}")
    _close_log("objective_at_K closed form", at_k, log_k, QUAD_TOL, errs)
    witness = out["witness"]
    _close_log("value = objective at the witness (reference quadrature)", value,
               smooth_log_objective(body, p, lambda u: witness_support_and_polar(witness, u)[0],
                                    witness_support_and_polar(witness, np.eye(n))[1]),
               QUAD_TOL, errs)
    _close_log("objective_at_B (reference quadrature)", at_b,
               smooth_log_objective(body, p, lambda u: np.zeros(len(u)), math.log(omega(n))),
               QUAD_TOL, errs)
    return errs


VERIFY_REQUIRED = ("cyclic_exact", "monotone_exact", "blaschke_santalo", "translation_balls")


def check_verify(report, required=VERIFY_REQUIRED):
    """Checks on a parsed verify report (the exit code is checked by the
    caller); ``required`` lists the check ids the report must contain."""
    errs = []
    results = report["results"]
    if not results:
        return ["empty report"]
    fails = [r["check_id"] for r in results if r["verdict"] == "fail"]
    if fails:
        errs.append(f"{len(fails)} fail verdicts: {sorted(set(fails))}")
    counted = sum(e["pass"] + e["fail"] + e["inconclusive"] for e in report["summary"].values())
    if counted != len(results):
        errs.append(f"summary counts {counted} results, report has {len(results)}")
    seen = dict.fromkeys(VERIFY_REQUIRED, 0)
    for r in results:
        cid = r["check_id"]
        if cid not in seen:
            continue
        seen[cid] += 1
        inst = r["instance"]
        label = f"{cid} #{seen[cid]}"
        if cid == "translation_balls":
            n = len(inst["params"]["z0"])
            _close(f"{label} rhs = n omega_n", r["rhs"], n * omega(n), SAME_TOL, errs)
            continue
        body = inst["body"]
        n = body["dim"]
        if cid == "blaschke_santalo":
            _close(f"{label} rhs = omega_n^2", r["rhs"], omega(n) ** 2, SAME_TOL, errs)
            if body["repr"]["type"] == "ellipsoid":
                _close(f"{label} lhs of an ellipsoid = omega_n^2", r["lhs"], omega(n) ** 2,
                       EXACT_TOL, errs)
            continue
        det = abs(np.linalg.det(np.asarray(body["repr"]["matrix"], dtype=float)))
        prm = inst["params"]
        if cid == "cyclic_exact":
            rr, s, t = prm["r"], prm["s"], prm["t"]
            alpha = (rr - s) * (n + t) / ((t - s) * (n + rr))
            beta = (t - rr) * (n + s) / ((t - s) * (n + rr))
            lhs = ellipsoid_gp(det, n, rr)
            rhs = ellipsoid_gp(det, n, t) ** alpha * ellipsoid_gp(det, n, s) ** beta
        else:
            q, p = prm["q"], prm["p"]
            vol = omega(n) * det
            lhs = (ellipsoid_gp(det, n, q) / (n * vol)) ** ((n + q) / q)
            rhs = (ellipsoid_gp(det, n, p) / (n * vol)) ** ((n + p) / p)
        _close(f"{label} lhs closed form", r["lhs"], lhs, EXACT_TOL, errs)
        _close(f"{label} rhs closed form", r["rhs"], rhs, EXACT_TOL, errs)
    for cid in required:
        if seen[cid] == 0:
            errs.append(f"report has no {cid} results")
    return errs
